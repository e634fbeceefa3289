(** Linearized de Bruijn network (paper Definition A.1).

    Every real node [v] emulates three virtual nodes: a middle node [m(v)]
    with a pseudorandom label in [\[0,1)], a left node [l(v) = m(v)/2] and a
    right node [r(v) = (m(v)+1)/2].  All virtual nodes are arranged on a
    sorted cycle (linear edges); the three virtual nodes of one real node are
    connected by free virtual edges.

    A virtual node {e manages} the key-space interval from its label
    (inclusive) to its successor's label (exclusive); the manager of a point
    [p] is the predecessor of [p] on the cycle (Lemma A.2).

    Routing emulates the d-dimensional de Bruijn graph ([d ≈ log2 n + O(1)]):
    a de Bruijn hop from current point [x] with bit [c] targets [(x+c)/2],
    which is reached by walking linear edges to the closest middle node and
    taking its left/right virtual edge; a final linear walk closes in on the
    target (Lemmas A.2/A.3).  Only linear and virtual edges are ever used. *)

type t

type vkind = Left | Middle | Right

type vnode = int
(** Virtual node id: [owner * 3 + k] with [k = 0] Left, [1] Middle,
    [2] Right.  Owners are the dense real-node ids [0 .. n-1]. *)

val build : n:int -> seed:int -> t
(** [build ~n ~seed] creates an LDB over real nodes [0..n-1] with labels
    drawn from the seeded label hash. Requires [n >= 1]. *)

val n : t -> int
(** Number of real nodes. *)

val vnode : owner:int -> vkind -> vnode
val owner : vnode -> int
val kind : vnode -> vkind
val kind_to_string : vkind -> string

val label : t -> vnode -> float

val vnodes_in_cycle_order : t -> vnode array

val succ : t -> vnode -> vnode
(** Clockwise neighbor on the sorted cycle (wraps). *)

val pred : t -> vnode -> vnode

val manager_of_point : t -> float -> vnode
(** The virtual node managing point [p] in [\[0,1)): the one with the
    greatest label [<= p] (wrapping to the maximum label below the minimum
    label). *)

val point_of_mantissa : int -> float
(** [point_of_mantissa m = m·2{^-53}], exactly: the point of [\[0,1)] whose
    53-bit mantissa {!Dpq_util.Hashing.point} returns. *)

val manager_of_mantissa : t -> int -> vnode
(** [manager_of_mantissa t m = manager_of_point t (point_of_mantissa m)],
    bit for bit, with the point passed as an immediate int: across a
    library compiled with [-opaque] a float argument is boxed on every
    call, an int never is. *)

val min_vnode : t -> vnode
(** The virtual node with the globally smallest label — the aggregation
    tree's anchor position (Appendix A). *)

(** A routing step, as it would be executed by the owning real node using
    only locally known edges. *)
type hop =
  | Linear of vnode * vnode  (** cycle edge; costs one message *)
  | Virtual of vnode * vnode  (** co-located; free *)

val route : t -> src:vnode -> point:float -> vnode list * hop list
(** [route t ~src ~point] emulates de Bruijn routing toward the manager of
    [point]; returns the visited virtual nodes (first = [src], last =
    [manager_of_point t point]) and the hop list. *)

type path_buf
(** A growable buffer that routing walks append visited vnodes to, each
    stored in 32 bits.  It starts empty and grows geometrically;
    {!path_clear} keeps its capacity, so a buffer reused across walks stops
    allocating once it has reached its working size. *)

val path_buf : unit -> path_buf
val path_clear : path_buf -> unit

val path_length : path_buf -> int
(** How many vnodes the buffer holds: the sum of every walk's length since
    the last {!path_clear}. *)

val path_get : path_buf -> int -> vnode

val walk_route : t -> path_buf -> src:vnode -> point:float -> int
(** [walk_route t b ~src ~point] appends the visited-vnode sequence of
    {!route} ([fst], bit for bit) to [b] and returns its length; the walk
    occupies positions [path_length b - len .. path_length b - 1].  It
    uses index arithmetic on the sorted cycle and allocates nothing but
    the buffer's growth — the forwarding hot path of the DHT, which never
    looks at the hop constructors and indexes the path by hop position. *)

val walk_route_mantissa : t -> path_buf -> src:vnode -> mantissa:int -> int
(** [walk_route] to the point [point_of_mantissa mantissa], bit for bit,
    without boxing it (see {!manager_of_mantissa}). *)

val route_path : t -> src:vnode -> point:float -> vnode list
(** [fst (route t ~src ~point)], computed with {!walk_route}. *)

val debruijn_hop :
  t -> src:vnode -> from_point:float -> bit:int -> point:float -> vnode list * hop list
(** One emulated de Bruijn edge: [src] manages the ideal point
    [from_point]; the target [point] must be (near) [(from_point + bit)/2].  Realized as a short linear walk
    to the real-nearest middle node, its left/right virtual edge, and a
    short linear correction — O(1) expected messages, the building block of
    KSelect's copy trees (paper Phase 2b).  Raises [Invalid_argument]
    unless [bit] is 0 or 1. *)

val debruijn_hop_back :
  t -> src:vnode -> from_point:float -> point:float -> vnode list * hop list
(** The reverse de Bruijn edge: from the manager of the ideal point
    [from_point] to the manager of [point ≈ 2·from_point (mod 1)] — used
    when copy trees aggregate votes back to their roots. *)

val join : t -> t
(** Add one real node (id [n]) with a fresh label: the batch-join step used
    by experiment T10. *)

val leave : t -> id:int -> t
(** Remove real node [id]; remaining nodes are re-indexed densely.
    Raises [Invalid_argument] if [n = 1] or [id] out of range. *)

val remove : t -> id:int -> t
(** Remove real node [id] {e keeping every id stable}: the node's three
    vnodes leave the cycle (its key-range falls to the cycle predecessor)
    but survivors keep their ids and labels — the overlay counterpart of
    permanent node loss, where DHT state, traces and fault plans all name
    nodes by id.  Raises [Invalid_argument] if [id] is out of range,
    already removed, or the last live node. *)

val is_present : t -> id:int -> bool
(** Has real node [id] not been {!remove}d? *)

val live_count : t -> int
(** Number of present real nodes. *)

val join_cost_hops : t -> int
(** Messages needed for a single join: route to the new label's position
    (O(log n) w.h.p.) plus constant relinking. *)

val check_invariants : t -> (unit, string) result
(** Test seam: structural self-check: cycle sorted and closed,
    [l = m/2], [r = (m+1)/2], pred/succ inverse of each other. *)
