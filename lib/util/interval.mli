(** Closed integer intervals [\[a, b\]].

    Skeap's anchor assigns each batch entry an interval of positions
    (§3.2.2), Phase 3 recursively decomposes such intervals over the
    aggregation tree, and Seap assigns sub-intervals of [\[1, k\]] to deleting
    nodes (§5.2).  The empty interval is represented explicitly so that
    decomposition code can stay total. *)

type t
(** An interval; either empty or [\[lo, hi\]] with [lo <= hi]. *)

val empty : t

val make : int -> int -> t
(** Test seam: the tests build intervals with it.  [make lo hi] is
    [\[lo, hi\]], or [empty] when [hi < lo]. *)

val of_first_card : first:int -> card:int -> t
(** [of_first_card ~first ~card] is the interval of [card] positions starting
    at [first]. *)

val is_empty : t -> bool

val lo : t -> int
(** Raises [Invalid_argument] on the empty interval. *)

val hi : t -> int
(** Raises [Invalid_argument] on the empty interval. *)

val cardinality : t -> int

val equal : t -> t -> bool
(** Test seam. *)

val take : t -> int -> t * t
(** Test seam.  [take iv k] splits off the first [min k (cardinality iv)]
    positions: returns [(front, rest)]. *)

val split_sizes : t -> int list -> t list
(** Test seam: no protocol calls this; the tests keep it as the oracle for
    the positions pass [Dpq_aggtree.Phase.positions] and Skeap's Phase 3
    columns.  [split_sizes iv sizes] decomposes [iv]
    into consecutive sub-intervals of the given cardinalities, in order.
    Raises [Invalid_argument] if [sizes] sums to more than [cardinality iv]
    or contains negatives. *)

val positions : t -> int list
(** Test seam.  All positions, ascending; [\[\]] for empty.  Linear in
    cardinality. *)

val to_string : t -> string
(** ["[a,b]"] or ["∅"]. *)
