(** The client side every backend shares.

    Skeap, Seap and both baselines use one client model (the Skueue lineage
    [FSS18a]): a node buffers its [Insert]/[DeleteMin] requests, gives each
    a per-node {e local issue number} ([local_seq], 0-based), and tags each
    inserted element with the identity [(origin, seq)] that makes elements
    unique.  A protocol iteration takes a {!snapshot} of the buffers,
    serializes the operations under a witness order ({!next_witness} /
    {!record}) and reports {!Types.completion}s sorted by
    [(node, local_seq)] ({!sort_completions}).

    The backend chooses only the priority range: [[1, num_prios]] for Skeap
    and Unbatched, [>= 1] for Seap and Centralized.  Nodes killed by a fault
    plan ({!kill}) refuse further operations; a node id that leaves and
    later rejoins resumes its counters, so oplog identities stay unique
    across churn. *)

module Element = Dpq_util.Element
module Oplog = Dpq_semantics.Oplog

(** The client API each backend exports, documented once here. *)
module type S = sig
  type t

  type completion = Types.completion = {
    node : int;
    local_seq : int;
    outcome : Types.outcome;
  }
  (** One buffered operation's answer: the node and local issue number
      identify the operation; the outcome is its result.  A protocol
      iteration reports them sorted by [(node, local_seq)]. *)

  val n : t -> int
  (** Current number of node ids ([0 .. n-1]). *)

  val live : t -> node:int -> bool
  (** Whether [node] is a valid id that has not been permanently lost.
      Operations on a killed node raise [Invalid_argument]. *)

  val insert : t -> node:int -> prio:int -> Element.t
  (** Buffer an [Insert] at [node]; returns the element that will be
      inserted (priority tagged with its origin/sequence tiebreaker).
      Raises [Invalid_argument] on a node that is out of range or dead, or
      a priority outside the backend's range. *)

  val delete_min : t -> node:int -> unit
  (** Buffer a [DeleteMin] at [node]; same node check as {!insert}. *)

  val pending_ops : t -> int
  (** Buffered operations not yet processed. *)

  val oplog : t -> Oplog.t
  (** Everything completed since the last {!take_log}, in witness
      (serialization) order; the whole run if the log is never drained. *)

  val take_log : t -> Oplog.record list
  (** Drain the retained log: the records completed since the previous
      take, in witness order.  Streaming callers drain after every
      processed iteration and feed an online checker, so the backend never
      holds more than one iteration's records. *)
end

type kind = [ `Ins of Element.t | `Del ]
type pending = { local_seq : int; kind : kind }

type t

include S with type t := t

val create : name:string -> ?max_prio:int -> n:int -> unit -> t
(** Clients for nodes [0 .. n-1].  [name] prefixes error messages.
    Priorities must be [>= 1], and [<= max_prio] when it is given. *)

type clients := t

(** Backends expose their clients' API with
    [include Clients.Make (struct type nonrec t = t let clients t = t.clients end)]. *)
module Make (B : sig
  type t

  val clients : t -> clients
end) : S with type t := B.t

(** {2 Backend side} *)

(** What a {!snapshot} takes from each node's buffer. *)
type take =
  | All  (** every buffered operation *)
  | Matching of (kind -> bool)
      (** every matching operation; the rest stay buffered in order *)
  | Leading of (kind -> bool)
      (** the maximal leading run of matching operations (Seap's
          [Sequential] mode) *)

val snapshot : t -> take -> pending list array
(** Remove the taken operations, per node in issue order.  Costs one list
    cell per operation taken; the ones left stay where they are. *)

val issued : t -> int -> int
(** Operations [node] has issued so far (its next [local_seq]) — the
    monotone counter gossip load estimation diffs. *)

val next_witness : t -> int
(** Claim the next position in the serialization order.  Kept apart from
    {!record} because a backend may fix a witness before it learns the
    operation's result (Unbatched's matched deletes). *)

val record : t -> Oplog.record -> unit
(** Log a completed operation under the witness it already carries. *)

val serialize : t -> node:int -> local_seq:int -> Oplog.kind -> Element.t option -> unit
(** Log a completed operation at {!next_witness}. *)

val sort_completions : completion list -> completion list
(** Sorted by [(node, local_seq)]. *)

val merge_completions : completion list -> completion list -> completion list
(** Merge two lists sorted by [(node, local_seq)] into one. *)

val drain : t -> (unit -> 'r) -> 'r list
(** [drain c iterate] runs protocol iterations until nothing is buffered;
    their results in order. *)

(** {2 Membership} *)

val kill : t -> node:int -> unit
(** [node] was permanently lost: drop its buffered operations and refuse
    new ones. *)

val add_node : t -> unit
(** A node joins with id [n]; an id that left before resumes its counters. *)

val remove_last_node : t -> unit
(** Node [n-1] leaves; its counters are kept for a later rejoin.  Raises
    [Invalid_argument] if it still has buffered operations. *)
