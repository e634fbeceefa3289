(** The anchor's position bookkeeping (Skeap Phase 2, §3.2.2) and the
    interval decomposition it feeds (Phase 3, §3.2.3).

    For every priority [p] the anchor keeps [first_p] and [last_p] with the
    invariant [first_p <= last_p + 1]; the interval [\[first_p, last_p\]] is
    the set of positions currently occupied by priority-[p] elements.
    Processing a combined batch entry [(i_j, d_j)]:

    - each priority's [i_{j,p}] inserts receive the fresh positions
      [\[last_p + 1, last_p + i_{j,p}\]];
    - the [d_j] deletes draw positions starting from the most prioritized
      non-empty interval, spilling into the next priorities as intervals
      drain; deletes left over when everything is empty are ⊥ answers.

    The resulting per-entry interval collections are then decomposed over
    the aggregation tree against the memorized sub-batches. *)

module Interval = Dpq_util.Interval

type t
(** The anchor's mutable [first_p]/[last_p] state. *)

val create : num_prios:int -> t
val num_prios : t -> int

val occupied : t -> prio:int -> int
(** Elements of priority [prio] currently in the heap. *)

val total_occupied : t -> int
(** Heap size as the anchor sees it. *)

val first : t -> prio:int -> int
val last : t -> prio:int -> int

(** Positions handed to one batch entry. *)
type entry_assign = {
  ins : Interval.t array;  (** per priority: fresh positions for inserts *)
  dels : (int * Interval.t) list;
      (** positions to delete as (priority, interval), in draw order:
          ascending priority, ascending position *)
  bot : int;  (** deletes answered ⊥ because the heap ran dry *)
}

type assignment = entry_assign list

val assign : t -> Batch.t -> assignment
(** Process a combined batch at the anchor, mutating the interval state.
    Raises [Invalid_argument] if the batch priority universe mismatches. *)

val split : num_prios:int -> assignment -> parts:Batch.t list -> assignment list
(** Decompose an assignment among sub-batches (own batch first, then child
    aggregates — the same order {!Dpq_aggtree.Phase.memo_parts} uses):
    part [k] receives, per entry and per priority, the next
    [i_{j,p}^{(k)}] insert positions, the next [d_j^{(k)}] delete positions
    (and the trailing ⊥s once positions run out). *)

val assignment_bits : assignment -> int
(** Wire size of an assignment message (interval endpoints). *)

