(** The anchor's position bookkeeping (Skeap Phase 2, §3.2.2) and the
    columns its interval decomposition runs on (Phase 3, §3.2.3).

    For every priority [p] the anchor keeps [first_p] and [last_p] with the
    invariant [first_p <= last_p + 1]; the interval [\[first_p, last_p\]] is
    the set of positions currently occupied by priority-[p] elements.
    Processing a combined batch entry [(i_j, d_j)]:

    - each priority's [i_{j,p}] inserts receive the fresh positions
      [\[last_p + 1, last_p + i_{j,p}\]];
    - the [d_j] deletes draw positions starting from the most prioritized
      non-empty interval, spilling into the next priorities as intervals
      drain; deletes left over when everything is empty are ⊥ answers.

    Phase 3 hands these positions out by counts alone, so it runs as one
    {!Dpq_aggtree.Phase.positions} pass over the memorized sub-batches.
    Its {!columns} are the combined batch's nonzero counts: one per
    (entry, priority) insert count, whose positions start at the entry's
    interval [lo], and one per entry's delete count, whose positions are
    offsets into the entry's draws (concatenated in draw order), past
    which a delete is answered ⊥.  A part's piece of a column is
    [\[s, s + size - 1\]] from its start [s]. *)

module Interval = Dpq_util.Interval

type t
(** The anchor's mutable [first_p]/[last_p] state. *)

val create : num_prios:int -> t

val total_occupied : t -> int
(** Heap size as the anchor sees it. *)

val first : t -> prio:int -> int
val last : t -> prio:int -> int

(** Positions handed to one batch entry. *)
type entry_assign = {
  ins : Interval.t array;  (** per priority: fresh positions for inserts *)
  dels : (int * Interval.t) list;
      (** positions to delete as (priority, interval), in draw order:
          ascending priority, ascending position; never empty *)
  bot : int;  (** deletes answered ⊥ because the heap ran dry *)
}

type assignment = entry_assign list

val assign : t -> Batch.t -> assignment
(** Process a combined batch at the anchor, mutating the interval state.
    Raises [Invalid_argument] if the batch priority universe mismatches. *)

(** {2 Phase 3 columns} *)

type columns

val columns : assignment -> Batch.t -> columns
(** The columns of the combined batch the anchor just assigned. *)

val firsts : columns -> int array
(** Per column, the first position (an insert interval's [lo]; 0 for a
    delete column). *)

val size : columns -> Batch.t -> int -> int
(** [size c b j]: column [j]'s count in sub-batch [b]. *)

val bits : columns -> int -> int -> int -> int
(** [bits c j start size]: the wire cost of column [j]'s piece from
    [start], what its interval payload costs: for inserts 2 bits if empty,
    else [Bitsize.interval_bits]; for deletes [8 + interval_bits] per draw
    it covers plus [bits_of_int] of its ⊥ count. *)

val empty_bits : columns -> int
(** What every message pays for the zero counts that have no column: 2
    bits per empty insert interval, [bits_of_int 0] per entry without
    deletes. *)

val column : columns -> entry:int -> prio:int -> int
(** The column of entry [entry]'s priority-[prio] inserts, or with
    [prio = 0] of its deletes (the {!Batch.of_ops} convention); -1 if the
    combined batch has none. *)

val draw : columns -> entry:int -> int -> int
(** [draw c ~entry off]: the draw holding entry [entry]'s delete offset
    [off], or -1 if [off] is past the entry's draws (a ⊥ answer). *)

val draw_prio : columns -> int -> int
val draw_pos : columns -> int -> int -> int
(** A draw's priority, and [draw_pos c d off] the position of offset [off]
    in draw [d]. *)
