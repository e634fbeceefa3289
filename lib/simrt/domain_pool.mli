(** Process heap peak.

    This module once held the worker-domain pool of a domain-parallel sync
    engine (removed; DESIGN.md §9).  Only the heap-peak reader survives,
    under the old name, because the repository benchmark reads it as
    [Domain_pool.peak_heap_words]. *)

val peak_heap_words : unit -> int
(** [Gc.(quick_stat ()).top_heap_words]: the major-heap peak of the
    process so far.  The memory half of bench's regression gate reads
    this. *)
