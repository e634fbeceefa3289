(** Deterministic digests of a run's observable behaviour.

    The exploration harness's determinism contract — "same (seed, policy,
    workload) ⇒ same execution" — is checked by digesting what a run did
    and comparing hex strings.  The digest covers the full oplog (every
    operation, witness position and result) plus the schedule-identity
    slice of the trace: message deliveries in order, scheduler
    perturbations, fault injections and retransmissions.  Phase spans and
    cost summaries are excluded, so accounting changes do not break stored
    repro files.

    FNV-1a (64-bit), rendered as 16 lowercase hex digits.  Not
    cryptographic — it only separates schedules. *)

val of_run : oplog:Dpq_semantics.Oplog.t -> trace:Dpq_obs.Trace.t -> string
(** Digest of operations + delivery schedule: the identity of one
    execution. *)

(** {2 Streaming accumulation}

    Large-n runs drain their oplog round by round instead of materializing
    it; the accumulator folds the drained records in as they arrive and
    mixes the trace once at the end.  Feeding the same records in the same
    (witness) order yields exactly {!of_run}. *)

type acc

val start : unit -> acc

val feed_records : acc -> Dpq_semantics.Oplog.record list -> unit
(** Fold in the next drained batch; batches must arrive in witness order
    (as {!Dpq.Dpq_heap.take_oplog} yields them). *)

val finish : ?trace:Dpq_obs.Trace.t -> acc -> string
(** The digest: {!of_run} when [trace] is given, a digest of the
    operations alone otherwise. *)
