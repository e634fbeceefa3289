(** Drive a workload through any heap backend and collect one comparable
    summary — the engine behind experiment T6 and the example programs.

    All runs go through the unified {!Dpq.Dpq_heap} facade: one code path,
    four backends, the same cost accounting.  Since the streaming redesign
    the runner is single-pass and O(live elements): rounds are pulled on
    demand, completed records are drained into a
    {!Dpq_semantics.Checker.Online} checker after every processed round, and
    only counters survive — which is what makes n = 4096..65536 with 10⁶+
    operations feasible in one process. *)

type summary = {
  backend : Dpq_types.Types.backend;
  n : int;
  ops : int;
  lost_ops : int;
      (** operations the workload addressed to a permanently killed node —
          never injected (also counted in [ops]) *)
  rounds : int;  (** total synchronous rounds across all processing *)
  messages : int;
  max_congestion : int;
  hotspot_load : int;
      (** upper bound on the total messages any single node handled (summed
          per-phase maxima); for the baselines this dominates the
          coordinator's / anchor owner's total load *)
  max_message_bits : int;
  total_bits : int;
  got : int;  (** deletes answered with an element *)
  empty : int;  (** deletes answered ⊥ *)
  inserted : int;
  semantics_ok : bool;  (** the backend-appropriate online checker passed *)
  violation : Dpq_semantics.Checker.violation option;
      (** the structured verdict behind [semantics_ok]: which clause failed,
          on which operation(s) — [None] iff [semantics_ok] *)
  peak_live : int;
      (** high-water mark of live (inserted, not yet returned) elements:
          the checker state is O(this) *)
  p50_latency : int;
      (** median completion latency in rounds.  Closed loop: the round cost
          of the batch each op completed in.  Open loop ({!run_open}):
          virtual-time ticks from an op's arrival to its batch finishing
          service — queueing delay included. *)
  p99_latency : int;  (** 99th-percentile completion latency (nearest rank) *)
  p999_latency : int;  (** 99.9th-percentile completion latency *)
  makespan : int;
      (** when the last batch finished: total protocol rounds in closed
          loop, the last service completion tick in open loop *)
}

val protocol_name : summary -> string
(** {!Dpq_types.Types.backend_name} of the summary's backend. *)

val run :
  ?seed:int ->
  ?replication:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?dht_mode:Dpq_types.Types.dht_mode ->
  ?sink:(Dpq_semantics.Oplog.record list -> unit) ->
  n:int ->
  Dpq_types.Types.backend ->
  Workload.t ->
  summary
(** Closed-loop run over a materialized workload, one round at a time:
    inject each round, process it, feed the completed records to the
    online checker, accumulate the cost measures.  Raises
    [Invalid_argument] if the workload contains priorities the backend
    rejects (outside [1..num_prios] for [Skeap]/[Unbatched]).  With
    [trace], the entire run records structured events (see
    {!Dpq_obs.Trace}).  With [faults], the whole run executes over the
    faulty network with reliable delivery (see {!Dpq_simrt.Fault_plan}).
    With [sched], every engine runs under the adversarial scheduler (see
    {!Dpq_simrt.Sched}).  [dht_mode] selects synchronous or asynchronous
    DHT delivery per {!Dpq.Dpq_heap.process} (asynchronous raises on the
    baselines).  [replication] is the DHT replica degree (Skeap/Seap only,
    default 1): under a fault plan with [kill=] schedules, operations the
    workload addresses to a dead node are skipped and counted in
    [lost_ops], and with [replication > kills] the online verdict matches
    the fault-free run.  [sink], when given, receives every drained oplog
    batch in witness order, before the online checker sees it — the hook
    digest and replay callers use, as in {!run_open}. *)

val run_gen :
  ?seed:int ->
  ?replication:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?dht_mode:Dpq_types.Types.dht_mode ->
  ?sink:(Dpq_semantics.Oplog.record list -> unit) ->
  n:int ->
  Dpq_types.Types.backend ->
  Workload.Gen.t ->
  summary
(** {!run} over a streaming generator: the workload is never
    materialized.  [summary.ops] counts the operations actually produced. *)

(** {2 Open-loop driving}

    Closed-loop runs process one batch per workload round — offered load
    and service are locked together.  {!run_open} decouples them: each
    generator round is one {e tick} of virtual time, ops buffer at their
    arrival tick, and a batch fires only when a full batch window has
    elapsed since the previous fire (and ops are pending — empty windows
    cost nothing).  Service serializes: a batch fired at tick [t] starts at
    [max t busy_until] and occupies the server for its reported round cost,
    so overload shows up as queueing delay in the latency percentiles. *)

type window =
  | Fixed of int  (** fire every [w] ticks (>= 1) *)
  | Adaptive of Dpq_gossip.Batch_ctl.config
      (** gossip-fed controller picks the window; implies the backend's
          gossip estimator (default config unless [?gossip] overrides) *)

val run_open :
  ?seed:int ->
  ?replication:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?dht_mode:Dpq_types.Types.dht_mode ->
  ?gossip:Dpq_gossip.Gossip.config ->
  ?sink:(Dpq_semantics.Oplog.record list -> unit) ->
  window:window ->
  n:int ->
  Dpq_types.Types.backend ->
  Workload.Gen.t ->
  summary
(** Drive an open-loop arrival stream (a generator whose spec carries a
    non-[Closed] arrival — closed specs also work, their ticks simply all
    carry λ ops/node) against a batch window.  With [Adaptive], every
    processed batch ends with a gossip exchange, the controller refits its
    batch-cost model, and adopted window changes emit [Window_change]
    trace events; everything is seeded-deterministic, so two identical
    adaptive runs produce identical summaries, traces and digests.
    [sink], when given, receives every drained oplog batch (in addition to
    the online checker) — the hook digest/replay callers use.  After the
    arrival stream ends, one final batch drains whatever is still
    buffered. *)

val throughput : summary -> float
(** Completed operations per synchronous round. *)

val open_throughput : summary -> float
(** Injected (non-lost) operations per virtual-time tick of makespan — the
    open-loop throughput measure ({!run_open} only; 0 on an empty run). *)

val effective_throughput : summary -> float
(** Operations per round when each node can also only {e process} one
    message per round: ops / max(rounds, hotspot_load).  This is the
    bandwidth-honest number where hotspots actually hurt. *)
