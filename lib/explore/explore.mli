(** Schedule exploration: seeded interleaving sweeps, semantics-checked
    replay, and failing-schedule shrinking.

    The paper's guarantees are adversarial over all message interleavings
    (§1.1), so testing one delivery order proves little.  This harness
    makes interleavings a first-class, replayable input:

    - a {!config} pins everything a run depends on — master seed, backend,
      engine, scheduler policy ({!Dpq_simrt.Sched}), fault-plan spec and
      workload — and {!run} executes it deterministically, piping the
      resulting oplog through the backend-appropriate semantics checker;
    - {!sweep} fans a seed list out over a (backend × engine × faults ×
      scheduler) grid and collects every violation with full provenance
      ({!Dpq_semantics.Checker.violation});
    - {!shrink} greedily minimizes a failing config while preserving the
      violated clause;
    - repro files ({!write_repro} / {!replay}) serialize a config plus the
      expected digest and clause, so [dpq_sim --replay FILE] re-executes
      the exact failing schedule bit-for-bit.

    Randomness discipline: the workload, fault and delay draws come from
    independent named RNG streams of the master seed
    ({!Dpq_util.Rng.named}), so shrinking one axis never reshuffles
    another. *)

(** How protocol message batches are delivered. *)
type engine =
  | Sync  (** round-based {!Dpq_simrt.Sync_engine} everywhere *)
  | Async of Dpq_simrt.Async_engine.delay_policy
      (** DHT batches on the {!Dpq_simrt.Async_engine} with this delay
          policy (tree phases remain synchronous, as in the paper) *)

type config = {
  seed : int;  (** master seed; all streams derive from it *)
  backend : Dpq_types.Types.backend;
  n : int;  (** node count *)
  replication : int;  (** DHT replica degree (1 = off; Skeap/Seap only) *)
  engine : engine;
  sched : Dpq_simrt.Sched.policy;
  faults : string option;  (** {!Dpq_simrt.Fault_plan.of_string} spec *)
  corrupt : Corrupt.t option;  (** planted post-hoc oplog corruption (tests) *)
  adaptive : Dpq_gossip.Batch_ctl.spec;
      (** [On _] runs the config open-loop through
          {!Dpq_workloads.Runner.run_open} with the gossip-fed adaptive
          batch controller; requires a generator-spec workload ([gen])
          and a gossip-capable backend (Skeap/Seap).  The collected oplog
          is checked and digested exactly like a closed run. *)
  workload : Dpq_workloads.Workload.t;
  gen : Dpq_workloads.Workload.Gen.spec option;
      (** provenance: when the workload is a generator spec's
          materialization, repro files store the one-line [gen:] spec
          instead of the round dump.  Cleared by workload shrinking. *)
}

type outcome = {
  digest : string;  (** {!Run_digest.of_run} of the execution *)
  violation : Dpq_semantics.Checker.violation option;  (** [None] = all checks passed *)
  ops : int;  (** operations logged *)
}

val run : config -> outcome
(** Execute one config to completion and check it.  Deterministic: equal
    configs produce equal outcomes (including the digest).  Raises
    [Invalid_argument] for a baseline backend with an [Async] engine.

    The run is checked against {!Dpq.Dpq_heap.contract} for its backend
    and scheduler policy, the contract {!Dpq_workloads.Runner}'s online
    checker uses too: under a perturbing scheduler the baselines are held
    to serializability, since reordering a node's in-flight requests to the
    coordinator legitimately breaks their per-node order. *)

(** {2 Sweeps} *)

type combo = {
  backend : Dpq_types.Types.backend;
  engine : engine;
  faults : string option;
  replication : int;
  adaptive : Dpq_gossip.Batch_ctl.spec;
  n_override : int option;
      (** When [Some n], {!config_of_combo} uses [n] for this combo
          regardless of its [?n] argument — lets the default grid carry
          large-n cells next to the small fault grids. *)
}

val default_combos : combo list
(** {Skeap, Seap, Centralized, Unbatched} × {sync, async} × {no faults,
    drop+dup}, minus the invalid baseline×async cells (12 combos), plus
    replicated permanent-loss cells: {Skeap, Seap} × sync × {kill,
    drop+dup+kill} at replication 3 (4 more), plus adaptive open-loop
    cells: {Skeap, Seap} × sync × {no faults, drop+dup} under a burst
    arrival with the default {!Dpq_gossip.Batch_ctl} controller (4
    more), plus fault-free large-n Seap cells at n = 128 and n = 256
    exercising the aggregated KSelect routing path (2 more). *)

val default_policies : Dpq_simrt.Sched.policy list
(** Fifo, a shuffle with starvation, crossing pairs, and a channel bias
    onto node 0. *)

val gen_spec :
  seed:int ->
  n:int ->
  rounds:int ->
  lambda:int ->
  Dpq_types.Types.backend ->
  Dpq_workloads.Workload.Gen.spec
(** The sweep's workload as a serializable generator spec: drawn from the
    seed's ["workload"] stream, priorities matched to the backend (constant
    set for Skeap/Unbatched, wide range for Seap/Centralized). *)

val gen_workload :
  seed:int -> n:int -> rounds:int -> lambda:int -> Dpq_types.Types.backend -> Dpq_workloads.Workload.t
(** [Workload.of_gen] of {!gen_spec}. *)

val config_of_combo :
  ?n:int ->
  ?rounds:int ->
  ?lambda:int ->
  seed:int ->
  policy:Dpq_simrt.Sched.policy ->
  combo ->
  config
(** Defaults: [n = 6], [rounds = 2], [lambda = 2].  A
    combo's [n_override] beats the [?n] argument. *)

type failure = { config : config; violation : Dpq_semantics.Checker.violation }

type sweep_result = {
  runs : int;
  failures : failure list;
  digest : string;
      (** MD5 over every run's (digest, verdict, ops) in sweep order: one
          line that pins the whole sweep's observable behaviour. *)
}

val sweep :
  ?n:int ->
  ?rounds:int ->
  ?lambda:int ->
  ?combos:combo list ->
  ?policies:Dpq_simrt.Sched.policy list ->
  seeds:int list ->
  unit ->
  sweep_result
(** One run per seed: seed [i] of the list exercises combo [i mod #combos]
    and policy [(i / #combos) mod #policies], so a long enough seed list
    covers the whole grid.  Every violation is returned with its config for
    shrinking.  Raises [Invalid_argument] on an empty combo or policy
    list. *)

(** {2 Shrinking} *)

val shrink : ?max_attempts:int -> config -> Dpq_semantics.Checker.clause -> config
(** [shrink cfg clause] greedily minimizes [cfg] — axis simplifications
    (scheduler → Fifo, faults → none) first, then
    {!Dpq_workloads.Workload.shrink_candidates} — re-running each candidate
    and keeping it only if the same clause is still violated.  Stops at a
    local minimum or after [max_attempts] (default 400) candidate runs.
    Raises [Invalid_argument] if [cfg] does not exhibit the violation in
    the first place.  A candidate whose run raises is rejected, never
    adopted. *)

(** {2 Repro files}

    Self-contained text files: header lines ([seed] / [backend] / [nodes] /
    [engine] / [sched] / [faults] / [corrupt] / [adaptive] /
    [expect-clause] / [expect-digest]) followed by a [workload] section —
    either one round per line ({!Dpq_workloads.Workload.round_to_string})
    or a single [gen: <spec>] line
    ({!Dpq_workloads.Workload.Gen.spec_to_string}) that materializes on
    read.  Lines starting with [#] are comments.

    The parser is strict: an unknown or duplicate header key, or a header
    line that isn't ["key value"], is rejected with its line number —
    fields a parser doesn't understand are never silently dropped.
    Optional keys ([replication], [adaptive]) may be absent, which parses
    to the feature's off value, so files written before a feature existed
    still replay.  The [domains] key of files written while a
    domain-parallel engine existed must still be a positive integer, and
    is otherwise ignored: it never affected a digest. *)

type expectation = {
  expect_clause : Dpq_semantics.Checker.clause option;
  expect_digest : string;
}

val repro_to_string : config -> outcome -> string
val repro_of_string : string -> (config * expectation, string) result

val write_repro : path:string -> config -> outcome -> unit

type replay_report = {
  config : config;
  outcome : outcome;
  digest_matches : bool;  (** re-execution digested to [expect-digest] *)
  clause_matches : bool;  (** same violated clause (or both clean) *)
}

val replay : string -> (replay_report, string) result
(** Read a repro file and re-execute it.  [Error] only for unreadable or
    malformed files; check the two [*_matches] flags for the verdict. *)

(** {2 Serialization helpers} *)

val backend_to_string : Dpq_types.Types.backend -> string
(** [skeap:C] / [seap] / [centralized] / [unbatched:C]. *)

val backend_of_string : string -> (Dpq_types.Types.backend, string) result
val engine_to_string : engine -> string
val engine_of_string : string -> (engine, string) result
