(** Unified front door to the distributed priority queues.

    Pick a backend, buffer operations at nodes, call {!process} to run one
    protocol iteration, and (optionally) {!verify} the accumulated run
    against the paper's semantics.  All four implementations — the two
    paper protocols and the two baselines they are measured against — sit
    behind the same API, so experiment drivers and tests are written once.
    The client calls ({!n}, {!live}, {!insert}, {!delete_min},
    {!pending_ops}, {!oplog}, {!take_oplog}) go straight to the backend's
    {!Dpq_types.Clients} and are documented there.
    For anything protocol-specific (phase reports, KSelect diagnostics,
    batch internals) drop down to {!Dpq_skeap.Skeap} / {!Dpq_seap.Seap} /
    {!Dpq_baselines.Centralized} / {!Dpq_baselines.Unbatched} directly.

    {[
      let trace = Dpq_obs.Trace.create () in
      let h = Dpq.Dpq_heap.create ~trace ~n:16 (Skeap { num_prios = 4 }) in
      ignore (Dpq.Dpq_heap.insert h ~node:3 ~prio:2);
      Dpq.Dpq_heap.delete_min h ~node:7;
      let r = Dpq.Dpq_heap.process h in
      assert (Dpq.Dpq_heap.verify h = Ok ());
      Dpq_obs.Trace.to_file trace "run.trace.jsonl"
    ]} *)

module Element = Dpq_util.Element

(** Which implementation realizes the heap (= {!Dpq_types.Types.backend}).

    - [Skeap]: constant priority universe [{1..num_prios}], sequential
      consistency (paper §3);
    - [Seap]: arbitrary positive priorities, serializability, O(log n)-bit
      messages (paper §5);
    - [Centralized]: every operation routed to a fixed coordinator — the
      scalability baseline (experiment T6);
    - [Unbatched]: Skeap's architecture without batch combining — the
      ablation of the paper's key mechanism. *)
type backend = Dpq_types.Types.backend =
  | Skeap of { num_prios : int }
  | Seap
  | Centralized
  | Unbatched of { num_prios : int }

val backend_name : backend -> string
(** ["skeap"], ["seap"], ["centralized"], ["unbatched"]. *)

val pp_backend : Format.formatter -> backend -> unit

(** How the DHT rendezvous phase is delivered (= {!Dpq_types.Types.dht_mode});
    only meaningful for [Skeap] and [Seap].  {!process} raises
    [Invalid_argument] when [Dht_async] is requested on a baseline. *)
type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type t

val create :
  ?seed:int ->
  ?replication:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?gossip:Dpq_gossip.Gossip.config ->
  n:int ->
  backend ->
  t
(** With [trace], every {!process} (and membership change) records
    structured events — spans per protocol phase, one event per message
    delivery — into the given sink; see {!Dpq_obs.Trace}.  With [faults],
    every simulation engine the backend spawns runs over that faulty
    network with reliable ack/retransmit delivery
    ({!Dpq_simrt.Fault_plan} / {!Dpq_simrt.Reliable}): messages are
    dropped, duplicated, delayed, or lost to crash windows, yet {!process}
    completes with unchanged semantics and {!verify} still passes — only
    the costs grow.  With [sched], every engine runs under that adversarial
    delivery scheduler ({!Dpq_simrt.Sched}) — the exploration harness's
    lever for hunting semantics-breaking interleavings.  [replication] is
    the DHT replica degree [k] (default 1 = off; Skeap/Seap only, the
    baselines raise [Invalid_argument] when [> 1]): with [k > 1] the heap
    survives permanent node kills ([kill=NODE\@TICK] in the fault plan) of
    up to [k - 1] replicas of any key with unchanged semantics — lost
    copies are rebuilt by Merkle anti-entropy repair at the next iteration
    boundary.  With [gossip] (Skeap/Seap only; the baselines raise
    [Invalid_argument]), every {!process} ends with a push-sum
    load-estimation exchange ({!Dpq_gossip.Gossip}) feeding
    {!load_estimate}; omitting it keeps behavior and costs bit-identical
    to the pre-gossip protocol. *)

val backend : t -> backend
val trace : t -> Dpq_obs.Trace.t option
val faults : t -> Dpq_simrt.Fault_plan.t option
val sched : t -> Dpq_simrt.Sched.t option
val n : t -> int

val replication : t -> int
(** The DHT replica degree [k] (1 on the baselines). *)

val live : t -> node:int -> bool
(** A workload driver consults this before injecting (kills commit at
    iteration boundaries). *)

val insert : t -> node:int -> prio:int -> Element.t
val delete_min : t -> node:int -> unit
val pending_ops : t -> int
val heap_size : t -> int

val load_estimate : t -> float option
(** The anchor node's gossip estimate Λ̂ (injected ops per node per
    processed batch), or [None] when gossip is off, no exchange has run
    yet, or the backend has no estimator (baselines). *)

type outcome = [ `Inserted of Element.t | `Got of Element.t | `Empty ]

type completion = Dpq_types.Types.completion = {
  node : int;
  local_seq : int;
  outcome : outcome;
}

type result = {
  completions : completion list;  (** sorted by (node, local_seq) *)
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  hotspot_load : int;
      (** messages handled by the busiest node, summed over the iteration's
          phases — the serialization bottleneck a unit-bandwidth node sees *)
}

val process : ?dht_mode:dht_mode -> t -> result
(** One protocol iteration over everything buffered. *)

val drain : ?dht_mode:dht_mode -> t -> result list
(** Iterations until nothing is pending. *)

type churn_cost = Dpq_types.Types.churn_cost = {
  join_messages : int;
  moved_elements : int;
}

val add_node : t -> churn_cost
(** Join a node (new id = old n) between iterations; O(log n) overlay
    messages w.h.p., ~m/n stored elements move (paper Contribution 4).
    Raises [Invalid_argument] on the baselines, which model a static
    network. *)

val remove_last_node : t -> churn_cost
(** Remove node [n-1]; same contract as {!add_node}. *)

val verify : t -> (unit, string) Stdlib.result
(** Check the whole run so far against {!contract} for the heap's backend
    and scheduler (both contracts imply heap consistency). *)

val oplog : t -> Dpq_semantics.Oplog.t

val take_oplog : t -> Dpq_semantics.Oplog.record list
(** {!Dpq_types.Clients.S.take_log}.  Mixing {!take_oplog} with end-of-run
    {!oplog}/{!verify} sees only the un-drained suffix. *)

val contract : sched:Dpq_simrt.Sched.policy -> backend -> Dpq_semantics.Checker.Online.contract
(** The contract a run of [backend] under scheduler policy [sched] is held
    to: sequential consistency for Skeap and serializability for Seap,
    always; sequential consistency for the baselines under [Fifo], and
    serializability under any perturbing policy, since they keep local
    consistency only with FIFO delivery.  {!verify}, {!online_checker} and
    the exploration harness all use it. *)

val online_checker : t -> Dpq_semantics.Checker.Online.t
(** Fresh online checker for the contract {!verify} holds this backend
    to. *)

val stored_per_node : t -> int array
(** Element count per node: DHT balance for Skeap/Seap/Unbatched, all-at-
    coordinator for Centralized. *)
