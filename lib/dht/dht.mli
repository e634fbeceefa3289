(** Distributed hash table embedded in the LDB (paper Lemma 2.2 (ii)–(iv)).

    Keys are integers; a seeded hash maps each key to a point of [\[0,1)]
    whose cycle predecessor — the {e manager} — stores the associated
    elements.  [Put] routes an element to the manager; [Get] routes a request
    there, removes one element and routes it back to the requester's middle
    virtual node.  Because both sides hash the same key, a matching Put/Get
    pair is guaranteed to meet at the same virtual node (Skeap Phase 4,
    §3.2.4).  A Get that arrives before its Put parks at the manager until
    the Put shows up — the paper's asynchronous rendezvous rule.

    Batches of operations can be executed on the synchronous engine (for
    round/congestion measurements) or on the asynchronous engine (for
    semantics tests under arbitrary message reordering).  Storage persists
    across batches; the engines only carry the in-flight traffic.

    With replication degree [k > 1] every key's entries are kept at [k]
    successor points [h(x) + r/k (mod 1)], [r = 0 .. k-1].  Replica 0 is
    the primary every rendezvous decision is made on (so [k = 1] runs are
    bit-identical to the unreplicated DHT); the primary maintains the
    backup copies with replica-update messages inside each batch.  After a
    permanent node loss ({!kill_node}) the dead node's copies are rebuilt
    on the survivors by Merkle anti-entropy {!repair}. *)

module Element = Dpq_util.Element

type t

val create : ?k:int -> ldb:Dpq_overlay.Ldb.t -> seed:int -> unit -> t
(** [seed] keys the key-to-point hash (independent from the label hash).
    [k] is the replication degree (default 1 = off; must be >= 1). *)

val ldb : t -> Dpq_overlay.Ldb.t

val replication : t -> int
(** The replication degree [k]. *)

val key_point : t -> int -> float
(** Where a key lives in [\[0,1)]. *)

val replica_point : t -> int -> int -> float
(** [replica_point t r key]: where replica [r] of [key] lives;
    [replica_point t 0 key = key_point t key] exactly. *)

val manager_of_key : t -> int -> Dpq_overlay.Ldb.vnode

type op =
  | Put of { origin : int; key : int; elt : Element.t; confirm : bool }
      (** Store [elt] under [key]; if [confirm], a confirmation is routed
          back to [origin] (used by Seap's Insert phase, §5.1). *)
  | Get of { origin : int; key : int }
      (** Remove one element stored under [key] and deliver it to
          [origin]. *)

type completion =
  | Put_confirmed of { origin : int; key : int }
  | Got of { origin : int; key : int; elt : Element.t }

val run_batch_sync :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  t ->
  op list ->
  completion list * Dpq_aggtree.Phase.report
(** Execute all operations concurrently on a synchronous engine, to
    quiescence.  Gets without a matching Put stay parked (see
    {!pending_gets}) and produce no completion.  With [trace], the batch
    opens a ["dht"] span, emits one [Dht_put]/[Dht_get] event per launched
    operation (tagged with the manager node it rendezvouses at), traces
    every delivery, and closes the span with the returned report.  With
    [faults], the batch's engine runs over the faulty network with
    reliable delivery.  With [sched], the adversarial scheduler perturbs
    the batch's delivery order (see {!Dpq_simrt.Sched}). *)

val run_batch_async :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  t ->
  seed:int ->
  ?policy:Dpq_simrt.Async_engine.delay_policy ->
  op list ->
  completion list
(** Same, on the asynchronous engine: messages are delayed and reordered
    arbitrarily; used to check that the rendezvous semantics do not depend
    on delivery order. *)

val set_topology : t -> Dpq_overlay.Ldb.t -> int
(** Switch to a new overlay after a join/leave; returns how many stored
    elements (and parked requests) changed manager — the volume of the
    data handoff the membership change causes. *)

val stored_counts : t -> int array
(** Elements currently stored per real node — the fairness measure of
    Lemma 2.2(iv). *)

val size : t -> int
(** Total stored elements. *)

val pending_gets : t -> int
(** Gets parked waiting for their Put. *)

val stored_elements : t -> Element.t list
(** All stored elements, unordered (testing/diagnostics). *)

val elements_by_node : t -> Element.t list array
(** [elements_by_node t].(v): the elements real node [v] currently stores
    (its virtual nodes' key-space share) — the per-node candidate sets
    KSelect works on.  One pass over the primary store, O(m + n); a dead
    node's slot is [[]].  Each list is in the store's iteration order with
    every key's queue reversed onto it, so a run draws the same KSelect
    samples from it every time. *)

val take_matching_by_node : t -> f:(Element.t -> bool) -> Element.t list array
(** Remove every stored element that satisfies [f] and return them
    bucketed by the real node that stored them: Seap's DeleteMin phase uses
    this to pull the k smallest elements out of their random-key homes
    before re-storing them under position keys (§5.2).  Purely local to
    each node; one pass over the primary store, O(m + n).  Replica copies
    drop the same identities, key by key (free local bookkeeping, like the
    take itself). *)

(** {2 Permanent loss and anti-entropy repair} *)

type repair_stats = {
  sessions : int;  (** reconciliation sessions run (including clean ones) *)
  keys_pulled : int;  (** keys whose content changed at a puller *)
  elements_shipped : int;  (** elements copied to close divergences *)
  repair_messages : int;  (** protocol messages (Merkle sigs + shipments) *)
  repair_bits : int;  (** protocol traffic — the O(δ log m) bound's subject *)
}

type kill_report = { destroyed : int; repair : repair_stats }

val repair : ?trace:Dpq_obs.Trace.t -> t -> repair_stats
(** Reconcile the [k] replica copies to their union with the Merkle
    anti-entropy protocol (modeled on Scalaris's rr_recon): for each
    directed replica pair, per-(owner, owner) sessions exchange compressed
    hash-trie signatures top-down and ship only the entries of differing
    leaf ranges.  Correct because replica divergence is one-sided (copies
    can only miss entries, never hold stale ones).  Runs on a fresh
    synchronous engine (reliable control plane); with [trace] it opens a
    ["repair"] span, emits [Repair_session] events for productive sessions
    and one [Repair_end], so the derived repair metrics in
    {!Dpq_obs.Trace} measure exactly this traffic.  No-op at [k = 1]. *)

val kill_node : ?trace:Dpq_obs.Trace.t -> t -> node:int -> kill_report
(** Permanent node loss: destroy every replica copy stored at [node],
    remove it from the overlay ({!Dpq_overlay.Ldb.remove} — survivors keep
    their ids; the dead range falls to the cycle predecessors) and run
    {!repair} to rebuild the lost copies from the surviving replicas.
    Emits [Repair_start] with the destroyed-entry count.  Must only be
    called between batches (nothing in flight).  Raises
    [Invalid_argument] if [node] is already gone or the last live node. *)

val drop_replica_entries : t -> r:int -> f:(key:int -> bool) -> int
(** Testing hook: silently delete replica [r]'s entries for keys selected
    by [f], returning how many entries were dropped — used to plant a
    divergence of known size δ for the repair-traffic bound experiment. *)
