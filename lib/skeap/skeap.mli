(** Skeap: a sequentially consistent distributed heap for a constant number
    of priorities (paper §3, Theorem 3.2).

    Nodes buffer their [Insert]/[DeleteMin] requests locally.  One call to
    {!process_batch} executes the protocol's four phases at message level:

    + {b Phase 1} — every node snapshots its buffer as a batch
      (Definition 3.1) and the batches are aggregated to the anchor over the
      aggregation tree, each node memorizing its children's sub-batches;
    + {b Phase 2} — the anchor assigns position intervals per priority
      (local computation, {!Anchor});
    + {b Phase 3} — the intervals are decomposed down the tree against the
      memorized sub-batches, giving every operation a unique
      [(priority, position)] pair;
    + {b Phase 4} — every insert issues [Put(h(p,pos), e)] and every delete
      [Get(h(p,pos))] on the DHT; matching pairs rendezvous at the same
      virtual node regardless of message delays.

    The run records an operation log whose witness order is the anchor's
    processing order; {!Dpq_semantics.Checker.check} with the
    [Skeap_contract] verifies sequential consistency (and with it heap
    consistency) on it. *)

module Element = Dpq_util.Element
module Phase = Dpq_aggtree.Phase

type t

val create :
  ?seed:int ->
  ?replication:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?gossip:Dpq_gossip.Gossip.config ->
  n:int ->
  num_prios:int ->
  unit ->
  t
(** A Skeap instance over [n] nodes with priorities [{1..num_prios}].
    Raises [Invalid_argument] if [n < 1] or [num_prios < 1].  With [trace],
    every subsequent {!process_batch} / membership change records
    structured events into the sink (see {!Dpq_obs.Trace}).  With [faults],
    every engine the protocol spawns runs over the faulty network with
    reliable ack/retransmit delivery — semantics are unchanged, costs
    grow.  [replication] is the DHT's replica degree [k] (default 1 = off):
    with [k > 1] every stored element lives at [k] successor points, and
    the heap survives the permanent loss of up to [k - 1] replicas of any
    key with unchanged semantics (kills scheduled in the fault plan commit
    at batch boundaries; see {!Dpq_simrt.Fault_plan} and
    {!Dpq_dht.Dht.kill_node}).  With [gossip], every batch boundary runs
    one push-sum load-estimation exchange ({!Dpq_gossip.Gossip}) whose
    traffic is added to the batch report (zero rounds — it piggybacks on
    batch delivery); without it, behavior and costs are bit-identical to
    before the estimator existed. *)

include Dpq_types.Clients.S with type t := t
(** Priorities lie in [[1, num_prios]]. *)

val clients : t -> Dpq_types.Clients.t
(** The client side itself, which {!Dpq.Dpq_heap} calls directly. *)

val num_prios : t -> int
val tree : t -> Dpq_aggtree.Aggtree.t

val replication : t -> int
(** The DHT replica degree [k]. *)

val heap_size : t -> int
(** Elements logically in the heap (anchor's interval cardinalities). *)

val trace : t -> Dpq_obs.Trace.t option
(** The trace sink passed at {!create}, if any. *)

val load_estimate : t -> float option
(** The anchor node's gossip estimate Λ̂ (injected ops per node per batch),
    or [None] when gossip is off or no exchange has completed yet. *)

(** How Phase 4's DHT traffic is delivered (= {!Dpq_types.Types.dht_mode}). *)
type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync  (** synchronous rounds; gives full cost measurements *)
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }
      (** adversarially delayed/reordered delivery; used to demonstrate
          order-independence of the rendezvous *)

type batch_result = {
  completions : completion list;  (** sorted by (node, local_seq) *)
  report : Phase.report;  (** summed over all four phases *)
  batch : Batch.t;  (** the combined batch the anchor processed *)
  assignment : Anchor.assignment;  (** what the anchor handed out *)
}

val process_batch : ?dht_mode:dht_mode -> t -> batch_result
(** Run one full protocol iteration over everything currently buffered.
    Processing an empty system is a no-op that still reports the (cheap)
    aggregation of empty batches. *)

val drain : ?dht_mode:dht_mode -> t -> batch_result list
(** Process batches until no operations are pending. *)

val stored_per_node : t -> int array
(** DHT elements per node — fairness measure. *)

(** {2 Membership changes (paper Contribution 4)}

    Joins and leaves happen between batches: the overlay is restructured in
    O(log n) messages w.h.p. and the DHT key space redistributes — only the
    elements whose manager changed move, ~m/n per single join/leave in
    expectation.  No heap contents or semantics are lost; the operation log
    keeps verifying across the change. *)

type churn_cost = Dpq_types.Types.churn_cost = {
  join_messages : int;  (** overlay messages to splice the node in/out *)
  moved_elements : int;  (** stored elements whose manager changed *)
}

val add_node : t -> churn_cost
(** The new node gets id [n] (the old node count). *)

val remove_last_node : t -> churn_cost
(** Removes node [n-1].  Raises [Invalid_argument] if it still has buffered
    operations or it is the only node. *)
