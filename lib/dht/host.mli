(** The node population a DHT-backed heap runs on, shared by Skeap and
    Seap: the overlay's aggregation tree with its message layer
    ({!Dpq_aggtree.Phase.net}), the DHT, the {!Dpq_types.Clients} buffers
    and the optional gossip estimator, together with the two protocols'
    common membership skeleton.

    Kills (from the fault plan) commit at iteration boundaries, the only
    quiescent points, so no in-flight traffic references the dead node;
    joins and leaves happen between iterations as well.  Each skeleton
    takes the protocol's own resynchronization as [step], run right after
    the topology changed (Skeap recomputes its traversal ranks, Seap
    resynchronizes its element count). *)

type t = {
  name : string;  (** ["Skeap"] or ["Seap"]; prefixes error messages *)
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  dht : Dht.t;
  clients : Dpq_types.Clients.t;
  gossip : Dpq_gossip.Gossip.t option;
  mutable net : Dpq_aggtree.Phase.net;
      (** the tree of [Dht.ldb dht] and its message layer, rebuilt with the
          tree on every kill, join and leave *)
}

val tree : t -> Dpq_aggtree.Aggtree.t

val create :
  name:string ->
  ?max_prio:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?gossip:Dpq_gossip.Gossip.config ->
  seed:int ->
  replication:int ->
  n:int ->
  unit ->
  t
(** [n] nodes on an LDB built from [seed]; [max_prio] bounds the clients'
    priorities (see {!Dpq_types.Clients.create}). *)

val load_estimate : t -> float option
(** The gossip estimate at the anchor (the aggregation tree root's owner),
    if gossip is on and has run. *)

val run_dht :
  t -> dht_mode:Dpq_types.Types.dht_mode -> Dht.op list -> Dht.completion list * Dpq_aggtree.Phase.report
(** One DHT batch, synchronous or asynchronous; the asynchronous model
    reports no cost (empty report). *)

val exchange_gossip : t -> Dpq_aggtree.Phase.report
(** One push-sum exchange among the live nodes at the iteration boundary;
    the empty report when gossip is off. *)

val commit_kills : t -> bool
(** Commit the fault plan's due kills: the host drops the node's buffered
    operations, destroys its replica copies, re-homes its key range and
    runs anti-entropy repair; only then is the plan told the kill
    happened.  Returns whether the topology changed, in which case the
    caller redoes what it derives from it.  Raises [Invalid_argument] if
    the plan names a node id the heap does not have. *)

val add_node : t -> step:(unit -> unit) -> Dpq_types.Types.churn_cost
val remove_last_node : t -> step:(unit -> unit) -> Dpq_types.Types.churn_cost
(** Same contract as {!Dpq_skeap.Skeap.add_node} / [remove_last_node]. *)
