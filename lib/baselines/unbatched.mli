(** Unbatched Skeap — the ablation of the paper's key mechanism.

    Identical architecture to Skeap (aggregation tree, anchor assigns
    [(priority, position)] pairs, DHT rendezvous), except that operations
    climb the tree {e individually} instead of being combined into batches.
    The anchor still serializes correctly, but every single operation is a
    separate message through the root's neighborhood: the root congestion
    grows linearly with the number of operations in flight, which is exactly
    what batch combining avoids (experiment T6). *)

module Element = Dpq_util.Element

type t

val create :
  ?seed:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  n:int ->
  num_prios:int ->
  unit ->
  t
(** With [trace], each {!process} opens an ["unbatched"] span for the
    climb/assign traffic (closed before the DHT batch's own ["dht"] span)
    and traces every delivery. *)

include Dpq_types.Clients.S with type t := t
(** Priorities lie in [[1, num_prios]]. *)

val clients : t -> Dpq_types.Clients.t
(** The client side itself, which {!Dpq.Dpq_heap} calls directly. *)

val heap_size : t -> int

val stored_per_node : t -> int array
(** Elements stored per node in the DHT (Lemma 2.2(iv) balance). *)

type result = {
  completions : completion list;
  report : Dpq_aggtree.Phase.report;
  anchor_load : int;  (** messages the anchor's owner handled *)
}

val process : t -> result
