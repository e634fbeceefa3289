(** Centralized-coordinator distributed heap — the natural baseline the
    paper's batching is measured against.

    Every node routes each of its buffered operations through the overlay to
    a fixed coordinator (node 0), which executes them one by one on a local
    sequential heap and routes the answers back.  Semantically this is
    perfectly fine (it is sequentially consistent under synchronous
    delivery); the problem is scalability: the coordinator receives {e all}
    traffic, so its congestion grows linearly with the global injection rate
    n·Λ, where Skeap/Seap stay polylogarithmic per node (experiment T6). *)

module Element = Dpq_util.Element

type t

val create :
  ?seed:int ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  n:int ->
  unit ->
  t
(** With [trace], each {!process} opens a ["centralized"] span, traces every
    delivery, and closes the span with the returned report. *)

include Dpq_types.Clients.S with type t := t
(** Priorities only need to be [>= 1]. *)

val clients : t -> Dpq_types.Clients.t
(** The client side itself, which {!Dpq.Dpq_heap} calls directly. *)

val heap_size : t -> int

val trace : t -> Dpq_obs.Trace.t option

val stored_per_node : t -> int array
(** Element count per node: everything sits at the coordinator (node 0) —
    the degenerate storage balance the DHT-based designs avoid. *)

type result = {
  completions : completion list;  (** sorted by (node, local_seq) *)
  report : Dpq_aggtree.Phase.report;
  coordinator_load : int;  (** messages the coordinator handled *)
}

val process : t -> result
(** Execute everything buffered: requests in, sequential processing,
    replies out — all at message level on the synchronous engine.  The
    baseline is honest: its log passes the same checkers. *)
