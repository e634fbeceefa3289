(** Message-level aggregation phases over the aggregation tree.

    An {e aggregation phase} (paper §2.2) moves values from the leaves to the
    anchor, combining along the way; a {e decomposition phase} (Skeap Phase 3,
    §3.2.3) moves a value from the anchor down, splitting it at every node
    with respect to the sub-aggregates memorized on the way up.

    Each phase runs on a fresh synchronous engine ({!Dpq_simrt.Sync_engine})
    to completion; the returned {!report} carries the paper's three cost
    measures.  Protocol drivers sequence phases and sum the reports — the
    anchor-initiated "start next phase" broadcast is charged explicitly by
    the drivers via {!broadcast}. *)

type report = {
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  local_deliveries : int;
  busiest_node_load : int;
      (** total messages handled by the single busiest node.  When reports
          are summed across phases the per-phase maxima add up, making this
          an upper bound on any one node's total work — the quantity a
          unit-bandwidth node serializes on. *)
}

val empty_report : report

val add_report : report -> report -> report
(** Sequential composition: rounds/messages/bits add, congestion and
    max-message-size take the max. *)

val report_of_metrics : Dpq_simrt.Metrics.t -> int -> report
(** [report_of_metrics m rounds]: the report of one engine run that took
    [rounds] rounds and recorded [m]. *)

val trace_phase_end : Dpq_obs.Trace.t option -> Dpq_obs.Trace.span -> string -> report -> unit
(** [trace_phase_end trace span name r] closes [span] with exactly [r]'s
    numbers — the equality the trace-vs-report cross-check relies on. *)

type 'a memo
(** What every virtual node memorizes during an up pass: its own
    contribution and each child's sub-aggregate, in combine order
    (own first, then children in label order). *)

val memo_parts : 'a memo -> Dpq_overlay.Ldb.vnode -> 'a list
(** The ordered parts at a vnode (own value first). *)

val up :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  tree:Aggtree.t ->
  local:(Dpq_overlay.Ldb.vnode -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  size_bits:('a -> int) ->
  unit ->
  'a * 'a memo * report
(** Run one aggregation phase; returns the combined value at the anchor.
    With [trace], the phase opens an ["up"] span, traces every delivery,
    and closes the span with exactly the returned report's numbers (same
    for {!down} / {!broadcast} with spans ["down"] / ["broadcast"]).  With
    [faults], the phase's engine runs over the faulty network with reliable
    delivery (same for {!down} / {!broadcast}). *)

val down :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  tree:Aggtree.t ->
  memo:'a memo ->
  root_payload:'b ->
  split:(parts:'a list -> 'b -> 'b list) ->
  size_bits:('b -> int) ->
  unit ->
  'b option array * report
(** Run one decomposition phase.  At a vnode with memorized [parts]
    (length [1 + #children]), [split ~parts payload] must return one payload
    per part: the first is retained at the vnode, the rest are forwarded to
    the children in order.  The result array maps each vnode to its
    retained payload ([None] if the phase never produced one).
    Raises [Failure] if [split] returns the wrong arity. *)

val broadcast :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  tree:Aggtree.t ->
  payload:'b ->
  size_bits:('b -> int) ->
  unit ->
  report
(** Flood one value from the anchor to every virtual node: the phase-change
    announcement of the protocol drivers. *)

val header_bits : Aggtree.t -> int
(** Wire overhead charged per tree message (source and destination virtual
    node ids). *)
