(** Synchronous round-based message-passing engine.

    This is the paper's performance-analysis model (§1.1): time proceeds in
    rounds; every message sent in round [i] is processed in round [i+1]; every
    node is activated once per round.  All round/congestion/message-size
    measurements in the experiments come from this engine.

    A message sent to the sender's own node id models a "virtual edge"
    between co-located virtual nodes: it is delivered immediately within the
    same activation, costs no round and no congestion, and is tallied
    separately (see {!Metrics.local_deliveries}).

    With a {!Fault_plan} the engine runs every non-local message through the
    ack/retransmit reliable layer ({!Reliable}): transmissions can be
    dropped or duplicated, deliveries to a crashed node are lost, and the
    sender retransmits on a round-count timeout with exponential backoff.
    The protocol handler still observes exactly-once delivery.  Without a
    plan, behavior and costs are identical to the fault-free engine. *)

type 'msg t

val create :
  n:int ->
  size_bits:('msg -> int) ->
  handler:('msg t -> dst:int -> src:int -> 'msg -> unit) ->
  ?activate:('msg t -> int -> unit) ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Fault_plan.t ->
  ?sched:Sched.t ->
  unit ->
  'msg t
(** [create ~n ~size_bits ~handler ()] builds an engine for nodes
    [0..n-1]. [handler] is invoked for every delivered message; [activate]
    (optional) is invoked once per node at the start of every round, before
    deliveries (crashed nodes are skipped).  With [trace], every non-local
    fresh delivery additionally emits a {!Dpq_obs.Trace.Msg_delivered} event
    (free local deliveries, duplicate deliveries and acks are not traced,
    mirroring the cost model).  With [faults], messages ride the reliable
    layer under that plan.  With [sched], the adversarial scheduler permutes
    each round's delivery batch and may defer messages a bounded number of
    rounds ({!Sched.max_defers}); quiescence is still always reached. *)

val n : 'msg t -> int

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message for delivery next round ([dst <> src]) or deliver it
    locally right now ([dst = src]). Raises [Invalid_argument] on an
    out-of-range node id. *)

val step : 'msg t -> unit
(** Execute one round: advance the fault clock, activations, all pending
    deliveries, then retransmissions that came due. *)

val pending : 'msg t -> int
(** Wire packets currently in flight (under faults this counts data packets
    and acks alike). *)

val unacked : 'msg t -> int
(** Reliable-layer packets sent but not yet acknowledged (0 without
    faults). *)

val faults : 'msg t -> Fault_plan.t option

val run_to_quiescence : ?max_rounds:int -> ?stall_rounds:int -> 'msg t -> int
(** Run rounds until no messages are in flight and nothing is unacked;
    returns the number of rounds executed.  Raises [Failure] with a
    diagnostic (round, pending count, unacked count, last delivery) if
    [max_rounds] (default 1_000_000) is exceeded, or if the progress
    watermark — fresh deliveries + acks received — does not advance for
    [stall_rounds] (default 10_000) consecutive rounds: a livelock
    detector that fails fast instead of spinning to [max_rounds]. *)

val round : 'msg t -> int
(** Rounds executed so far. *)

val metrics : 'msg t -> Metrics.t

val reset_clock : 'msg t -> unit
(** Zero the round counter and metrics (in-flight messages must be none and
    nothing unacked); used between protocol phases to measure them
    separately.  Raises [Invalid_argument] if messages are pending. *)
