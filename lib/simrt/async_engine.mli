(** Asynchronous message-passing engine.

    This is the paper's correctness model (§1.1): no bound on message
    propagation delay, non-FIFO delivery, fair receipt (every message is
    eventually delivered).  Used to test that Skeap's sequential consistency
    and Seap's serializability hold regardless of message reordering.

    Each send is assigned a delivery time [now + delay] where [delay] is
    drawn by a pluggable policy; events are processed in delivery-time order,
    so messages can freely outrun one another.

    With a {!Fault_plan} every non-local message rides the ack/retransmit
    reliable layer ({!Reliable}): transmissions can be dropped, duplicated
    or delay-spiked, deliveries to a crashed node are lost, and the sender
    retransmits on a virtual-time timeout with exponential backoff.  When
    the event queue drains with packets still unacknowledged (all copies
    dropped), virtual time jumps to the next retransmission deadline — a
    dead channel fails after the reliable layer's bounded attempts instead
    of hanging. *)

type 'msg t

type delay_policy =
  | Uniform of float * float  (** delay uniform in [lo, hi] *)
  | Exponential of float  (** exponential with the given mean *)
  | Adversarial_lifo
      (** each send is delivered before all currently pending sends — a
          worst-case reordering stress (delay spikes do not apply) *)

val policy_to_string : delay_policy -> string
(** Compact spec form: [uniform:LO,HI], [exp:MEAN], [lifo].  Round-trips
    with {!policy_of_string} (used by the exploration harness's repro
    files). *)

val policy_of_string : string -> (delay_policy, string) result

val create :
  n:int ->
  seed:int ->
  ?policy:delay_policy ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Fault_plan.t ->
  ?sched:Sched.t ->
  size_bits:('msg -> int) ->
  handler:('msg t -> dst:int -> src:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** Default policy is [Uniform (1., 10.)].  With [trace], every non-local
    fresh delivery emits a {!Dpq_obs.Trace.Msg_delivered} event whose
    [round] is the delivery sequence number (the asynchronous model has no
    rounds); duplicate deliveries and acks are not traced.  With [faults],
    messages ride the reliable layer under that plan.  With [sched], the
    scheduler transforms each sampled delivery time (no effect under
    [Adversarial_lifo], whose pseudo-times already encode a worst case). *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Self-sends are delivered immediately (virtual edges), like in
    {!Sync_engine}. *)

val run_to_quiescence : ?max_events:int -> ?stall_events:int -> 'msg t -> int
(** Deliver events until none remain and nothing is unacked; returns the
    number of wire events processed (including dropped and duplicate ones
    under faults).  Raises [Failure] with a diagnostic (event count,
    virtual now, pending/unacked counts, last delivery) beyond [max_events]
    (default 10_000_000), or when the progress watermark — fresh deliveries
    + acks received — does not advance within [stall_events] (default
    200_000) consecutive events: a livelock detector that fails fast with
    context instead of spinning to [max_events]. *)

val now : 'msg t -> float
(** Test seam.  Current virtual time. *)

val unacked : 'msg t -> int
(** Test seam.  Reliable-layer packets sent but not yet acknowledged (0
    without faults). *)
