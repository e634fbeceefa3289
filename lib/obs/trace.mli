(** Structured run tracing for the distributed priority queues.

    A {!t} is an in-memory sink of structured events: protocol phases open
    and close {e spans}, and the engines / protocol drivers emit point
    events (message deliveries, DHT operations, anchor assignments,
    KSelect progress, membership changes) that are attributed to the
    innermost open span.

    Every emitter takes the sink as a [t option] and is a no-op on [None],
    so instrumented code pays nothing when tracing is off — callers thread
    a single optional value through, no conditionals required.

    Invariant kept by the instrumentation: a [Msg_delivered] event is
    emitted exactly when the synchronous engine charges a (non-local)
    delivery to {!Dpq_simrt.Metrics}, and every [Phase_end] carries exactly
    the phase report the protocol driver summed.  Hence for a run whose DHT
    traffic is synchronous, the derived accessors below ({!rounds},
    {!messages}, {!total_bits}, {!max_congestion}, {!max_message_bits})
    reproduce the corresponding fields of the summed
    [Dpq_aggtree.Phase.report].  Asynchronous DHT batches still emit
    delivery events but report zero cost (matching the empty report the
    drivers charge for them).

    Traces are written as JSONL — one flat JSON object per event
    ({!to_file}) — for tools outside the library to read; nothing in the
    library reads them back. *)

type span = int
(** Identifier of a phase span, unique within one trace.  The pseudo-span
    [-1] marks events emitted outside any open span. *)

type event =
  | Phase_start of { span : span; name : string }
  | Phase_end of {
      span : span;
      name : string;
      rounds : int;
      messages : int;
      max_congestion : int;
      max_message_bits : int;
      total_bits : int;
    }  (** Span closed; fields echo the phase's cost report. *)
  | Msg_delivered of { span : span; round : int; src : int; dst : int; bits : int }
      (** One point-to-point delivery ([src <> dst]; free local deliveries
          are not traced, mirroring the cost model).  [round] is relative
          to the span's engine (asynchronous engines use the delivery
          sequence number). *)
  | Anchor_assign of { batch_inserts : int; batch_deletes : int; heap_size : int }
      (** The Skeap anchor processed a combined batch; [heap_size] is the
          occupancy after the assignment. *)
  | Dht_put of { span : span; origin : int; key : int; manager : int }
  | Dht_get of { span : span; origin : int; key : int; manager : int }
  | Kselect_round of { stage : string; iteration : int; candidates : int; messages : int }
      (** KSelect progress: [candidates] still alive after [iteration] of
          ["phase1"] / ["phase2"], or entering ["phase3"]. *)
  | Churn of { kind : string; n : int; join_messages : int; moved_elements : int }
      (** Membership change ["join"] / ["leave"]; [n] is the node count
          after the change. *)
  | Fault_injected of { span : span; kind : string; src : int; dst : int }
      (** The fault layer disturbed one transmission: ["drop"], ["dup"],
          ["delay"] (spike), or ["crash_drop"] (receiver was down). *)
  | Retransmit of { span : span; src : int; dst : int; attempt : int }
      (** The reliable-delivery layer re-sent an unacknowledged message;
          [attempt] counts retries (1 = first retransmission). *)
  | Node_crashed of { node : int; kind : string; at : int }
      (** A crash-window transition: ["down"] / ["up"] at fault-plan tick
          [at]. *)
  | Sched_perturbed of { span : span; kind : string; src : int; dst : int }
      (** An adversarial scheduler ({!Dpq_simrt.Sched}) diverged from FIFO
          delivery for one message: ["defer"] (postponed a round), ["swap"]
          (crossed with its pair), ["bias"] (slow-link delay), or
          ["starve"] (long random delay). *)
  | Repair_start of { span : span; node : int; reason : string; entries_lost : int }
      (** Anti-entropy repair began: [node] was lost (reason ["kill"]) and
          [entries_lost] stored entries were destroyed with it. *)
  | Repair_session of { span : span; src : int; dst : int; keys_pulled : int; elements_shipped : int }
      (** One Merkle reconciliation session completed: [dst] pulled
          [keys_pulled] diverged keys ([elements_shipped] elements) from
          offerer [src]. *)
  | Repair_end of { span : span; sessions : int; keys_pulled : int; elements_shipped : int }
      (** Repair finished; totals over the sessions of this repair pass. *)
  | Gossip_round of { span : span; exchange : int; rounds : int; messages : int; est_milli : int }
      (** One push-sum gossip exchange completed (piggybacked on batch
          delivery, so [rounds] is 0 in the cost model while [messages]
          counts the real wire traffic).  [est_milli] is the anchor node's
          load estimate Λ̂ in milli-ops-per-node-per-batch — traces carry
          only integers, so estimates are fixed-point. *)
  | Window_change of { at_batch : int; window : int; est_milli : int }
      (** The adaptive batch controller adopted a new window after batch
          [at_batch]; [est_milli] is the Λ̂ (milli-ops/node/tick) that drove
          the decision. *)

type t

val create : unit -> t

val events : t -> event list
(** In emission order. *)

val num_events : t -> int

val clear : t -> unit
(** Drop all events and reset the span counter. *)

(** {2 Emitters}

    All no-ops on [None]. *)

val phase_start : t option -> string -> span
(** Open a span (returns [-1] on [None]). *)

val phase_end :
  t option ->
  span:span ->
  name:string ->
  rounds:int ->
  messages:int ->
  max_congestion:int ->
  max_message_bits:int ->
  total_bits:int ->
  unit

(** The one emitter that takes the sink itself, for the engines' delivery
    hot loops: the caller branches on its cached [t option] once, so a
    disabled tracer costs one load-and-branch and no call. *)
val msg_delivered_direct : t -> round:int -> src:int -> dst:int -> bits:int -> unit
val anchor_assign : t option -> batch_inserts:int -> batch_deletes:int -> heap_size:int -> unit
val dht_put : t option -> origin:int -> key:int -> manager:int -> unit
val dht_get : t option -> origin:int -> key:int -> manager:int -> unit
(* [messages] is the cumulative engine message count the KSelect run has
   charged to its report when the event fires — the per-stage deltas give
   the message profile of a single selection. *)
val kselect_round :
  t option -> stage:string -> iteration:int -> candidates:int -> messages:int -> unit
val churn : t option -> kind:string -> n:int -> join_messages:int -> moved_elements:int -> unit
val fault_injected : t option -> kind:string -> src:int -> dst:int -> unit
val retransmit : t option -> src:int -> dst:int -> attempt:int -> unit
val node_crashed : t option -> node:int -> kind:string -> at:int -> unit
val sched_perturbed : t option -> kind:string -> src:int -> dst:int -> unit
val repair_start : t option -> node:int -> reason:string -> entries_lost:int -> unit
val repair_session :
  t option -> src:int -> dst:int -> keys_pulled:int -> elements_shipped:int -> unit
val repair_end : t option -> sessions:int -> keys_pulled:int -> elements_shipped:int -> unit
val gossip_round : t option -> exchange:int -> rounds:int -> messages:int -> est_milli:int -> unit
val window_change : t option -> at_batch:int -> window:int -> est_milli:int -> unit

(** {2 Derived metrics}

    Recomputed from the raw events — deliberately independent of
    {!Dpq_simrt.Metrics} so the two tallies cross-check each other.
    {!pp_summary} prints them; outside it they are test seams, the side
    of that cross-check the tests read. *)

val rounds : t -> int
(** Test seam: sum of [Phase_end] round counts (sequential phase
    composition). *)

val messages : t -> int
(** Test seam: number of [Msg_delivered] events. *)

val total_bits : t -> int
(** Test seam: bits over all [Msg_delivered] events. *)

val max_message_bits : t -> int
(** Test seam: the largest [Msg_delivered] size. *)

val max_congestion : t -> int
(** Test seam: max over (span, round, destination) cells of deliveries
    into the cell — the paper's congestion measure, recomputed from raw
    deliveries. *)

val node_load : t -> int array
(** Test seam: deliveries received per node, indexed by node id (length =
    1 + the largest node id seen; [||] for a message-free trace). *)

val retransmits : t -> int
(** Test seam: number of [Retransmit] events. *)

val repair_messages : t -> int
(** Deliveries inside ["repair"] spans — the message count of the
    anti-entropy protocol (Merkle exchange + shipped entries). *)

val repair_bits : t -> int
(** Bits delivered inside ["repair"] spans — the repair traffic the
    O(δ log m) bound is measured on. *)

val gossip_exchanges : t -> int
(** Number of [Gossip_round] events. *)

val window_changes : t -> (int * int) list
(** [(at_batch, window)] per [Window_change], in trace order — the adaptive
    controller's window trajectory. *)

val pp_summary : Format.formatter -> t -> unit
(** Compact one-paragraph text summary of the whole trace: the derived
    metrics above, the congestion histogram and, on a faulty run, fault
    counts by kind, retransmissions, amplification and crash-recovery
    latencies. *)

val to_file : t -> string -> unit
(** JSONL: one flat JSON object per event, one event per line, emission
    order. *)
