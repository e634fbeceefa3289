(** Seeded, deterministic fault injection for the simulation engines.

    A fault plan is consulted by both engines on every non-local
    transmission and delivery.  It can

    - {b drop} a transmission (probabilistic, per copy put on the wire),
    - {b duplicate} a transmission (the copy is re-enqueued once),
    - {b spike} a delivery delay (asynchronous engine only: the sampled
      delay is multiplied by [delay_factor]),
    - keep whole nodes {b down} during scheduled crash windows: every
      delivery to a down node is lost ("stall-and-recover" — the node's
      state survives, it just stops receiving until the window closes),
    - {b kill} nodes permanently: once the host commits a scheduled kill
      the node's stored state is destroyed and it never comes back.  The
      plan only schedules kills; destroying state and re-homing the dead
      node's key-range is the host's job (see {!Dpq_dht.Dht.kill_node}),
      which is why kills go through an explicit
      {!pending_kills}/{!commit_kill} handshake instead of firing on
      {!tick}.

    All randomness derives from the plan's seed and the {e identity} of the
    decision — the channel [(src, dst)] plus a per-channel event counter —
    never from a shared sequential stream.  A faulty run is therefore not
    just reproducible but order-robust: the k-th transmission on a channel
    draws the same fate regardless of how deliveries on other channels
    interleave with it, so engine-internal reorderings (delivery-loop
    optimisations) cannot silently reshuffle every subsequent
    fault decision.  The plan keeps a global {e tick} clock advanced
    by the engines (one tick per synchronous round / per asynchronous
    delivery) — crash windows and kills are expressed in ticks and
    therefore span engine instances: a window can begin in one protocol
    phase and end in a later one.

    The plan also owns the {!stats} counters the reliable-delivery layer
    ({!Reliable}) and the engines increment, so one record aggregates the
    whole run's fault activity across all phases; the trace's
    [Fault_injected] / [Retransmit] / [Node_crashed] event tallies match
    these counters exactly. *)

type crash_window = { node : int; from_tick : int; until_tick : int }
(** Node [node] is down for ticks [t] with [from_tick <= t < until_tick]. *)

type kill = { node : int; at_tick : int }
(** Node [node] dies permanently at the first commit point at or after
    tick [at_tick]; its stored state is destroyed. *)

type stats = {
  mutable drops : int;  (** transmissions lost to the drop probability *)
  mutable duplicates : int;  (** transmissions enqueued twice *)
  mutable delay_spikes : int;  (** deliveries with a multiplied delay *)
  mutable crash_drops : int;  (** deliveries lost because the receiver was down *)
  mutable retransmits : int;  (** reliable-layer re-sends *)
  mutable acks_sent : int;  (** reliable-layer acknowledgements *)
  mutable dups_suppressed : int;  (** duplicate data deliveries discarded *)
  mutable dead_letters : int;
      (** reliable-layer sends abandoned because the peer was killed *)
}

type t

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_spike:float ->
  ?delay_factor:float ->
  ?crashes:crash_window list ->
  ?kills:kill list ->
  seed:int ->
  unit ->
  t
(** All probabilities default to 0 (and must lie in [0,1]; NaN is
    rejected); [delay_factor] defaults to 8 and must be finite and >= 1.  Raises
    [Invalid_argument] on malformed windows ([until_tick <= from_tick]),
    negative kill nodes/ticks, or a node killed twice. *)

val of_string : seed:int -> string -> t
(** Parse a plan spec: comma-separated [key=value] items with keys
    [drop=P], [dup=P], [spike=PxF] (or [spike=P] with the default factor),
    repeatable [crash=NODE\@FROM-UNTIL] (stall-and-recover window) and
    repeatable [kill=NODE\@TICK] (permanent loss).  Example:
    ["drop=0.2,dup=0.05,crash=3\@100-200,kill=1\@50"].  Raises
    [Invalid_argument] with a message naming the offending item on
    malformed input. *)

val to_string : t -> string
(** Canonical spec string: fields in a fixed order, defaults omitted,
    floats printed so they read back exactly.  [of_string (to_string t)]
    rebuilds an equivalent plan (same knobs; RNG state is not captured). *)

val stats : t -> stats
(** The live counter record (shared, mutable). *)

val total_injected : t -> int
(** drops + duplicates + delay spikes + crash drops + dead letters — the
    number of [Fault_injected] trace events a traced run emits. *)

val tick : t -> Dpq_obs.Trace.t option -> unit
(** Advance the global fault clock; emits edge-triggered [Node_crashed]
    ["down"]/["up"] events for windows entered/left. *)

(** {2 Plan introspection} — the knobs [create] was given, for canonical
    printing and round-trip tests. *)

val drop : t -> float
val duplicate : t -> float
val delay_spike : t -> float
val delay_factor : t -> float
val crash_windows : t -> crash_window list
val kills : t -> kill list

val is_down : t -> node:int -> bool
(** Is [node] inside a crash window at the current tick, or killed? *)

val is_killed : t -> node:int -> bool
(** Has the host committed a kill of [node]? *)

val killed_count : t -> int
(** How many kills the host has committed so far.  It only grows, so a
    change tells {!Reliable} that a reap may find something. *)

val pending_kills : t -> int list
(** Scheduled kills whose tick has arrived ([at_tick] <= the current
    {!tick}) but
    which the host has not yet committed, in plan order.  The host calls
    {!commit_kill} after destroying the node's state. *)

val commit_kill : t -> Dpq_obs.Trace.t option -> node:int -> unit
(** Mark a scheduled kill as executed: the node is now permanently down
    ({!is_killed}) and a [Node_crashed] event of kind ["killed"] is
    emitted.  Raises [Invalid_argument] if [node] has no scheduled kill;
    idempotent once committed. *)

val transmit_copies : t -> Dpq_obs.Trace.t option -> src:int -> dst:int -> int
(** Consult the plan for one transmission: 0 (dropped), 1, or 2
    (duplicated).  Counts and traces the injected fault, if any. *)

val delay_multiplier : t -> Dpq_obs.Trace.t option -> src:int -> dst:int -> float
(** 1.0, or [delay_factor] with probability [delay_spike] (counted and
    traced as kind ["delay"]). *)

val note_crash_drop : t -> Dpq_obs.Trace.t option -> src:int -> dst:int -> unit
(** Record a delivery lost to a down receiver (counted and traced as kind
    ["crash_drop"]). *)

val note_dead_letter : t -> Dpq_obs.Trace.t option -> src:int -> dst:int -> unit
(** Record a reliable-layer send abandoned because the peer was killed
    (counted and traced as kind ["dead_letter"]). *)

val note_retransmit : t -> unit
val note_ack : t -> unit
val note_dup_suppressed : t -> unit

