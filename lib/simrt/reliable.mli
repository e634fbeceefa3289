(** Ack/retransmit reliable delivery over a faulty channel.

    When an engine runs under a {!Fault_plan}, every non-local protocol
    message travels as a data packet carrying a per-(src, dst)-channel
    sequence number.  The receiver acknowledges every data packet it sees
    (fresh or duplicate — re-acking duplicates covers lost acks),
    suppresses duplicates, and buffers out-of-order arrivals until the
    sequence gap closes, so the protocol handler observes exactly-once,
    per-channel-FIFO delivery — a retransmission cannot overtake a later
    send; the sender retransmits unacknowledged packets on a
    timeout-driven schedule with exponential backoff (capped at [max_rto]).
    Each ack carries the sequence number of the data packet it answers; it
    travels over the same faulty channel, can itself be dropped, and is
    never retransmitted directly (the data retransmission draws a fresh
    ack).  On the engines' wire a data packet is tag [2·sn] and its ack
    tag [2·sn + 1] (see {!Roundq}).

    The clock ({!clock}, deadlines) is whatever the host engine uses: round
    numbers for {!Sync_engine}, virtual time for {!Async_engine}.

    Nothing here allocates per message beyond the sequence-number table
    entry {!register} adds: outstanding packets live in a reusable slot
    pool, and {!due} and {!receive_data} hand their results back through
    reusable buffers, read with the accessors below until the next call.

    Counters (retransmits, acks, suppressed duplicates, dead letters) are
    recorded on the shared {!Fault_plan.stats} so they aggregate across the
    many short-lived engines of a protocol run. *)

type 'msg t

val header_bits : int
(** Wire overhead added to each data packet; also the full size of an ack. *)

val create : ?base_rto:float -> ?max_rto:float -> ?max_attempts:int -> plan:Fault_plan.t -> unit -> 'msg t
(** [base_rto] (default 4.0) is the first retransmission timeout in engine
    clock units; it doubles per retransmission up to [max_rto] (default
    64.0).  After [max_attempts] (default 64) retransmissions of one packet,
    {!due} raises {!Delivery_failed} — the bounded re-issue guard that turns
    a permanently dead channel into a diagnosable failure instead of a
    livelock. *)

type clock = { mutable now : float }
(** The host engine's current time.  It is a float-only record, so the
    engine can move it without allocating; the engine keeps it equal to
    its round number or virtual time, and {!register} and {!due} read it. *)

val clock : 'msg t -> clock

val register : 'msg t -> src:int -> dst:int -> 'msg -> int
(** Allocate the next sequence number on channel [(src, dst)], remember the
    payload for retransmission (first deadline [now + base_rto]), and
    return the sequence number the data packet carries. *)

val receive_data : 'msg t -> src:int -> dst:int -> sn:int -> 'msg -> int
(** Receiver-side dedup and per-channel FIFO reordering for channel
    [(src, dst)].  Returns how many payloads are released to the protocol
    handler, readable as [released t 0] .. [released t (k - 1)] in order:
    0 for a duplicate (counted on the plan's stats) or an out-of-order
    arrival (buffered), otherwise the whole in-order run this arrival
    completes.  The caller must ack in every case — the ack means
    "received", not "released". *)

val released : 'msg t -> int -> 'msg
(** The [i]-th payload released by the last {!receive_data}. *)

val receive_ack : 'msg t -> src:int -> dst:int -> sn:int -> unit
(** Clear the outstanding packet [sn] of the {e data} direction
    [(src, dst)] (the ack itself travelled dst → src).  Duplicate acks are
    ignored. *)

val due : 'msg t -> Dpq_obs.Trace.t option -> int
(** Collect the outstanding packets whose deadline is at or before the
    clock's [now] and return how many there are; read them with
    {!due_src}, {!due_dst}, {!due_sn} and {!due_payload} at [0] .. [k - 1],
    in the order they go back on the wire.  Each gets its attempt count bumped, its deadline pushed back
    (exponential backoff), a [Retransmit] trace event, and a tally on the
    plan's stats.  Raises {!Delivery_failed} when a packet exhausts
    [max_attempts].

    Packets on a channel whose endpoint has been permanently killed
    ({!Fault_plan.is_killed}) are abandoned instead of retransmitted: each
    is counted as a dead letter, and no [Delivery_failed] is raised for
    them.  This reaping runs only when there can be something to reap:
    after a kill is committed, or after a packet was registered on a
    channel with a killed endpoint.

    The scan is skipped while [now] is below a lower bound on every
    outstanding deadline (made exact by each scan).  When it runs it
    visits channels, and each channel's packets, in the iteration order of
    the hash tables that record them; that order decides both the
    per-channel fault draws of the retransmissions and their delivery
    order, so the digests pin it. *)

val due_src : 'msg t -> int -> int
val due_dst : 'msg t -> int -> int
val due_sn : 'msg t -> int -> int
val due_payload : 'msg t -> int -> 'msg

val unacked : 'msg t -> int
(** Outstanding (sent but unacknowledged) packets across all channels.
    Quiescence under faults means: no events in flight {e and} zero
    unacked. *)

val next_deadline : 'msg t -> float option
(** Earliest retransmission deadline, if anything is outstanding — where an
    idle asynchronous engine jumps its clock. *)

exception Delivery_failed of string
