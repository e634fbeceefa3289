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
    ack).

    A channel is looked up by [(src, dst)] once per packet, in
    {!register}, which hands back the packet's wire tag: its sequence
    number and its channel's id, [Roundq.data_tag ~chan ~sn]
    ([(sn lsl 31) lor (chan lsl 1)]), its ack being the same word with
    bit 0 set.  Every later step of the packet — {!receive_data},
    {!receive_ack}, {!due}, and the fault draw of each transmission
    through {!fault_channel} — indexes the channel by that id.  Each
    channel keeps its two directions' {!Fault_plan.channel} indices from
    its creation, so a fault draw is an array access too, and the plan's
    kill set is a short list with a count, so the [is_killed] checks of
    {!register} and the reaper cost one comparison while nobody has been
    killed.

    The clock ({!clock}, deadlines) is whatever the host engine uses: round
    numbers for {!Sync_engine}, virtual time for {!Async_engine}.

    Nothing here allocates per message: outstanding packets and
    out-of-order arrivals live in a reusable slot pool, every table is an
    {!Int_table} whose nodes come from one store per layer, and {!due}
    and {!receive_data} hand their results back through reusable buffers,
    read with the accessors below until the next call.  Only growth
    allocates: the pool, the store or a table's buckets doubling, and a
    channel's first use.

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

val reset : 'msg t -> unit
(** Forget every channel and sequence number and zero the clock, keeping
    the buffers: afterwards the layer behaves exactly as a fresh one from
    {!create}.  Channel records are pooled, not rebuilt: a channel is
    reset, with its packet table back at its initial size, when it is next
    used, and only then does it rejoin the table {!due} and the reaper
    visit, so they visit channels and packets in a fresh layer's order.
    Raises [Invalid_argument] if packets are unacknowledged. *)

val register : 'msg t -> src:int -> dst:int -> 'msg -> int
(** Allocate the next sequence number on channel [(src, dst)], remember the
    payload for retransmission (first deadline [now + base_rto]), and
    return the data packet's wire tag ({!Roundq.data_tag} of the channel's
    id and the sequence number).  Raises [Invalid_argument] from
    {!Roundq.data_tag} if either outgrows its bits. *)

val fault_channel : 'msg t -> tag:int -> int
(** The {!Fault_plan.channel} index of the direction a packet with this
    data or ack tag travels: the data direction, or its reverse for an
    ack. *)

val receive_data : 'msg t -> tag:int -> 'msg -> int
(** Receiver-side dedup and per-channel FIFO reordering for the data
    packet [tag].  Returns how many payloads are released to the protocol
    handler, readable as [released t 0] .. [released t (k - 1)] in order:
    0 for a duplicate (counted on the plan's stats) or an out-of-order
    arrival (buffered), otherwise the whole in-order run this arrival
    completes.  The caller must ack in every case — the ack means
    "received", not "released". *)

val released : 'msg t -> int -> 'msg
(** The [i]-th payload released by the last {!receive_data}. *)

val receive_ack : 'msg t -> tag:int -> unit
(** Clear the outstanding packet an ack tag answers (the ack travelled
    the reverse of its channel).  Duplicate acks are ignored. *)

val due : 'msg t -> Dpq_obs.Trace.t option -> int
(** Collect the outstanding packets whose deadline is at or before the
    clock's [now] and return how many there are; read them with
    {!due_src}, {!due_dst}, {!due_tag} and {!due_payload} at [0] .. [k - 1],
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
    outstanding deadline, and within a scan a channel's packets are
    skipped while [now] is below the channel's own bound (exact after the
    channel's packets were last walked): neither skip passes over a due
    packet.  When it runs it visits channels in the order of a
    [(src, dst)]-keyed [Hashtbl] fed the same insertions, and each
    channel's packets in the order of a [Hashtbl.Make (Int)] from
    sequence number (see {!Int_table}); that order decides both the
    per-channel fault draws of the retransmissions and their delivery
    order, so the digests pin it. *)

val due_src : 'msg t -> int -> int
val due_dst : 'msg t -> int -> int
val due_tag : 'msg t -> int -> int
val due_payload : 'msg t -> int -> 'msg

val unacked : 'msg t -> int
(** Outstanding (sent but unacknowledged) packets across all channels.
    Quiescence under faults means: no events in flight {e and} zero
    unacked. *)

val next_deadline : 'msg t -> float
(** Earliest retransmission deadline, [infinity] when nothing is
    outstanding — where an idle asynchronous engine jumps its clock. *)

exception Delivery_failed of string
