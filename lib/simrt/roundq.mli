(** Calendar/bucket queue keyed by absolute delivery round — the
    synchronous engine's message store.

    Each bucket is a struct-of-arrays batch (packed metadata, wire tag,
    payload columns) appended in send order; buckets are recycled with
    their arrays intact, so steady-state enqueueing allocates nothing.
    The metadata word packs [(src lsl 32) lor (dst lsl 8) lor defers] so
    the delivery loop recovers src and dst from a single array read; node
    ids must be below [2^24] and deferral counts below [2^8] (both guarded
    in {!add}, both far beyond anything the engine produces).  The wire tag
    encodes what the old envelope variant did without a per-message
    allocation: {!tag_plain} for a plain message, {!data_tag} for a
    reliable-layer Data packet, which carries its sequence number and its
    channel's id, and {!ack_tag} of that for its Ack (whose payload slot
    holds a dummy). *)

val tag_plain : int
(** [-1]: a plain protocol message (no reliable layer). *)

val data_tag : chan:int -> sn:int -> int
(** [(sn lsl 31) lor (chan lsl 1)]: the tag of the data packet with
    sequence number [sn] on reliable channel [chan].  Raises
    [Invalid_argument] naming the channel id or the sequence number if
    [chan] is outside [\[0, 2^30)] or [sn] outside [\[0, 2^31)], rather
    than let it alias another channel's packets. *)

val ack_tag : int -> int
(** The tag of the ack answering a data tag: the same word with bit 0
    set. *)

val is_ack : int -> bool
(** Is this (non-plain) tag an ack? *)

val tag_chan : int -> int
(** The channel id of a data or ack tag. *)

val tag_sn : int -> int
(** The sequence number of a data or ack tag. *)

type 'msg bucket = private {
  mutable round : int;
  mutable metas : int array;
  mutable tags : int array;
  mutable pays : 'msg array;
  mutable len : int;
}
(** Read the columns only through indices [0 .. len - 1]; the arrays may be
    longer. *)

type 'msg t

val create : unit -> 'msg t
val pending : 'msg t -> int
val is_empty : 'msg t -> bool

val add : 'msg t -> round:int -> src:int -> dst:int -> tag:int -> defers:int -> 'msg -> unit
(** Append to [round]'s bucket (FIFO within a round).  Raises
    [Invalid_argument] if [round] is before {!base} or beyond the ring
    horizon — the engine only ever schedules for the current or the next
    round — or if [src]/[dst]/[defers] exceed the packed-word bounds
    above. *)

val add_packed : 'msg t -> round:int -> meta:int -> tag:int -> 'msg -> unit
(** {!add} with a prepacked metadata word (as read back by {!meta}) — the
    deferral path re-enqueues an entry with [meta + 1], which increments
    the deferral count in place. *)

val take : 'msg t -> round:int -> 'msg bucket
(** Detach [round]'s bucket for delivery and advance {!base} past it.  The
    bucket stays valid (its entries are no longer counted by {!pending})
    until {!recycle} returns it to the pool.  Raises [Invalid_argument] if
    [round <> base]. *)

val recycle : 'msg t -> 'msg bucket -> unit
(** Return a taken bucket to the pool, keeping its arrays for reuse. *)

(** Per-entry column accessors, and the packed-word decoders for callers
    that hoist the single [metas] read themselves. *)

val src : 'msg bucket -> int -> int
val dst : 'msg bucket -> int -> int
val defers : 'msg bucket -> int -> int
val meta : 'msg bucket -> int -> int
val meta_src : int -> int
val meta_dst : int -> int

val reset : 'msg t -> unit
(** Rewind the round index to 0 (for [reset_clock]).  Raises
    [Invalid_argument] if messages are still queued. *)
