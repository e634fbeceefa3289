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
    allocation: [-1] for a plain message, [2*sn] for a reliable-layer Data
    packet, [2*sn + 1] for an Ack (whose payload slot holds a dummy). *)

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
