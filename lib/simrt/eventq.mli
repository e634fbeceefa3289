(** Struct-of-arrays binary min-heap on (delivery time, sequence number) —
    the asynchronous engine's event queue.

    [seq] values must be unique, making (time, seq) a total order; the pop
    sequence is therefore identical to any other correct heap over the same
    keys, which keeps run digests stable across implementations.  Wire
    entries use the same integer tag + payload encoding as {!Roundq};
    {!pop} is allocation-free — the popped entry is parked in the vacated
    slot and read back through the [popped_*] accessors (valid until the
    next push or pop). *)

type 'msg t

val create : unit -> 'msg t
val length : 'msg t -> int
val push : 'msg t -> time:float -> seq:int -> src:int -> dst:int -> tag:int -> 'msg -> unit

val pop : 'msg t -> bool
(** Remove the minimum entry; [false] when empty.  On [true] the entry is
    readable through the accessors below. *)

val popped_time : 'msg t -> float
val popped_src : 'msg t -> int
val popped_dst : 'msg t -> int
val popped_tag : 'msg t -> int
val popped_payload : 'msg t -> 'msg
