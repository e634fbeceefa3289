(** Arrival ticks of the in-flight operations of an open-loop run, keyed by
    [(node, local_seq)] — what {!Runner.run_open} measures completion
    latency from.

    A node's operations are numbered densely from 0 in the order it
    submits them ([local_seq]), so each node keeps a ring over its
    in-flight window of numbers instead of a hash table keyed by pairs:
    recording and taking a tick allocate nothing once the ring has grown
    to the node's largest in-flight span.  Memory is O(in-flight
    operations per node), rounded up to a power of two. *)

type t

val create : n:int -> t
(** An empty table for nodes [0 .. n-1]. *)

val add : t -> node:int -> tick:int -> unit
(** [add t ~node ~tick] records [tick] (>= 0) as the arrival of [node]'s
    next operation: the first call for a node numbers it 0, the next 1, and
    so on. *)

val take : t -> node:int -> local_seq:int -> int
(** The arrival tick recorded for [(node, local_seq)], removed from the
    table; [-1] if none is recorded (never added, or already taken). *)
