(** Int-keyed chained hash tables in flat int arrays, with
    [Hashtbl.Make (Int)]'s visit order.

    The reliable layer's tables are these, not [Hashtbl]s, so that
    entering a packet allocates nothing; their visit order must
    nonetheless be exactly a [Hashtbl]'s, because {!Reliable.due} visits
    packets in it and the fault digests pin that order.  So they follow
    the stdlib's rules: [create n] starts at [Hashtbl.create n]'s bucket
    count, a key goes to bucket [hash land (buckets - 1)] at the head of
    its chain, the table doubles once it holds more than two keys per
    bucket, splitting each bucket in order, and {!reset} returns it to
    its initial bucket count.  The nodes of many tables live in one {!store}.
    [test/test_faults.ml] drives it against [Hashtbl.Make (Int)] and the
    polymorphic [Hashtbl] to catch a change in the stdlib's internals.
    Seap also indexes a phase's DHT requests by key with it, and
    {!Fault_plan} its channels by [(src, dst)]. *)

(** Node columns and a free list, shared by any number of tables.  The
    fields are readable so that a hot loop can walk a table's chains
    without a closure ({!Reliable.due}): bucket [b]'s chain starts at
    [heads.(b)] and follows [next] to [-1]. *)
type store = private {
  mutable next : int array;
  mutable keys : int array;
  mutable vals : int array;
  mutable free : int;
  mutable used : int;
}

type t = private {
  hash : int -> int;
  initial : int;
  mutable nb : int;  (** bucket count *)
  mutable heads : int array;  (** [nb] chain heads, or empty before the first insert *)
  mutable size : int;
}

val store : unit -> store

val scatter : int -> int
(** A multiplicative hash, for tables whose visit order nobody observes.
    [Int.hash] folds a key's high 32 bits onto its low ones, so keys that
    pack two fields as [(a lsl 31) lor b] land on a few buckets: the 4032
    channels of 64 nodes share 128 hash values.  [scatter] spreads them
    (the bucket bits come from the middle of the product). *)

val create : ?hash:(int -> int) -> int -> t
(** An empty table placing its keys by [hash] (default [Int.hash], as
    [Hashtbl.Make (Int)]); it allocates its buckets on the first
    insert. *)

val length : t -> int

val find : store -> t -> int -> int
(** The value bound to the key, or [-1]: values must be non-negative. *)

val replace : store -> t -> int -> int -> unit
(** As [Hashtbl.replace]. *)

val add : store -> t -> int -> int -> unit
(** As [Hashtbl.add]: the key goes in even if it is already bound.  With
    [~hash:Fun.id] and [Hashtbl.hash k] as the key, a table fed only
    [add] and [reset] visits its values as a polymorphic [Hashtbl] fed
    the same [add]s of [k] visits its bindings. *)

val remove : store -> t -> int -> int
(** As [Hashtbl.remove]; returns the removed value, or [-1]. *)

val clear : store -> t -> unit
(** As [Hashtbl.clear]: empty, keeping the bucket count. *)

val reset : store -> t -> unit
(** As [Hashtbl.reset]: empty, back at the initial bucket count. *)

val fold : store -> t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** Visit the bindings in the table's order. *)

val grow : 'a array -> 'a -> 'a array
(** The array doubled (to at least 16), new cells filled with the given
    value: how a store's columns grow, and the reliable layer's pools. *)
