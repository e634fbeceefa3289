(** Array-based binary min-heap, polymorphic over the element comparison.

    Used as the event queue of the asynchronous engine, as the sequential
    reference heap the protocols are checked against, and as the centralized
    baseline's coordinator heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum without removing. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum. *)
