(** Array-based binary min-heap, polymorphic over the element comparison.

    Used as the event queue of the asynchronous engine, as the sequential
    reference heap the protocols are checked against, and as the centralized
    baseline's coordinator heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum without removing. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum. *)

val pop_exn : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: all elements in ascending order. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate in unspecified (heap) order. *)
