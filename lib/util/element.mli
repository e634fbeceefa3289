(** Heap elements and priorities (paper §1.2).

    An element carries a priority from a totally ordered universe plus a
    tiebreaker [(origin, seq)] — the id of the node that inserted it and that
    node's local insertion counter — so that all elements are totally
    ordered, exactly as the paper assumes ("Using a tiebreaker to break ties
    between elements having the same priority, we get a total order on all
    elements"). *)

type prio = int
(** Priorities are integers.  Skeap restricts them to [{1..c}] for constant
    [c]; Seap allows [{1..n^q}]. *)

type t = { prio : prio; origin : int; seq : int; payload : int }
(** [payload] stands in for application data (job id, record pointer, ...). *)

val make : prio:prio -> origin:int -> seq:int -> ?payload:int -> unit -> t

val compare : t -> t -> int
(** Lexicographic on [(prio, origin, seq)]: the paper's total order. *)

val equal : t -> t -> bool
val prio : t -> prio
val to_string : t -> string

val encoded_bits : t -> int
(** Size of a wire encoding of the element, in bits: used by the message-size
    accounting.  An element costs the bits of its priority plus tiebreaker
    and payload words. *)
