(** Operation batches (paper Definition 3.1).

    A batch is a sequence [(i_1, d_1, ..., i_k, d_k)] where [i_j] is a vector
    counting, per priority, the elements inserted by the j-th insert burst
    and [d_j] counts the DeleteMin operations that follow it.  Representing a
    node's buffered operations this way preserves its local order
    (inserts of burst j precede the d_j deletes, which precede burst j+1),
    which is what sequential consistency needs.

    A batch over [np] priorities is one flat count vector: entry [j]'s
    priority-[i] insert count (i in [1..np]) sits at index
    [j·(np+1) + i - 1] and its delete count at [j·(np+1) + np].  Two
    batches combine entry-wise by vector addition, the shorter one padded
    with zeros (§3.1). *)

type op = Ins of int  (** priority, 1-based *) | Del

val op_prio : op -> int
(** [Ins p] is [p], [Del] is 0: the [prio] argument {!of_ops} takes.
    Raises [Invalid_argument] on [Ins p] with [p < 1]. *)

type t

val empty : num_prios:int -> t
(** The batch of a node with nothing buffered. *)

val of_ops : num_prios:int -> prio:('a -> int) -> 'a list -> t
(** Build a batch from an operation sequence in issue order; [prio op] is
    an insert's priority, or 0 for a DeleteMin.  A new entry starts with
    the first operation and with every insert that follows a delete;
    mapping positions back to concrete operations (Skeap's Phase 4) walks
    the operations by the same rule.  Raises [Invalid_argument] on a
    priority outside [1..num_prios]. *)

val num_prios : t -> int

val num_entries : t -> int

val count : t -> int -> int
(** [count b k]: the count at index [k] of the vector (the layout
    above), 0 past its end. *)

val combine : t -> t -> t
(** Raises [Invalid_argument] on differing priority universes.  Returns
    the other argument when one is empty; vectors are never mutated. *)

val total_inserts : t -> int
val total_deletes : t -> int

val encoded_bits : t -> int
(** Wire size: every count encoded with its bit length (Lemma 3.8 measures
    this growing as O(Λ log² n)). *)

val equal : t -> t -> bool
(** Test seam: the tests check {!combine}'s laws with it. *)

val to_string : t -> string
(** Paper notation, e.g. ["((2,0),1,(0,1),1)"]. *)
