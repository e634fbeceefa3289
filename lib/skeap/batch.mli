(** Operation batches (paper Definition 3.1).

    A batch is a sequence [(i_1, d_1, ..., i_k, d_k)] where [i_j] is a vector
    counting, per priority, the elements inserted by the j-th insert burst
    and [d_j] counts the DeleteMin operations that follow it.  Representing a
    node's buffered operations this way preserves its local order
    (inserts of burst j precede the d_j deletes, which precede burst j+1),
    which is what sequential consistency needs.

    Two batches combine entry-wise by vector addition, padding the shorter
    batch with zeros (§3.1). *)

type op = Ins of int  (** priority, 1-based *) | Del

type entry = { ins : int array;  (** per-priority insert counts *) del : int }

type t

val empty : num_prios:int -> t
(** The batch of a node with nothing buffered. *)

val of_ops : num_prios:int -> op list -> t
(** Build a batch from an operation sequence in issue order.  Raises
    [Invalid_argument] on a priority outside [1..num_prios]. *)

val group_ops : op list -> op list list
(** Test seam.  The grouping [of_ops] uses: maximal runs of inserts
    followed by the deletes that trail them.  Mapping positions back to
    concrete operations (Phase 4) walks the operations in step with the
    batch entries by the same rule: an entry starts with the first
    operation and with every insert that follows a delete. *)

val num_prios : t -> int
val entries : t -> entry list

val combine : t -> t -> t
(** Raises [Invalid_argument] on differing priority universes.  The result
    may share entries with its arguments; entries are never mutated. *)

val total_inserts : t -> int
val total_deletes : t -> int

val encoded_bits : t -> int
(** Wire size: every count encoded with its bit length (Lemma 3.8 measures
    this growing as O(Λ log² n)). *)

val equal : t -> t -> bool
(** Test seam: the tests check {!combine}'s laws with it. *)

val to_string : t -> string
(** Paper notation, e.g. ["((2,0),1,(0,1),1)"]. *)
