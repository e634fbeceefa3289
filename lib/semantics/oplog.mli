(** Operation logs: the evidence a protocol run leaves behind.

    A protocol (Skeap, Seap, or a baseline) records one {!record} per heap
    operation it completed, including the {e witness position} — the place
    the protocol claims the operation occupies in its serialization order
    [≺].  The checker in {!Checker} then verifies that this claimed order
    really is a valid serialization with the paper's semantics
    (Definitions 1.1 and 1.2). *)

module Element = Dpq_util.Element

type kind = Insert of Element.t | Delete_min

type record = {
  node : int;  (** issuing node *)
  local_seq : int;  (** per-node issue counter, 0-based *)
  witness : int;  (** claimed position in the serialization order [≺] *)
  kind : kind;
  result : Element.t option;
      (** for [Delete_min]: the matched element, or [None] for ⊥;
          always [None] for [Insert] *)
}

type t

val of_list : record list -> t
val to_list : t -> record list
(** In witness order. *)

val length : t -> int

val matching : t -> (record * record) list
(** The matching M: pairs [(ins, del)] where [del] returned the element
    inserted by [ins] (elements are unique, §1.2).  Raises [Invalid_argument]
    if some delete returned an element that no insert produced. *)
