(** Sstack: a sequentially consistent distributed stack — the LIFO sibling
    of Skueue ([FSS18b]; the paper also notes Skeap's heap property "can be
    inverted", §1.2).

    Same architecture as Skeap: batches aggregate to the anchor, which
    assigns positions; elements rendezvous in the DHT.  Two things change:

    - the anchor draws {e from the top}: a batch entry's pops receive the
      highest occupied positions, in descending order (LIFO), and pushes
      re-extend the top;
    - positions are {e reused} after pops, so a DHT key must distinguish
      incarnations: the anchor tags every contiguous push range with a
      fresh epoch and pops carry the epoch their position was last pushed
      under — key = h(epoch, pos).  (Skeap never reuses a (priority,
      position) pair, so it needs no epochs.)

    Verified by {!Dpq_semantics.Checker.check} with the [Lifo_contract]:
    exact replay against a sequential stack plus local consistency. *)

module Element = Dpq_util.Element

type t

val create : ?seed:int -> n:int -> unit -> t
val n : t -> int

val push : t -> node:int -> ?payload:int -> unit -> Element.t
val pop : t -> node:int -> unit
val pending_ops : t -> int

val size : t -> int
(** Elements currently on the stack. *)

type completion = {
  node : int;
  local_seq : int;
  outcome : [ `Pushed of Element.t | `Popped of Element.t | `Empty ];
}

type batch_result = { completions : completion list; report : Dpq_aggtree.Phase.report }

val process_batch : t -> batch_result
val drain : t -> batch_result list
val oplog : t -> Dpq_semantics.Oplog.t
