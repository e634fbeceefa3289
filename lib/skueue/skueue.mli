(** Skueue: the sequentially consistent distributed FIFO queue of
    Feldmann, Scheideler & Setzer (IPDPS 2018) — the data structure Skeap
    extends (paper §1.3/§3: "Skeap is a simple extension of Skueue ...
    technically maintaining one distributed queue for each priority").

    Realized here as exactly that degenerate case: a Skeap with a single
    priority.  The anchor's position intervals then make Enqueue/Dequeue a
    FIFO queue — positions are handed out in serialization order and
    dequeues drain them from the front.  All of Skeap's guarantees carry
    over; the specific FIFO behaviour is verified by
    {!Dpq_semantics.Checker.check} with the [Fifo_contract]. *)

module Element = Dpq_util.Element

type t

val create : ?seed:int -> n:int -> unit -> t
val n : t -> int

val enqueue : t -> node:int -> ?payload:int -> unit -> Element.t
(** Buffer an Enqueue at [node]; the returned element identifies the queued
    item (its [payload] is the application data slot). *)

val dequeue : t -> node:int -> unit
(** Buffer a Dequeue; answered with the oldest element or ⊥. *)

val pending_ops : t -> int
val length : t -> int
(** Elements currently queued. *)

type completion = {
  node : int;
  local_seq : int;
  outcome : [ `Enqueued of Element.t | `Dequeued of Element.t | `Empty ];
}

type batch_result = { completions : completion list; report : Dpq_aggtree.Phase.report }

val process_batch : t -> batch_result
val drain : t -> batch_result list
val oplog : t -> Dpq_semantics.Oplog.t
