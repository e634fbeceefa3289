(** Shared protocol-facing types.

    Skeap, Seap, the baselines, the unified {!Dpq.Dpq_heap} front door and
    the workload runner all speak the same vocabulary: an operation's
    {!outcome}, the per-operation {!completion} record, the DHT delivery
    {!dht_mode}, the {!churn_cost} of a membership change, and the
    {!backend} naming the four implementations.  This module is the single
    definition; the protocol modules re-export the types as equations so
    existing call sites (e.g. [Dpq_skeap.Skeap.Dht_sync]) keep compiling.
    The client side that produces completions — buffers, issue numbers,
    element identities, the operation log — is {!Clients}. *)

module Element = Dpq_util.Element

type outcome = [ `Inserted of Element.t | `Got of Element.t | `Empty ]

type completion = { node : int; local_seq : int; outcome : outcome }
(** One buffered operation's answer: the node and local issue number
    identify the operation; the outcome is its result. *)

(** How a protocol's DHT traffic is delivered. *)
type dht_mode =
  | Dht_sync  (** synchronous rounds; gives full cost measurements *)
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }
      (** adversarially delayed/reordered delivery; used to demonstrate
          order-independence of the rendezvous.  Contributes an empty cost
          report (the synchronous cost model does not apply). *)

type churn_cost = {
  join_messages : int;  (** overlay messages to splice the node in/out *)
  moved_elements : int;  (** stored elements whose manager changed *)
}

(** Which implementation realizes a heap.

    - [Skeap]: constant priority universe [{1..num_prios}], sequential
      consistency (paper §3);
    - [Seap]: arbitrary positive priorities, serializability, O(log n)-bit
      messages (paper §5);
    - [Centralized]: all state at a coordinator node — the hotspot baseline;
    - [Unbatched]: one anchor round-trip per operation over the real
      overlay — the no-batching baseline. *)
type backend =
  | Skeap of { num_prios : int }
  | Seap
  | Centralized
  | Unbatched of { num_prios : int }

val backend_name : backend -> string
(** ["skeap"], ["seap"], ["centralized"], ["unbatched"]. *)

val pp_backend : Format.formatter -> backend -> unit
(** [backend_name] plus parameters, e.g. ["skeap(num_prios=4)"]. *)
