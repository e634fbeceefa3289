(** Seap: a serializable distributed heap for arbitrary (polynomial)
    priority universes (paper §5, Theorem 5.1).

    Unlike Skeap, Seap never ships per-priority counting vectors — all its
    protocol messages are O(log n) bits regardless of the injection rate.
    The price is local consistency: operations are processed in alternating
    {e Insert phases} and {e DeleteMin phases}, and a node's buffered
    inserts all serialize before its buffered deletes of the same round.

    {b Insert phase} (§5.1): after the anchor's go-ahead broadcast every
    element is stored in the DHT under a fresh pseudorandom key and
    confirmed back to the inserter.

    {b DeleteMin phase} (§5.2): once its Puts are confirmed, each node
    joins one convergecast of (inserts, deletes): the anchor adds the
    inserts to its element count m and learns the number k of pending
    deletes; {!Dpq_kselect.Kselect} finds the element of rank k; every
    node pulls its stored elements ≤ e_k out of their random-key homes and
    re-stores them under position keys h(1..k), and the deleters fetch
    from positions 1..k; one down-pass assigns both position sets by
    interval decomposition.  Deletes beyond the current heap size get ⊥.

    The run records an operation log whose witness order places each
    phase's inserts (in element order) before its deletes (in rank order);
    {!Dpq_semantics.Checker.check} with the [Seap_contract] verifies
    serializability (and with it heap consistency) on it. *)

module Element = Dpq_util.Element
module Phase = Dpq_aggtree.Phase

type t

(** How much ordering Seap guarantees.

    - [Serializable] (the paper's Seap, default): each phase consumes every
      buffered operation of its type — maximal throughput, no local
      consistency.
    - [Sequential]: the extension sketched in the paper's conclusion (§6):
      each phase consumes only a node's maximal {e leading} run of
      same-type operations, so every node's operations serialize in issue
      order and the heap becomes sequentially consistent like Skeap — at
      the cost of buffers that can grow under high injection rates, exactly
      the trade-off the paper warns about. *)
type consistency = Serializable | Sequential

val create :
  ?seed:int ->
  ?replication:int ->
  ?consistency:consistency ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  ?gossip:Dpq_gossip.Gossip.config ->
  n:int ->
  unit ->
  t
(** Raises [Invalid_argument] if [n < 1].  Priorities are arbitrary
    positive integers.  With [trace], every subsequent {!process_round} /
    membership change records structured events (see {!Dpq_obs.Trace}).
    With [faults], every engine the protocol spawns runs over the faulty
    network with reliable ack/retransmit delivery — semantics are
    unchanged, costs grow.  [replication] is the DHT replica degree [k]
    (default 1 = off); with [k > 1] the heap survives permanent node loss
    of up to [k - 1] replicas of any key with unchanged semantics (see
    {!Dpq_skeap.Skeap.create}). *)

include Dpq_types.Clients.S with type t := t
(** Priorities only need to be [>= 1]. *)

val clients : t -> Dpq_types.Clients.t
(** The client side itself, which {!Dpq.Dpq_heap} calls directly. *)

val consistency : t -> consistency
(** Test seam: the mode given at {!create}. *)

val heap_size : t -> int
(** The anchor's element count m. *)

val load_estimate : t -> float option
(** The anchor node's gossip estimate Λ̂ (issued ops per node per round),
    or [None] when gossip is off ([?gossip] not passed at {!create}) or no
    exchange has completed yet. *)

type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type round_result = {
  completions : completion list;  (** sorted by (node, local_seq) *)
  report : Phase.report;  (** both phases, including KSelect *)
  kselect : Dpq_kselect.Kselect.diagnostics option;
      (** present when the DeleteMin phase actually ran a selection *)
}

val process_round : ?dht_mode:dht_mode -> t -> round_result
(** One Insert phase followed by one DeleteMin phase over everything
    currently buffered. *)

val drain : ?dht_mode:dht_mode -> t -> round_result list
(** Rounds until nothing is pending. *)

val stored_per_node : t -> int array

(** {2 Membership changes (paper Contribution 4)} — same contract as
    {!Dpq_skeap.Skeap.add_node} / [remove_last_node]. *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

val add_node : t -> churn_cost
val remove_last_node : t -> churn_cost
