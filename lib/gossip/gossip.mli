(** Push-sum epidemic load estimation over the simulated overlay.

    Each protocol batch/round ends with one {e gossip exchange}: every live
    node contributes its injection count since the previous exchange, and
    ceil(log₂ n) + [extra_rounds] waves of push-sum averaging (Kempe,
    Dobra & Gehring 2003) concentrate every node's (sum, weight) share
    around the global mean.  The per-node estimate Λ̂ — mean injected ops
    per node per exchange interval — feeds the adaptive batch controller
    ({!Batch_ctl}).

    Cost model: exchanges piggyback on the protocol's own batch delivery,
    so they report {b zero rounds} but their real message/bit traffic
    (each share is two 64-bit words).  The exchange runs on a fresh
    {!Dpq_simrt.Sync_engine} with the caller's trace/fault/sched
    machinery threaded through, like every other protocol phase.

    Determinism: peer targets for all waves are drawn {e up front} from the
    dedicated [Rng.named ~seed "gossip"] stream, before the engine steps,
    and the handler only touches destination-local state — so the schedule
    (and any run digest) depends on the seed alone, never on how a round's
    deliveries are ordered. *)

type config = {
  extra_rounds : int;  (** waves beyond ceil(log₂ n); default 12 (~5% error) *)
  alpha : float;  (** EWMA weight of the newest exchange, in (0, 1] *)
}

val default_config : config

type t

val create : ?config:config -> seed:int -> n:int -> unit -> t
(** Fresh estimator state for nodes [0..n-1].  The peer stream is
    [Rng.named ~seed "gossip"] — independent of the workload / delay /
    fault streams by construction. *)

val grow : t -> int -> unit
(** [grow t n'] extends the state to [n'] nodes (join churn); a no-op if
    [n' <= n].  New nodes start with no estimate and a zero counter. *)

val estimate : t -> node:int -> float option
(** [node]'s current Λ̂ (ops per node per exchange interval), or [None]
    before its first completed exchange. *)

val exchange :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  t ->
  live:(int -> bool) ->
  cumulative:(int -> int) ->
  anchor:int ->
  unit ->
  Dpq_aggtree.Phase.report
(** Run one exchange.  [cumulative v] is node [v]'s monotone injected-op
    counter; the per-exchange diff is tracked internally.  [live v] gates
    participation (crashed/removed nodes neither contribute nor relay).
    [anchor] names the node whose estimate is recorded on the
    [Gossip_round] trace event.  The report charges zero rounds and the
    real message/bit traffic; with [trace] the exchange runs inside a
    ["gossip"] span whose [Phase_end] carries exactly the returned
    report's numbers. *)
