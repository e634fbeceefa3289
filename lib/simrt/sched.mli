(** Pluggable adversarial schedulers for the simulation engines.

    The paper's guarantees are adversarial over {e all} message
    interleavings (§1.1): Skeap's sequential consistency and Seap's
    serializability must hold regardless of reordering.  A {!t} perturbs
    the engines' delivery schedules deterministically from a seed, so the
    exploration harness ({!Dpq_explore.Explore}) can hunt for interleavings
    that break the protocols and replay any failure bit-for-bit.

    In the {b synchronous} engine a policy permutes (and may briefly defer)
    the within-round delivery order; round semantics — everything sent in
    round [i] is delivered by round [i + d] for bounded [d] — are
    preserved, so cost accounting stays honest.  In the {b asynchronous}
    engine a policy transforms the sampled delivery delays.  Fairness is
    preserved by construction: every message is still delivered.

    The scheduler draws from its own named RNG stream
    ([Rng.named ~seed "sched"]), independent of the workload and fault
    streams derived from the same master seed. *)

type policy =
  | Fifo  (** No perturbation: engines behave exactly as without a scheduler. *)
  | Shuffle of { burst : int; starvation : float }
      (** Seeded-random reorder.  Sync: the round's batch is shuffled in
          blocks of [burst] messages, and each message is independently
          deferred one round with probability [starvation] (at most
          {!max_defers} times).  Async: delivery lands in a uniformly random
          burst slot [1..burst], stretched by {!starvation_factor} with
          probability [starvation]. *)
  | Channel_bias of { src : int option; dst : int option; factor : int }
      (** Slow-link adversary for the matching channels ([None] = wildcard).
          Sync: matching messages are deferred [factor] rounds.  Async:
          matching delays are multiplied by [factor]. *)
  | Crossing_pairs
      (** Swap adjacent message pairs: the 2nd, 4th, ... message of a round
          batch (sync) or send sequence (async) is delivered just before its
          predecessor — the adversary that crosses batch-phase messages. *)

type t

val create : seed:int -> policy -> t
(** Raises [Invalid_argument] on [burst < 1], [starvation] outside [0,1),
    or [factor < 1]. *)

val policy : t -> policy
val seed : t -> int

val rng : t -> Dpq_util.Rng.t
(** The scheduler's own draw stream (shared by every engine of a run so the
    whole run's schedule derives from one seed). *)

val biased : t -> src:int -> dst:int -> bool
(** Does a [Channel_bias] policy target this channel?  [false] for every
    other policy. *)

val max_defers : int
(** Upper bound on consecutive deferrals of one message in the synchronous
    engine (fairness cap). *)

val starvation_factor : float
(** Delay multiplier applied to starved messages in the asynchronous
    engine. *)

val policy_to_string : policy -> string
(** Compact spec form: [fifo], [shuffle:burst=B,starve=P],
    [bias:src=S,dst=D,x=F] ([*] = wildcard), [crossing].  Round-trips with
    {!policy_of_string}. *)

val policy_of_string : string -> (policy, string) result

val pp : Format.formatter -> t -> unit
