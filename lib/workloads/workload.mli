(** Workload generation for the experiment harness.

    A workload is a sequence of {e rounds}; in each round every node injects
    up to λ(v) operations (the paper's injection-rate model, §1.1), then the
    protocol under test processes one batch/round.  The generator controls the
    per-node rate, the insert/delete mix and the priority distribution. *)

type op = { node : int; action : [ `Ins of int | `Del ] }

type round = op list
type t = round list

(** Priority distributions. *)
type prio_dist =
  | Uniform of int * int  (** inclusive range *)
  | Zipf of { s : float; n : int }  (** skewed toward rank 1 *)
  | Constant_set of int  (** uniform over [{1..c}] — Skeap's regime *)
  | Increasing  (** monotonically increasing — pathological for pruning *)

(** {2 Open-loop arrival processes}

    Closed-loop generation (the paper's model) injects exactly λ ops per
    node per round.  Open-loop arrivals decouple offered load from service:
    each generator round is one {e tick} of virtual time, and every node's
    op count in tick [t] is drawn Poisson(λ(t)) from a time-varying rate
    schedule.  {!Runner.run_open} consumes these ticks against a batch
    window to measure completion-latency percentiles. *)

type arrival =
  | Closed  (** the legacy exact-λ closed-loop model *)
  | Poisson_rate of float  (** stationary: each node injects Poisson(r) per tick *)
  | Burst of { on : int; off : int; high : float; low : float }
      (** on/off process: rate [high] for [on] ticks, then [low] for [off]
          ticks, repeating *)
  | Diurnal of { period : int; peak : float; base : float }
      (** sinusoidal day curve: rate [base] at tick 0 rising to [peak] at
          half-period *)

val arrival_to_string : arrival -> string
(** Compact textual form ([closed], [poisson:r], [burst:on:off:high:low],
    [diurnal:period:peak:base]); round-trips with {!arrival_of_string}. *)

val arrival_of_string : string -> (arrival, string) result

(** {2 Generation}

    {!Gen} is the only generator.  A {!Gen.t} produces rounds on demand from
    a serializable {!Gen.spec}, so the runner and benches hold one round at
    a time even at n = 4096..65536 with 10⁶+ ops.  A spec names the same RNG
    stream the exploration harness draws workloads from
    ([Rng.named ~seed "workload"]); {!of_gen} materializes it for
    exploration, shrinking and repro files. *)

module Gen : sig
  type spec = {
    n : int;  (** nodes *)
    rounds : int;
    lambda : int;  (** injections per node per round *)
    insert_ratio : float;
    dist : prio_dist;
    seed : int;  (** master seed; the stream is [Rng.named ~seed "workload"] *)
    arrival : arrival;
        (** [Closed] reproduces the exact-λ model (and its RNG stream)
            bit for bit; anything else draws per-node Poisson(λ(tick))
            counts *)
  }

  type t
  (** A stateful round producer; single pass. *)

  val create : spec -> t

  val total_ops : spec -> int
  (** [n * rounds * lambda] for closed-loop specs (every slot yields exactly
      one op); the rounded expected op count for open-loop arrivals. *)

  val next : t -> round option
  (** The next round, or [None] after [spec.rounds] rounds. *)

  val spec_to_string : spec -> string
  (** Single-line [k=v] form, e.g.
      [n=4096 rounds=256 lambda=1 ratio=0.5 dist=const:4 seed=3]; round-trips
      with {!spec_of_string}.  [dist=] takes [uniform:lo:hi], [zipf:s:n],
      [const:c] or [increasing].  The [arrival=] key is only emitted for
      open-loop specs, so pre-arrival spec strings are reproduced
      byte-identically. *)

  val spec_of_string : string -> (spec, string) result
end

val of_gen : Gen.spec -> t
(** Materialize a spec eagerly.  The result depends on the spec alone:
    [of_gen spec = of_gen spec] for every distribution. *)

val total_ops : t -> int

(** {2 Serialization}

    Textual form used by the exploration harness's repro files: one line per
    round, ops space-separated as [node:Iprio] / [node:D], a lone ["."] for
    an empty round (round boundaries decide what batches together, so they
    must survive the trip). *)

val round_to_string : round -> string
val round_of_string : string -> (round, string) result

val to_string : t -> string
(** Test seam: round-trips with {!of_string} up to blank lines. *)

val of_string : string -> (t, string) result
(** Accepts both the materialized round-per-line form and the generator form:
    a single [gen: <spec>] line (see {!Gen.spec_of_string}), which
    materializes via {!of_gen}. *)

(** {2 Shrinking} *)

val shrink_candidates : t -> t list
(** Strictly smaller variants for the greedy shrinker, coarsest cuts first:
    each workload minus one round, each round halved (either half), and —
    once at most 48 ops remain — each workload minus a single op.  Every
    candidate strictly decreases (total ops + rounds), so greedy descent
    terminates. *)
