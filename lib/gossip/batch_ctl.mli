(** Adaptive batch-window control from gossip load estimates.

    The paper's Lemma 3.7/3.8 trade-off: a batch of [b] ops costs
    T(b) = F + c·b rounds (fixed tree-phase latency F plus per-op work), so
    a window of W ticks at global arrival rate λ accumulates λW ops and
    keeps utilisation ρ(W) = F/W + cλ.  Small windows minimise queueing
    latency at low load; at high load they thrash on the fixed cost and the
    queue diverges once ρ > 1.  The controller fits (F, c) online from
    observed batch costs (least squares with geometric forgetting), reads
    λ̂ from the gossip estimator, and tracks the smallest window with
    ρ(W) ≤ [headroom], clamped to [[w_min], [w_max]], with a relative
    hysteresis deadband so the window doesn't chatter between batches.

    The controller is pure bookkeeping over values the runner already
    computes deterministically, so adaptive runs stay seeded-deterministic
    and digest-replayable. *)

type config = {
  w_min : int;  (** smallest window, >= 1 *)
  w_max : int;  (** largest window, >= w_min *)
  headroom : float;  (** target utilisation, in (0, 1] *)
  hysteresis : float;  (** relative deadband: adopt only if |ΔW|/W exceeds it *)
}

val default_config : config
(** [{ w_min = 1; w_max = 64; headroom = 0.8; hysteresis = 0.25 }] *)

type t

val create : config -> t
(** Fresh controller, starting at [w_min] (latency-optimal until evidence
    of load arrives).  Raises [Invalid_argument] on a malformed config. *)

val window : t -> int
(** The current batch window, in ticks. *)

val observe : t -> ops:int -> rounds:int -> unit
(** Feed one completed batch's size and cost into the (F, c) fit; empty
    batches are ignored. *)

val update : t -> lambda_hat:float -> int * bool
(** Re-evaluate the window against the global arrival-rate estimate
    [lambda_hat] (ops per tick, all nodes).  Returns the window now in
    force and whether it changed; before the fit has two samples the
    window is left alone, and before it has three it assumes no per-op
    cost (the window becomes the mean batch cost over [headroom]). *)

(** {2 Textual spec}

    CLI / repro-file form of the adaptive switch. *)

type spec = Off | On of config

val spec_to_string : spec -> string
(** [off], [on] (default config) or [on:wmin:wmax:headroom:hyst];
    round-trips with {!spec_of_string}. *)

val spec_of_string : string -> (spec, string) result
