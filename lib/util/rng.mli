(** Deterministic pseudo-random number generation.

    All randomness in the code base flows through this module so that every
    simulation, test and benchmark is reproducible from a single seed.  The
    generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state, excellent
    statistical quality for simulation purposes, and trivially splittable. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from a 64-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use it to give each node / phase its own stream. *)

val named : seed:int -> string -> t
(** [named ~seed name] is an independent stream keyed by [(seed, name)]:
    deterministic, and distinct names never share a stream.  This is how the
    harness splits one master seed into the {e workload} draw, the {e delay}
    (schedule) draw and the {e fault} draw, so that changing what one
    consumer samples cannot silently change what another sees for the same
    seed. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future outputs). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 62 uniform non-negative bits as an OCaml [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)

val bernoulli_at : seed:int -> index:int -> p:float -> bool
(** [bernoulli_at ~seed ~index ~p] is what [bernoulli ~p] returns when it
    makes the [index]-th draw (counting from 1) of [create ~seed], computed
    directly from [(seed, index)]: no generator, no allocation.  Like
    [bernoulli], it is [false] for [p <= 0] and [true] for [p >= 1] without
    looking at the draw. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] is the number of failures before the first success of a
    Bernoulli(p); 0-based. Requires [0 < p <= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement t ~k ~n] draws [k] distinct indices from
    [0, n); raises [Invalid_argument] if [k > n] or arguments are negative. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count with the given mean (>= 0).  Knuth's product
    of uniforms; means above 30 are split recursively
    (Poisson(a+b) = Poisson(a) + Poisson(b)), so large means neither
    underflow nor bias. *)

val zipf : t -> s:float -> n:int -> int
(** [zipf t ~s ~n] samples from a Zipf distribution with exponent [s] over
    ranks [1..n] (returned value is in [1, n]).  Uses inverse-CDF over a
    precomputed table-free rejection-less linear scan for small [n]; intended
    for workload generation, not inner loops. *)
