(** Deterministic pseudo-random number generation.

    All randomness in the code base flows through this module so that every
    simulation, test and benchmark is reproducible from a single seed.  The
    generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state, excellent
    statistical quality for simulation purposes, and trivially splittable.

    The state is held unboxed, so [bits], [int], [int_in], [bool],
    [bernoulli], [poisson], [shuffle] and [zipf] allocate nothing per
    draw, also when called from another library.  [float], [int64] and
    [exponential] return a boxed value across a library boundary (the dev
    profile compiles with [-opaque], so no call is inlined there): 2, 3
    and 2 words per call. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from a 64-bit seed. *)

val split : t -> t
(** Test seam: no protocol draws through it; the tests check stream
    independence with it.  [split t] derives an independent generator from
    [t], advancing [t]. *)

val named : seed:int -> string -> t
(** [named ~seed name] is an independent stream keyed by [(seed, name)]:
    deterministic, and distinct names never share a stream.  This is how the
    harness splits one master seed into the {e workload} draw, the {e delay}
    (schedule) draw and the {e fault} draw, so that changing what one
    consumer samples cannot silently change what another sees for the same
    seed. *)

val copy : t -> t
(** Test seam: the tests check that a copy resumes the same stream.
    [copy t] duplicates the current state (same future outputs). *)

val int64 : t -> int64
(** Test seam: the tests compare streams through it.  Next raw 64-bit
    output. *)

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

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val poisson : t -> mean:float -> int
(** Poisson-distributed count with the given mean (finite, >= 0; raises
    [Invalid_argument] otherwise).  Knuth's product of uniforms; means
    above 30 are halved until they are not, and the halves' counts
    summed (Poisson(a+b) = Poisson(a) + Poisson(b)), so large means
    neither underflow nor bias. *)

val zipf : t -> s:float -> n:int -> int
(** [zipf t ~s ~n] samples from a Zipf distribution with exponent [s] over
    ranks [1..n] (returned value is in [1, n]).  Uses inverse-CDF over a
    precomputed table-free rejection-less linear scan for small [n]; intended
    for workload generation, not inner loops. *)
