(** Deterministic "publicly known pseudorandom hash functions".

    The paper assumes publicly known pseudorandom hash functions in several
    places: the DHT key hash [h : P x N -> N] (Skeap Phase 4), the label hash
    of the LDB (Appendix A) and the pairwise rendezvous hash
    [h(i,j) = h(j,i)] of KSelect Phase 2b.  We realize them with seeded
    SplitMix64 finalizers: deterministic given the seed, uniform, and
    independent across distinct seeds. *)

type t
(** A keyed hash function. *)

val create : seed:int -> t
(** A hash function keyed by [seed]; two instances with the same seed agree. *)

val int : t -> int -> int
(** Hash an int to a uniform non-negative int (62 bits). *)

val pair : t -> int -> int -> int
(** Hash an ordered pair. *)

val point : t -> int -> int
(** Hash an int to a uniform point of [\[0,1)], given as its 53-bit
    mantissa [m] in [\[0, 2{^53})]: the point is [m·2{^-53}], exactly a
    double.  Used for LDB labels, DHT keys and KSelect's positions; an int
    crosses a library boundary unboxed, and [Ldb]'s lookups take it as
    is. *)

val pair_point : t -> int -> int -> int
(** An ordered pair to a uniform point of [\[0,1)], as {!point} gives
    it: [pair_point t i j = pair t i j lsr 9]. *)
