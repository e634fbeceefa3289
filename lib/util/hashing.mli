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

val to_unit_interval : t -> int -> float
(** Hash an int to a uniform point of [0,1) — used for LDB labels and DHT
    keys. *)

val pair_to_unit_interval : t -> int -> int -> float
(** Ordered pair to a uniform point of [0,1). *)
