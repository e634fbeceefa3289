(** Bit-size helpers for the message-size accounting (paper Lemmas 3.8, 5.5).

    All wire-format costs in the simulator are computed from these helpers so
    message-size experiments measure a consistent encoding. *)

val bits_of_int : int -> int
(** Number of bits to encode [abs v]; at least 1. *)

val bits_of_nat_bound : int -> int
(** Bits needed to encode any value in [\[0, bound\]]. *)

val log2_ceil : int -> int
(** [log2_ceil n] = ⌈log2 n⌉ for n >= 1; raises on n <= 0. *)

val interval_bits : lo:int -> hi:int -> int
(** Cost of an interval: two endpoint encodings. *)
