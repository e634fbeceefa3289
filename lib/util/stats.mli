(** Small statistics toolkit used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)
