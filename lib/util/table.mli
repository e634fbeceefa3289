(** ASCII table rendering for the experiment harness.

    The experiment binaries print the reproduced tables in a fixed-width
    format so EXPERIMENTS.md can embed them verbatim. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** Raises [Invalid_argument] if [columns] is empty. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val render : t -> string
(** Full table with title, header, separator and rows. *)

val print : t -> unit

val fmt_float : ?dec:int -> float -> string
