(** Small statistics toolkit used by the experiment harness and tests. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val variance : float list -> float
(** Population variance; 0. on lists shorter than 2. *)

val percentile : float list -> p:float -> float
(** [percentile xs ~p] with [p] in [0,100], nearest-rank method.
    Raises [Invalid_argument] on the empty list. *)

val median : float list -> float

val min_max : float list -> float * float
(** Raises [Invalid_argument] on the empty list. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] returns [(lo, hi, count)] per bin over the data
    range. Raises [Invalid_argument] if [bins <= 0] or [xs] is empty. *)

val linear_fit : (float * float) list -> float * float
(** Least-squares fit [y = a + b*x]; returns [(a, b)].
    Raises [Invalid_argument] on fewer than 2 points. *)

val log2_fit : (int * float) list -> float
(** [log2_fit points] fits [y ≈ c * log2 x] through the origin and returns
    [c] — used to check "O(log n)" shapes in experiments. *)
