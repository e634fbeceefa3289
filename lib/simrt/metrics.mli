(** Cost accounting shared by both engines.

    The paper measures three quantities (§1.1):
    - the number of synchronous {e rounds} a protocol takes,
    - the {e congestion}: the maximum number of messages any single node has
      to handle in one round,
    - the {e message size} in bits.

    Both engines feed these counters; experiment code reads them. *)

type t

val create : n:int -> t
val n : t -> int

val record_delivery : t -> round:int -> dst:int -> bits:int -> unit
(** One message delivered to [dst] during [round]. *)

val record_local : t -> unit
(** A free co-located (virtual-edge) delivery; counted separately, charged
    neither to congestion nor to message totals. *)

val rounds : t -> int
(** Highest round in which a delivery was recorded + 1 (0 if none). *)

val total_messages : t -> int
val total_bits : t -> int
val local_deliveries : t -> int

val max_message_bits : t -> int
(** Largest single message observed. *)

val max_congestion : t -> int
(** max over (node, round) of delivered messages. *)

val node_load : t -> int array
(** Total messages delivered per node over the whole run. *)

val reset : t -> unit

val merge_max : t -> t -> unit
(** [merge_max acc t] folds [t]'s totals into [acc], taking maxima for the
    max-type counters and sums for the totals; used to accumulate across
    protocol phases. *)
