(** Cost accounting shared by both engines.

    The paper measures three quantities (§1.1):
    - the number of synchronous {e rounds} a protocol takes,
    - the {e congestion}: the maximum number of messages any single node has
      to handle in one round,
    - the {e message size} in bits.

    Both engines feed these counters; experiment code reads them. *)

type t

val create : n:int -> t

val record_delivery : t -> round:int -> dst:int -> bits:int -> unit
(** One message delivered to [dst] during [round]. *)

val record_local : t -> unit
(** A free co-located (virtual-edge) delivery; counted separately, charged
    neither to congestion nor to message totals. *)

val rounds : t -> int
(** Test seam.  Highest round in which a delivery was recorded + 1 (0 if
    none). *)

val total_messages : t -> int
val total_bits : t -> int
val local_deliveries : t -> int

val max_message_bits : t -> int
(** Largest single message observed. *)

val max_congestion : t -> int
(** max over (node, round) of delivered messages. *)

val node_load : t -> int array
(** Total messages delivered per node over the whole run (a copy). *)

val max_node_load : t -> int
(** The largest entry of {!node_load}, read without copying. *)

val reset : t -> unit
