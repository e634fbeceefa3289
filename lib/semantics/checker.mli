(** The verifier for the paper's semantics (Definitions 1.1 and 1.2).

    A protocol hands over an {!Oplog.t} whose [witness] fields encode the
    serialization order ≺ the protocol claims.  There is one checker,
    {!Online}, which consumes records in witness order and runs three
    machines over them:

    - {b well-formedness}: witness positions unique, per-node [local_seq]
      values unique, inserts carry no result, no [(origin, seq)] element
      identity inserted twice;
    - {b replay}: replaying every operation sequentially in witness order
      on a reference heap reproduces exactly the results the distributed
      execution produced (any element of the minimum priority may come
      out, ⊥ exactly on the empty heap);
    - {b local consistency}: for every node, witness order restricted to
      that node equals its issue order (Definition 1.1's extra condition
      for sequential consistency).  Every contract except Seap's requires
      it.

    The verdict is the first violation of the first machine that failed,
    in that order.

    {b Replay implies Definition 1.2.}  Once well-formedness and replay
    both pass, the matching M is heap-consistent clause by clause:
    (1) a matched delete returned an element present in the replay heap,
    so its (unique) insert came first; (2) a ⊥-delete while the matched
    element is live is rejected by replay; (3) an unmatched insert with a
    smaller priority is still live at the matched delete, so replay
    rejects that delete's priority.  Def. 1.2 is therefore not checked
    separately; the tests state it literally and check the implication.

    Every violation is structured — which clause failed, on which
    operation(s) — because the exploration harness ({!Dpq_explore.Explore})
    shrinks failing schedules while preserving the violated {!clause}. *)

(** Which part of the specification a log violated. *)
type clause =
  | Well_formedness  (** Duplicate witness, local_seq or element; insert with a result. *)
  | Local_consistency  (** Definition 1.1's per-node order condition. *)
  | Serializability  (** Replay divergence from the reference heap. *)

val clause_name : clause -> string
(** Stable kebab-case name (["local-consistency"], ...), used in repro files. *)

type op_ref = { node : int; local_seq : int; witness : int }
(** Provenance handle for one logged operation. *)

type violation = {
  clause : clause;
  culprit : op_ref option;  (** the operation the check tripped on *)
  partner : op_ref option;  (** the other operation of the offending pair *)
  detail : string;  (** human-readable explanation *)
}

val violation_to_string : violation -> string

(** {2 Incremental checking}

    At the scale frontier (n = 4096..65536, 10⁶+ ops) holding the whole
    oplog before verifying is not an option.  {!Online} consumes records
    {e as they complete}, in witness order.  A returned element leaves the
    replay heap the moment its delete is fed, so memory is
    O(live elements + nodes), not O(total ops).

    Two consequences of that memory bound are part of the contract: an
    element returned twice surfaces as a [Serializability] violation,
    not as [Well_formedness], and duplicate-insert
    detection keys on [(origin, seq)] rather than on the full element. *)

module Online : sig
  type t

  type contract =
    | Skeap_contract
        (** Theorem 3.2: well-formedness, heap replay, local consistency —
            also the contract for the baselines. *)
    | Seap_contract  (** Theorem 5.1: as above minus local consistency. *)

  val create : contract -> t

  val feed : t -> Oplog.record -> unit
  (** Feed the next completed operation.  Records must arrive in
      nondecreasing witness order (the order {!Oplog.to_list} yields, and
      the order every backend completes operations in). *)

  val feed_all : t -> Oplog.record list -> unit
  (** [List.iter (feed t)]. *)

  val finish : t -> (unit, violation) result
  (** The verdict over everything fed so far.  May be called repeatedly;
      feeding may continue afterwards (a violation, once latched, stays). *)

  val failed : t -> bool
  (** A violation has already latched — the run is doomed regardless of
      what is fed later.  Equivalent to [finish t <> Ok ()]. *)

  val records_fed : t -> int

  val live_elements : t -> int
  (** Elements currently in the replay heap (inserted, not yet
      returned). *)

  val peak_live : t -> int
  (** High-water mark of {!live_elements} — the checker's state is O(this),
      the observable for the bench's peak-heap ceiling. *)
end

val explain : Online.contract -> Oplog.t -> (unit, violation) result
(** Feed the whole log to a fresh {!Online.t} and {!Online.finish}. *)

val check : Online.contract -> Oplog.t -> (unit, string) result
(** {!explain} with the violation rendered by {!violation_to_string}. *)
