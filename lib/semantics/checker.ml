module Element = Dpq_util.Element
module Binheap = Dpq_util.Binheap

(* ------------------------------------------------------------ violations *)

type clause = Well_formedness | Local_consistency | Serializability

let clause_name = function
  | Well_formedness -> "well-formedness"
  | Local_consistency -> "local-consistency"
  | Serializability -> "serializability"

type op_ref = { node : int; local_seq : int; witness : int }

type violation = {
  clause : clause;
  culprit : op_ref option;
  partner : op_ref option;
  detail : string;
}

let ref_of (r : Oplog.record) =
  { node = r.Oplog.node; local_seq = r.Oplog.local_seq; witness = r.Oplog.witness }

let pp_op_ref fmt r =
  Format.fprintf fmt "op(node=%d,seq=%d,witness=%d)" r.node r.local_seq r.witness

let violation_to_string v =
  let opt name = function
    | None -> ""
    | Some r -> Format.asprintf " %s=%a" name pp_op_ref r
  in
  Printf.sprintf "[%s] %s%s%s" (clause_name v.clause) v.detail (opt "culprit" v.culprit)
    (opt "partner" v.partner)

(* ------------------------------------------------------- online checking *)

module Online = struct
  (* Records are fed one at a time in witness order and three machines
     update their state per record —

       M1  well-formedness
       M2  replay against a reference heap
       M3  local consistency (every contract but Seap's)

     Each machine latches its first violation.  [finish] reports the first
     latched machine in that order.  Once a machine latches, later machines
     stop being fed: their verdict can no longer be reported.

     Memory is O(live elements + nodes): a returned element leaves the
     replay heap when its delete is fed, and the duplicate trackers
     keep only a watermark plus the out-of-order arrivals above it. *)

  type contract = Skeap_contract | Seap_contract

  (* Duplicate detection over an eventually-dense integer sequence in
     O(watermark gap) space: everything below [mark] has been seen; the
     out-of-order arrivals at or above it sit in [pending] until the
     watermark sweeps past them. *)
  module Dense = struct
    type t = { mutable mark : int; pending : (int, unit) Hashtbl.t }

    let create () = { mark = 0; pending = Hashtbl.create 8 }

    let add t s =
      if s < t.mark || Hashtbl.mem t.pending s then `Duplicate
      else begin
        Hashtbl.replace t.pending s ();
        while Hashtbl.mem t.pending t.mark do
          Hashtbl.remove t.pending t.mark;
          t.mark <- t.mark + 1
        done;
        `Fresh
      end
  end

  type elt_key = int * int * int

  type t = {
    contract : contract;
    mutable fed : int;
    (* M1: well-formedness *)
    mutable wf : violation option;
    mutable last_witness : int;
    node_seqs : (int, Dense.t) Hashtbl.t;
    origin_ins_seqs : (int, Dense.t) Hashtbl.t;
    (* M2: replay.  The reference heap holds one bucket of live elements
       per priority; [prios] holds each priority at most once (pushed when
       it enters [enqueued], lazily popped when its bucket drains), so it
       is bounded by the distinct live priorities. *)
    mutable replay : violation option;
    by_prio : (int, (elt_key, unit) Hashtbl.t) Hashtbl.t;
    prios : int Binheap.t;
    enqueued : (int, unit) Hashtbl.t;
    mutable live : int;
    mutable peak_live : int;
    (* M3: local consistency *)
    mutable local : violation option;
    last_local : (int, Oplog.record) Hashtbl.t;
  }

  let create contract =
    {
      contract;
      fed = 0;
      wf = None;
      last_witness = min_int;
      node_seqs = Hashtbl.create 64;
      origin_ins_seqs = Hashtbl.create 64;
      replay = None;
      by_prio = Hashtbl.create 64;
      prios = Binheap.create ~cmp:Int.compare;
      enqueued = Hashtbl.create 16;
      live = 0;
      peak_live = 0;
      local = None;
      last_local = Hashtbl.create 64;
    }

  let records_fed t = t.fed
  let live_elements t = t.live
  let peak_live t = t.peak_live
  let elt_key (e : Element.t) = (e.Element.prio, e.Element.origin, e.Element.seq)

  let dense_for tbl key =
    match Hashtbl.find_opt tbl key with
    | Some d -> d
    | None ->
        let d = Dense.create () in
        Hashtbl.replace tbl key d;
        d

  (* --- M1: well-formedness.  Duplicate witnesses need one integer of
     state: the feed contract (nondecreasing witness order, which
     Oplog.to_list guarantees even for corrupted logs) puts a repeat right
     after its first occurrence. *)
  let latch_wf t fmt =
    Printf.ksprintf
      (fun detail ->
        t.wf <- Some { clause = Well_formedness; culprit = None; partner = None; detail })
      fmt

  let feed_wf t (r : Oplog.record) =
    if r.Oplog.witness <= t.last_witness then
      latch_wf t "duplicate witness position %d" r.Oplog.witness
    else begin
      t.last_witness <- r.Oplog.witness;
      match Dense.add (dense_for t.node_seqs r.Oplog.node) r.Oplog.local_seq with
      | `Duplicate -> latch_wf t "duplicate local_seq %d at node %d" r.Oplog.local_seq r.Oplog.node
      | `Fresh -> (
          match r.Oplog.kind with
          | Oplog.Insert e ->
              if r.Oplog.result <> None then latch_wf t "insert with a result at node %d" r.Oplog.node
              else if
                Dense.add (dense_for t.origin_ins_seqs e.Element.origin) e.Element.seq
                = `Duplicate
              then latch_wf t "element %s inserted twice" (Element.to_string e)
          | Oplog.Delete_min -> ())
    end

  (* --- M2: replay.  A delete may return any live element of the minimum
     priority — Definition 1.2 leaves equal-priority ties unconstrained
     (Skeap resolves them FIFO-by-position, Seap by the element
     tiebreaker). *)
  let latch_replay t (r : Oplog.record) fmt =
    Printf.ksprintf
      (fun detail ->
        t.replay <-
          Some { clause = Serializability; culprit = Some (ref_of r); partner = None; detail })
      fmt

  let bucket by_prio p =
    match Hashtbl.find_opt by_prio p with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 8 in
        Hashtbl.replace by_prio p b;
        b

  let rec min_prio t =
    match Binheap.peek t.prios with
    | None -> None
    | Some p ->
        if Hashtbl.length (bucket t.by_prio p) = 0 then begin
          ignore (Binheap.pop t.prios);
          Hashtbl.remove t.enqueued p;
          min_prio t
        end
        else Some p

  let replay_insert t e =
    let p = Element.prio e in
    Hashtbl.replace (bucket t.by_prio p) (elt_key e) ();
    if not (Hashtbl.mem t.enqueued p) then begin
      Hashtbl.replace t.enqueued p ();
      Binheap.push t.prios p
    end;
    t.live <- t.live + 1;
    if t.live > t.peak_live then t.peak_live <- t.live

  let replay_delete t (r : Oplog.record) =
    match (min_prio t, r.Oplog.result) with
    | None, None -> ()
    | None, Some got ->
        latch_replay t r "delete at node %d (op %d) returned %s from an empty heap" r.Oplog.node
          r.Oplog.local_seq (Element.to_string got)
    | Some p, None ->
        latch_replay t r "delete at node %d (op %d) returned ⊥ but priority %d is present"
          r.Oplog.node r.Oplog.local_seq p
    | Some p, Some got ->
        if Element.prio got <> p then
          latch_replay t r "delete at node %d (op %d) returned priority %d but the minimum is %d"
            r.Oplog.node r.Oplog.local_seq (Element.prio got) p
        else
          let b = bucket t.by_prio p and k = elt_key got in
          if not (Hashtbl.mem b k) then
            latch_replay t r "delete at node %d (op %d) returned %s which is not in the heap"
              r.Oplog.node r.Oplog.local_seq (Element.to_string got)
          else begin
            Hashtbl.remove b k;
            t.live <- t.live - 1
          end

  (* --- M3: local consistency.  [partner] is the node's previous record
     in witness order. *)
  let feed_local t (r : Oplog.record) =
    (match Hashtbl.find_opt t.last_local r.Oplog.node with
    | Some prev when prev.Oplog.local_seq >= r.Oplog.local_seq ->
        t.local <-
          Some
            {
              clause = Local_consistency;
              culprit = Some (ref_of r);
              partner = Some (ref_of prev);
              detail =
                Printf.sprintf "node %d: local op %d appears in ≺ after local op %d" r.Oplog.node
                  r.Oplog.local_seq prev.Oplog.local_seq;
            }
    | _ -> ());
    Hashtbl.replace t.last_local r.Oplog.node r

  let feed t (r : Oplog.record) =
    t.fed <- t.fed + 1;
    if t.wf = None then feed_wf t r;
    if t.wf = None && t.replay = None then begin
      (match r.Oplog.kind with
      | Oplog.Insert e -> replay_insert t e
      | Oplog.Delete_min -> replay_delete t r);
      if t.replay = None && t.local = None && t.contract <> Seap_contract then feed_local t r
    end

  let feed_all t rs = List.iter (feed t) rs

  let finish t =
    match (t.wf, t.replay, t.local) with
    | Some v, _, _ | None, Some v, _ | None, None, Some v -> Error v
    | None, None, None -> Ok ()

  let failed t = t.wf <> None || t.replay <> None || t.local <> None
end

let explain contract log =
  let t = Online.create contract in
  Online.feed_all t (Oplog.to_list log);
  Online.finish t

let check contract log = Result.map_error violation_to_string (explain contract log)
