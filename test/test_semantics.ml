module O = Dpq_semantics.Oplog
module C = Dpq_semantics.Checker
module E = Dpq_util.Element

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let ok_or_fail = function Ok () -> () | Error v -> Alcotest.fail (C.violation_to_string v)

let expect_clause name clause = function
  | Ok () -> Alcotest.failf "%s: expected the checker to reject this log" name
  | Error (v : C.violation) -> checks name (C.clause_name clause) (C.clause_name v.C.clause)

let skeap = C.explain C.Online.Skeap_contract
let seap = C.explain C.Online.Seap_contract
let contracts = C.Online.[ Skeap_contract; Seap_contract; Fifo_contract; Lifo_contract ]

let elt ?(prio = 1) ?(origin = 0) ?(seq = 0) () = E.make ~prio ~origin ~seq ()

let ins ~w ~node ~seq e =
  O.{ node; local_seq = seq; witness = w; kind = O.Insert e; result = None }

let del ~w ~node ~seq result =
  O.{ node; local_seq = seq; witness = w; kind = O.Delete_min; result }

(* -------------------------------------------------- reference oracles *)

(* Definition 1.2, read literally off the matching M: (1) every matched
   insert precedes its delete; (2) no ⊥-delete lies strictly between a
   matched pair; (3) no unmatched insert of smaller priority precedes a
   matched delete.  A delete of a never-inserted element has no matching. *)
let def12_holds log =
  match O.matching log with
  | exception Invalid_argument _ -> false
  | m ->
      let records = O.to_list log in
      let w (r : O.record) = r.O.witness in
      let prio (r : O.record) =
        match r.O.kind with O.Insert e -> E.prio e | O.Delete_min -> assert false
      in
      let bottoms =
        List.filter (fun (r : O.record) -> r.O.kind = O.Delete_min && r.O.result = None) records
      in
      let unmatched_ins =
        List.filter
          (fun (r : O.record) ->
            match r.O.kind with
            | O.Insert _ -> not (List.exists (fun (i, _) -> w i = w r) m)
            | O.Delete_min -> false)
          records
      in
      List.for_all
        (fun (i, d) ->
          w i < w d
          && (not (List.exists (fun b -> w i < w b && w b < w d) bottoms))
          && not (List.exists (fun u -> prio u < prio i && w u < w d) unmatched_ins))
        m

let ref_of (r : O.record) = C.{ node = r.O.node; local_seq = r.O.local_seq; witness = r.O.witness }

(* [check earlier r] for every record in witness order, [earlier] holding
   the records before [r], most recent first; the first offence wins. *)
let scan check records =
  let rec go earlier = function
    | [] -> None
    | r :: rest -> (
        match check earlier r with Some _ as v -> v | None -> go (r :: earlier) rest)
  in
  go [] records

let wf_offence earlier (r : O.record) =
  let offence = Some (C.Well_formedness, None, None) in
  if List.exists (fun (p : O.record) -> p.O.witness = r.O.witness) earlier then offence
  else if
    List.exists (fun (p : O.record) -> p.O.node = r.O.node && p.O.local_seq = r.O.local_seq) earlier
  then offence
  else
    match r.O.kind with
    | O.Insert e ->
        let same_identity (p : O.record) =
          match p.O.kind with
          | O.Insert e' -> e'.E.origin = e.E.origin && e'.E.seq = e.E.seq
          | O.Delete_min -> false
        in
        if r.O.result <> None || List.exists same_identity earlier then offence else None
    | O.Delete_min -> None

(* Replay on a plain list of live elements, oldest first. *)
let replay_offence contract records =
  let clause, admissible =
    match contract with
    | C.Online.Skeap_contract | C.Online.Seap_contract ->
        ( C.Serializability,
          fun live got ->
            let m = List.fold_left (fun m e -> min m (E.prio e)) max_int live in
            E.prio got = m && List.exists (E.equal got) live )
    | C.Online.Fifo_contract ->
        (C.Fifo_order, fun live got -> match live with e :: _ -> E.equal e got | [] -> false)
    | C.Online.Lifo_contract ->
        (C.Lifo_order, fun live got -> match List.rev live with e :: _ -> E.equal e got | [] -> false)
  in
  let rec go live = function
    | [] -> None
    | (r : O.record) :: rest -> (
        let offence = Some (clause, Some (ref_of r), None) in
        match (r.O.kind, r.O.result) with
        | O.Insert e, _ -> go (live @ [ e ]) rest
        | O.Delete_min, None -> if live = [] then go live rest else offence
        | O.Delete_min, Some got ->
            if admissible live got then go (List.filter (fun e -> not (E.equal e got)) live) rest
            else offence)
  in
  go [] records

let local_offence earlier (r : O.record) =
  match List.find_opt (fun (p : O.record) -> p.O.node = r.O.node) earlier with
  | Some prev when prev.O.local_seq >= r.O.local_seq ->
      Some (C.Local_consistency, Some (ref_of r), Some (ref_of prev))
  | _ -> None

(* The checker's definitions, O(len²) and stateless: the first offending
   record of the first failing machine, in the order well-formedness,
   replay, local consistency (the last for every contract but Seap's). *)
let oracle contract log =
  let records = O.to_list log in
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  scan wf_offence records <|> fun () ->
  replay_offence contract records <|> fun () ->
  if contract = C.Online.Seap_contract then None else scan local_offence records

let agrees contract log =
  let got =
    match C.explain contract log with
    | Ok () -> None
    | Error v -> Some (v.C.clause, v.C.culprit, v.C.partner)
  in
  got = oracle contract log

(* Same verdict as the oracle under every contract, and a heap-contract
   acceptance is a Def. 1.2-consistent matching (Seap's contract is the
   weaker of the two, so its acceptance covers Skeap's). *)
let agree_all log =
  List.for_all (fun c -> agrees c log) contracts && (seap log <> Ok () || def12_holds log)

(* --------------------------------------------------------------- Oplog *)

let test_oplog_ordering () =
  let e = elt () in
  let log = O.of_list [ del ~w:5 ~node:0 ~seq:1 None; ins ~w:2 ~node:0 ~seq:0 e ] in
  match O.to_list log with
  | [ a; b ] ->
      checkb "sorted by witness" true (a.O.witness = 2 && b.O.witness = 5)
  | _ -> Alcotest.fail "expected two records"

let test_oplog_matching () =
  let e1 = elt ~seq:0 () and e2 = elt ~seq:1 () in
  let log =
    O.of_list
      [
        ins ~w:0 ~node:0 ~seq:0 e1;
        ins ~w:1 ~node:1 ~seq:0 e2;
        del ~w:2 ~node:2 ~seq:0 (Some e2);
        del ~w:3 ~node:2 ~seq:1 None;
      ]
  in
  (match O.matching log with
  | [ (i, d) ] ->
      checkb "matched pair" true (i.O.witness = 1 && d.O.witness = 2)
  | _ -> Alcotest.fail "expected exactly one matched pair");
  checkb "matching of alien element raises" true
    (try
       ignore (O.matching (O.of_list [ del ~w:0 ~node:0 ~seq:0 (Some (elt ~seq:9 ())) ]));
       false
     with Invalid_argument _ -> true)

let test_well_formed_catches () =
  let e = elt () in
  expect_clause "dup witness" C.Well_formedness
    (skeap (O.of_list [ ins ~w:1 ~node:0 ~seq:0 e; del ~w:1 ~node:0 ~seq:1 None ]));
  expect_clause "dup local seq" C.Well_formedness
    (skeap (O.of_list [ ins ~w:1 ~node:0 ~seq:0 e; del ~w:2 ~node:0 ~seq:0 None ]));
  expect_clause "double insert" C.Well_formedness
    (skeap (O.of_list [ ins ~w:1 ~node:0 ~seq:0 e; ins ~w:2 ~node:0 ~seq:1 e ]));
  expect_clause "insert with result" C.Well_formedness
    (skeap (O.of_list [ { (ins ~w:0 ~node:0 ~seq:0 e) with O.result = Some e } ]));
  (* a retired element is forgotten, so its second return is a replay
     divergence, not a well-formedness one *)
  expect_clause "double return" C.Serializability
    (skeap
       (O.of_list
          [
            ins ~w:0 ~node:0 ~seq:0 e;
            del ~w:1 ~node:0 ~seq:1 (Some e);
            del ~w:2 ~node:0 ~seq:2 (Some e);
          ]));
  ok_or_fail (skeap (O.of_list [ ins ~w:0 ~node:0 ~seq:0 e; del ~w:1 ~node:1 ~seq:0 (Some e) ]))

(* ------------------------------------------------------------- Checker *)

let test_serializability_accepts_valid () =
  let e1 = elt ~prio:1 ~seq:0 () and e2 = elt ~prio:2 ~seq:1 () in
  let log =
    O.of_list
      [
        ins ~w:0 ~node:0 ~seq:0 e2;
        ins ~w:1 ~node:1 ~seq:0 e1;
        del ~w:2 ~node:2 ~seq:0 (Some e1);
        del ~w:3 ~node:2 ~seq:1 (Some e2);
        del ~w:4 ~node:2 ~seq:2 None;
      ]
  in
  ok_or_fail (skeap log);
  ok_or_fail (seap log);
  checkb "def 1.2" true (def12_holds log)

let test_serializability_rejects_wrong_priority () =
  let e1 = elt ~prio:1 ~seq:0 () and e2 = elt ~prio:2 ~seq:1 () in
  expect_clause "returned higher priority while lower present" C.Serializability
    (seap
       (O.of_list
          [
            ins ~w:0 ~node:0 ~seq:0 e1;
            ins ~w:1 ~node:0 ~seq:1 e2;
            del ~w:2 ~node:1 ~seq:0 (Some e2);
          ]))

let test_serializability_rejects_bottom_on_nonempty () =
  let e1 = elt ~prio:1 () in
  expect_clause "⊥ while heap nonempty" C.Serializability
    (seap (O.of_list [ ins ~w:0 ~node:0 ~seq:0 e1; del ~w:1 ~node:1 ~seq:0 None ]))

let test_serializability_rejects_return_from_empty () =
  let e1 = elt ~prio:1 () in
  expect_clause "return from empty heap" C.Serializability
    (seap (O.of_list [ del ~w:0 ~node:0 ~seq:0 (Some e1) ]))

let test_serializability_rejects_delete_before_insert () =
  let e1 = elt ~prio:1 () in
  expect_clause "delete witnessed before its insert" C.Serializability
    (seap (O.of_list [ del ~w:0 ~node:0 ~seq:0 (Some e1); ins ~w:1 ~node:1 ~seq:0 e1 ]))

let test_serializability_accepts_any_tiebreak () =
  (* Equal priorities: either element may come out first. *)
  let a = elt ~prio:5 ~origin:0 ~seq:0 () and b = elt ~prio:5 ~origin:1 ~seq:0 () in
  List.iter
    (fun (first, second) ->
      ok_or_fail
        (seap
           (O.of_list
              [
                ins ~w:0 ~node:0 ~seq:0 a;
                ins ~w:1 ~node:1 ~seq:0 b;
                del ~w:2 ~node:2 ~seq:0 (Some first);
                del ~w:3 ~node:2 ~seq:1 (Some second);
              ])))
    [ (a, b); (b, a) ]

let test_local_consistency () =
  let e1 = elt ~seq:0 () and e2 = elt ~prio:2 ~seq:1 () in
  ok_or_fail (skeap (O.of_list [ ins ~w:0 ~node:0 ~seq:0 e1; ins ~w:1 ~node:0 ~seq:1 e2 ]));
  let inverted = O.of_list [ ins ~w:0 ~node:0 ~seq:1 e2; ins ~w:1 ~node:0 ~seq:0 e1 ] in
  expect_clause "node's ops out of order" C.Local_consistency (skeap inverted);
  ok_or_fail (seap inverted)

(* The three Def. 1.2 violations: each breaks the literal clause and is
   rejected by replay, before any clause would be consulted. *)
let expect_def12_violation name log =
  checkb (name ^ ": def 1.2 fails") false (def12_holds log);
  expect_clause name C.Serializability (skeap log);
  expect_clause name C.Serializability (seap log)

let test_heap_consistency_clauses () =
  let e1 = elt ~prio:1 ~seq:0 () and e2 = elt ~prio:2 ~seq:1 () in
  (* valid: e1 matched, e2 left in the heap *)
  let valid =
    O.of_list
      [ ins ~w:0 ~node:0 ~seq:0 e1; ins ~w:1 ~node:0 ~seq:1 e2; del ~w:2 ~node:1 ~seq:0 (Some e1) ]
  in
  checkb "valid: def 1.2" true (def12_holds valid);
  ok_or_fail (skeap valid);
  (* clause 2 violation: a ⊥ delete sits between a matched insert/delete *)
  expect_def12_violation "⊥ between matched pair"
    (O.of_list
       [ ins ~w:0 ~node:0 ~seq:0 e1; del ~w:1 ~node:1 ~seq:0 None; del ~w:2 ~node:1 ~seq:1 (Some e1) ]);
  (* clause 3 violation: unmatched smaller-priority insert precedes a
     matched delete of a larger priority *)
  expect_def12_violation "unmatched smaller priority skipped"
    (O.of_list
       [ ins ~w:0 ~node:0 ~seq:0 e1; ins ~w:1 ~node:0 ~seq:1 e2; del ~w:2 ~node:1 ~seq:0 (Some e2) ])

let test_clause1_violation () =
  let e1 = elt ~prio:1 () in
  expect_def12_violation "matched delete precedes its insert"
    (O.of_list [ del ~w:0 ~node:0 ~seq:0 (Some e1); ins ~w:1 ~node:1 ~seq:0 e1 ])

let test_check_all_composites () =
  let e1 = elt ~prio:1 ~seq:0 () in
  let good = O.of_list [ ins ~w:0 ~node:0 ~seq:0 e1; del ~w:1 ~node:0 ~seq:1 (Some e1) ] in
  List.iter (fun c -> ok_or_fail (C.explain c good)) contracts;
  checkb "check renders Ok" true (C.check C.Online.Skeap_contract good = Ok ());
  (* seap tolerates local-order inversions, skeap does not *)
  let e2 = elt ~prio:2 ~seq:1 () in
  let inverted =
    O.of_list
      [
        ins ~w:0 ~node:0 ~seq:1 e2;
        ins ~w:1 ~node:0 ~seq:0 e1;
        del ~w:2 ~node:1 ~seq:0 (Some e1);
        del ~w:3 ~node:1 ~seq:1 (Some e2);
      ]
  in
  expect_clause "skeap rejects local inversion" C.Local_consistency (skeap inverted);
  ok_or_fail (seap inverted);
  checkb "check renders the violation" true
    (C.check C.Online.Skeap_contract inverted
    = Result.map_error C.violation_to_string (skeap inverted));
  (* a queue log: FIFO accepts, LIFO and the heap contracts reject *)
  let a = elt ~prio:2 ~seq:0 () and b = elt ~prio:1 ~seq:1 () in
  let fifo =
    O.of_list
      [
        ins ~w:0 ~node:0 ~seq:0 a;
        ins ~w:1 ~node:0 ~seq:1 b;
        del ~w:2 ~node:1 ~seq:0 (Some a);
        del ~w:3 ~node:1 ~seq:1 (Some b);
      ]
  in
  ok_or_fail (C.explain C.Online.Fifo_contract fifo);
  expect_clause "lifo rejects a queue log" C.Lifo_order (C.explain C.Online.Lifo_contract fifo);
  expect_clause "heap rejects a queue log" C.Serializability (skeap fifo)

(* One hand-written log per message the checker can produce, pinned to
   its exact rendering. *)
let test_exact_violations () =
  let e1 = elt ~prio:1 ~seq:0 () and e2 = elt ~prio:2 ~seq:1 () in
  let twin = elt ~prio:1 ~origin:5 ~seq:0 () in
  let pin contract records expected =
    match C.explain contract (O.of_list records) with
    | Ok () -> Alcotest.failf "expected %s" expected
    | Error v -> checks expected expected (C.violation_to_string v)
  in
  let heap = C.Online.Skeap_contract in
  pin heap
    [ ins ~w:1 ~node:0 ~seq:0 e1; del ~w:1 ~node:0 ~seq:1 None ]
    "[well-formedness] duplicate witness position 1";
  pin heap
    [ ins ~w:1 ~node:0 ~seq:0 e1; del ~w:2 ~node:0 ~seq:0 None ]
    "[well-formedness] duplicate local_seq 0 at node 0";
  pin heap
    [ { (ins ~w:0 ~node:3 ~seq:0 e1) with O.result = Some e1 } ]
    "[well-formedness] insert with a result at node 3";
  pin heap
    [ ins ~w:1 ~node:0 ~seq:0 e1; ins ~w:2 ~node:0 ~seq:1 e1 ]
    "[well-formedness] element e(p=1,0.0) inserted twice";
  pin heap
    [ del ~w:0 ~node:2 ~seq:0 (Some e1) ]
    "[serializability] delete at node 2 (op 0) returned e(p=1,0.0) from an empty heap \
     culprit=op(node=2,seq=0,witness=0)";
  pin heap
    [ ins ~w:0 ~node:0 ~seq:0 e1; del ~w:1 ~node:1 ~seq:0 None ]
    "[serializability] delete at node 1 (op 0) returned ⊥ but priority 1 is present \
     culprit=op(node=1,seq=0,witness=1)";
  pin heap
    [ ins ~w:0 ~node:0 ~seq:0 e1; ins ~w:1 ~node:0 ~seq:1 e2; del ~w:2 ~node:1 ~seq:0 (Some e2) ]
    "[serializability] delete at node 1 (op 0) returned priority 2 but the minimum is 1 \
     culprit=op(node=1,seq=0,witness=2)";
  pin heap
    [ ins ~w:0 ~node:0 ~seq:0 e1; del ~w:1 ~node:1 ~seq:0 (Some twin) ]
    "[serializability] delete at node 1 (op 0) returned e(p=1,5.0) which is not in the heap \
     culprit=op(node=1,seq=0,witness=1)";
  pin heap
    [ ins ~w:0 ~node:0 ~seq:1 e2; ins ~w:1 ~node:0 ~seq:0 e1 ]
    "[local-consistency] node 0: local op 0 appears in ≺ after local op 1 \
     culprit=op(node=0,seq=0,witness=1) partner=op(node=0,seq=1,witness=0)";
  List.iter
    (fun (contract, name, what, wrong, right) ->
      let two = [ ins ~w:0 ~node:0 ~seq:0 e1; ins ~w:1 ~node:0 ~seq:1 e2 ] in
      pin contract
        (two @ [ del ~w:2 ~node:1 ~seq:0 (Some wrong) ])
        (Printf.sprintf
           "[%s] %s replay: delete at node 1 (op 0) returned %s, expected %s \
            culprit=op(node=1,seq=0,witness=2)"
           name what (E.to_string wrong) (E.to_string right));
      pin contract
        (two @ [ del ~w:2 ~node:1 ~seq:0 None ])
        (Printf.sprintf
           "[%s] %s replay: delete returned ⊥ but %s is present culprit=op(node=1,seq=0,witness=2)"
           name what (E.to_string right));
      pin contract
        [ del ~w:0 ~node:1 ~seq:0 (Some e1) ]
        (Printf.sprintf
           "[%s] %s replay: delete returned e(p=1,0.0) from an empty structure \
            culprit=op(node=1,seq=0,witness=0)"
           name what))
    [
      (C.Online.Fifo_contract, "fifo-order", "FIFO", e2, e1);
      (C.Online.Lifo_contract, "lifo-order", "LIFO", e1, e2);
    ]

(* -------------------------------------------- failure injection / fuzz *)

(* Build a known-good log from a real sequential heap run. *)
let good_log ~seed ~len =
  let rng = Dpq_util.Rng.create ~seed in
  let heap = Dpq_util.Binheap.create ~cmp:E.compare in
  let recs = ref [] in
  for w = 0 to len - 1 do
    if Dpq_util.Rng.bool rng then begin
      let e = E.make ~prio:(1 + Dpq_util.Rng.int rng 5) ~origin:0 ~seq:w () in
      Dpq_util.Binheap.push heap e;
      recs := ins ~w ~node:0 ~seq:w e :: !recs
    end
    else recs := del ~w ~node:0 ~seq:w (Dpq_util.Binheap.pop heap) :: !recs
  done;
  O.of_list !recs

let test_mutation_wrong_result_detected () =
  (* Replace a matched delete's result with a different (still inserted,
     never-returned) element of a different priority: must be caught. *)
  let log = good_log ~seed:5 ~len:60 in
  let records = O.to_list log in
  let returned = List.filter_map (fun (r : O.record) -> r.O.result) records in
  let unreturned =
    List.filter_map
      (fun (r : O.record) ->
        match r.O.kind with
        | O.Insert e when not (List.exists (E.equal e) returned) -> Some e
        | _ -> None)
      records
  in
  let victim = List.find_opt (fun (r : O.record) -> r.O.result <> None) records in
  match victim with
  | None -> Alcotest.fail "fuzz seed produced no matched delete"
  | Some victim -> (
      let vprio = E.prio (Option.get victim.O.result) in
      match List.find_opt (fun e -> E.prio e <> vprio) unreturned with
      | None -> () (* no substitute with a different priority under this seed *)
      | Some substitute ->
          let mutated =
            List.map
              (fun (r : O.record) ->
                if r.O.witness = victim.O.witness then { r with O.result = Some substitute }
                else r)
              records
          in
          expect_clause "substituted result" C.Serializability (skeap (O.of_list mutated)))

let test_mutation_dropped_insert_detected () =
  let log = good_log ~seed:7 ~len:60 in
  let records = O.to_list log in
  (* drop the insert of some matched pair: its delete now returns an element
     never inserted -> matching/well-formedness must object *)
  match O.matching log with
  | [] -> ()
  | (insr, _) :: _ ->
      let mutated = List.filter (fun (r : O.record) -> r.O.witness <> insr.O.witness) records in
      checkb "dropped insert detected" true
        (skeap (O.of_list mutated) <> Ok ()
        || (try
              ignore (O.matching (O.of_list mutated));
              false
            with Invalid_argument _ -> true))

let prop_reordering_matched_pair_detected =
  (* Swapping the witness positions of a matched (insert, delete) pair makes
     the delete precede its insert: always caught. *)
  QCheck.Test.make ~name:"swapped matched pair always detected" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let log = good_log ~seed ~len:50 in
      match O.matching log with
      | [] -> true
      | (i, d) :: _ ->
          let mutated =
            List.map
              (fun (r : O.record) ->
                if r.O.witness = i.O.witness then { r with O.witness = d.O.witness }
                else if r.O.witness = d.O.witness then { r with O.witness = i.O.witness }
                else r)
              (O.to_list log)
          in
          skeap (O.of_list mutated) <> Ok ())

let prop_bottom_injection_detected =
  (* Turning a matched delete into ⊥ while its element is in the heap:
     always caught by the replay. *)
  QCheck.Test.make ~name:"forged ⊥ always detected" ~count:50 QCheck.(int_range 1 10_000)
    (fun seed ->
      let log = good_log ~seed ~len:50 in
      match
        List.find_opt (fun (r : O.record) -> r.O.result <> None) (O.to_list log)
      with
      | None -> true
      | Some victim ->
          let mutated =
            List.map
              (fun (r : O.record) ->
                if r.O.witness = victim.O.witness then { r with O.result = None } else r)
              (O.to_list log)
          in
          match seap (O.of_list mutated) with
          | Error v -> v.C.clause = C.Serializability
          | Ok () -> false)

(* ------------------------------------------ checker vs oracle differential *)

module Corrupt = Dpq_explore.Corrupt

(* The sequential structure a correct log is drawn from. *)
type shape = Heap | Queue | Stack

(* A known-good multi-node log: witness order is issue order, per-node
   local_seq and per-origin element seq counters advance densely. *)
let good_log_multi ~shape ~seed ~nodes ~len =
  let rng = Dpq_util.Rng.create ~seed in
  let heap = Dpq_util.Binheap.create ~cmp:E.compare in
  let queue = Queue.create () and stack = Stack.create () in
  let push e =
    match shape with
    | Heap -> Dpq_util.Binheap.push heap e
    | Queue -> Queue.push e queue
    | Stack -> Stack.push e stack
  in
  let pop () =
    match shape with
    | Heap -> Dpq_util.Binheap.pop heap
    | Queue -> Queue.take_opt queue
    | Stack -> Stack.pop_opt stack
  in
  let seqs = Array.make nodes 0 and elts = Array.make nodes 0 in
  let recs = ref [] in
  for w = 0 to len - 1 do
    let node = Dpq_util.Rng.int rng nodes in
    let seq = seqs.(node) in
    seqs.(node) <- seq + 1;
    if Dpq_util.Rng.bool rng then begin
      let es = elts.(node) in
      elts.(node) <- es + 1;
      let e = E.make ~prio:(1 + Dpq_util.Rng.int rng 5) ~origin:node ~seq:es () in
      push e;
      recs := ins ~w ~node ~seq e :: !recs
    end
    else recs := del ~w ~node ~seq (pop ()) :: !recs
  done;
  O.of_list !recs

(* A seeded random corruption, identity reuse (double returns, duplicate
   (origin, seq) inserts) included. *)
let mutate rng records =
  let arr = Array.of_list records in
  let len = Array.length arr in
  let pick l = List.nth l (Dpq_util.Rng.int rng (List.length l)) in
  let indices p = List.filter (fun k -> p arr.(k)) (List.init len Fun.id) in
  let answered = indices (fun (r : O.record) -> r.O.result <> None) in
  let deletes = indices (fun (r : O.record) -> r.O.kind = O.Delete_min) in
  let inserts = indices (fun (r : O.record) -> r.O.kind <> O.Delete_min) in
  if len > 0 then begin
    match Dpq_util.Rng.int rng 7 with
    | 0 ->
        (* swap two records' witness positions *)
        let i = Dpq_util.Rng.int rng len and j = Dpq_util.Rng.int rng len in
        let wi = arr.(i).O.witness in
        arr.(i) <- { (arr.(i)) with O.witness = arr.(j).O.witness };
        arr.(j) <- { (arr.(j)) with O.witness = wi }
    | 1 ->
        (* swap the issue order of two records of one node: replay and
           well-formedness still pass, only local consistency can object *)
        let i = Dpq_util.Rng.int rng len in
        let j = pick (indices (fun (r : O.record) -> r.O.node = arr.(i).O.node)) in
        let si = arr.(i).O.local_seq in
        arr.(i) <- { (arr.(i)) with O.local_seq = arr.(j).O.local_seq };
        arr.(j) <- { (arr.(j)) with O.local_seq = si }
    | 2 ->
        (* forge ⊥ on some matched delete *)
        if answered <> [] then
          let k = pick answered in
          arr.(k) <- { (arr.(k)) with O.result = None }
    | 3 ->
        (* duplicate a witness position *)
        let i = Dpq_util.Rng.int rng len and j = Dpq_util.Rng.int rng len in
        arr.(i) <- { (arr.(i)) with O.witness = arr.(j).O.witness }
    | 4 -> (
        (* substitute a matched delete's result with a never-returned
           inserted element (of any priority) *)
        let returned = Array.to_list arr |> List.filter_map (fun (r : O.record) -> r.O.result) in
        let unreturned =
          Array.to_list arr
          |> List.filter_map (fun (r : O.record) ->
                 match r.O.kind with
                 | O.Insert e when not (List.exists (E.equal e) returned) -> Some e
                 | _ -> None)
        in
        match (answered, unreturned) with
        | k :: _, sub :: _ -> arr.(k) <- { (arr.(k)) with O.result = Some sub }
        | _ -> ())
    | 5 ->
        (* return an already-returned element a second time *)
        if answered <> [] then
          let k = pick deletes in
          arr.(k) <- { (arr.(k)) with O.result = arr.(pick answered).O.result }
    | _ -> (
        (* give an insert the (origin, seq) identity of another insert,
           keeping either priority *)
        if inserts <> [] then
          let i = pick inserts and j = pick inserts in
          match (arr.(i).O.kind, arr.(j).O.kind) with
          | O.Insert a, O.Insert b ->
              let prio = if Dpq_util.Rng.bool rng then a.E.prio else b.E.prio in
              let twin = E.make ~prio ~origin:a.E.origin ~seq:a.E.seq () in
              arr.(j) <- { (arr.(j)) with O.kind = O.Insert twin }
          | _ -> ())
  end;
  Array.to_list arr

let prop_online_matches_oracle =
  QCheck.Test.make ~name:"online verdict = oracle verdict (random and mutated logs)" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Dpq_util.Rng.create ~seed:(seed + 31337) in
      let shape = [| Heap; Queue; Stack |].(Dpq_util.Rng.int rng 3) in
      let nodes = 1 + Dpq_util.Rng.int rng 4 in
      let len = 10 + Dpq_util.Rng.int rng 70 in
      let log = good_log_multi ~shape ~seed ~nodes ~len in
      let mutated = O.of_list (mutate rng (O.to_list log)) in
      agree_all log && agree_all mutated)

let test_online_matches_oracle_on_planted_bugs () =
  (* Every planted Corrupt bug, over a spread of logs: the checker must
     return the oracle's verdict under every contract — and the
     corruptions must actually be caught. *)
  let rejected = ref 0 in
  List.iter
    (fun bug ->
      for seed = 1 to 10 do
        let log = good_log_multi ~shape:Heap ~seed ~nodes:3 ~len:40 in
        let bad = Corrupt.apply bug log in
        checkb (Corrupt.to_string bug) true (agree_all bad);
        if skeap bad <> Ok () then incr rejected
      done)
    [
      Corrupt.Swap_matched_pair 0;
      Corrupt.Swap_matched_pair 2;
      Corrupt.Forge_bottom 0;
      Corrupt.Forge_bottom 1;
      Corrupt.Dup_witness 3;
    ];
  checkb "corruptions caught" true (!rejected > 40)

let test_online_incremental_properties () =
  (* Feeding records one at a time matches feeding them all at once, the
     run's memory observables are sane, and [failed] latches. *)
  let log = good_log_multi ~shape:Heap ~seed:17 ~nodes:4 ~len:80 in
  let records = O.to_list log in
  let t = C.Online.create C.Online.Skeap_contract in
  List.iter
    (fun r ->
      C.Online.feed t r;
      checkb "good prefix never fails" false (C.Online.failed t))
    records;
  checkb "accepts" true (C.Online.finish t = Ok ());
  Alcotest.check Alcotest.int "records fed" (List.length records) (C.Online.records_fed t);
  checkb "peak >= final live" true (C.Online.peak_live t >= C.Online.live_elements t);
  let bad = Corrupt.apply (Corrupt.Dup_witness 3) log in
  let t' = C.Online.create C.Online.Skeap_contract in
  C.Online.feed_all t' (O.to_list bad);
  checkb "latched after corruption" true (C.Online.failed t');
  checkb "rejects" true (C.Online.finish t' <> Ok ())

(* qcheck: replaying a log generated BY a sequential heap always passes. *)
let prop_sequential_heap_always_passes =
  let gen = QCheck.Gen.(list_size (0 -- 60) (option (1 -- 20))) in
  QCheck.Test.make ~name:"logs from a real sequential heap pass all checks" ~count:100
    (QCheck.make gen)
    (fun script ->
      let heap = Dpq_util.Binheap.create ~cmp:E.compare in
      let log = ref [] in
      let w = ref 0 and seq = ref 0 in
      List.iter
        (fun op ->
          (match op with
          | Some p ->
              let e = E.make ~prio:p ~origin:0 ~seq:!seq () in
              Dpq_util.Binheap.push heap e;
              log := ins ~w:!w ~node:0 ~seq:!seq e :: !log
          | None ->
              let result = Dpq_util.Binheap.pop heap in
              log := del ~w:!w ~node:0 ~seq:!seq result :: !log);
          incr w;
          incr seq)
        script;
      let log = O.of_list !log in
      skeap log = Ok () && def12_holds log)

let () =
  Alcotest.run "dpq_semantics"
    [
      ( "oplog",
        [
          Alcotest.test_case "ordering" `Quick test_oplog_ordering;
          Alcotest.test_case "matching" `Quick test_oplog_matching;
          Alcotest.test_case "well-formedness" `Quick test_well_formed_catches;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_serializability_accepts_valid;
          Alcotest.test_case "rejects wrong priority" `Quick test_serializability_rejects_wrong_priority;
          Alcotest.test_case "rejects ⊥ on nonempty" `Quick test_serializability_rejects_bottom_on_nonempty;
          Alcotest.test_case "rejects return from empty" `Quick test_serializability_rejects_return_from_empty;
          Alcotest.test_case "rejects delete before insert" `Quick test_serializability_rejects_delete_before_insert;
          Alcotest.test_case "accepts any tiebreak" `Quick test_serializability_accepts_any_tiebreak;
          Alcotest.test_case "local consistency" `Quick test_local_consistency;
          Alcotest.test_case "heap consistency clauses" `Quick test_heap_consistency_clauses;
          Alcotest.test_case "clause 1" `Quick test_clause1_violation;
          Alcotest.test_case "composite checks" `Quick test_check_all_composites;
          Alcotest.test_case "exact violations" `Quick test_exact_violations;
          QCheck_alcotest.to_alcotest prop_sequential_heap_always_passes;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "wrong result detected" `Quick test_mutation_wrong_result_detected;
          Alcotest.test_case "dropped insert detected" `Quick test_mutation_dropped_insert_detected;
          QCheck_alcotest.to_alcotest prop_reordering_matched_pair_detected;
          QCheck_alcotest.to_alcotest prop_bottom_injection_detected;
        ] );
      ( "online",
        [
          Alcotest.test_case "planted bugs agree with oracle" `Quick
            test_online_matches_oracle_on_planted_bugs;
          Alcotest.test_case "incremental feeding properties" `Quick
            test_online_incremental_properties;
          QCheck_alcotest.to_alcotest prop_online_matches_oracle;
        ] );
    ]
