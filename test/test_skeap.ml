open Dpq_skeap
module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Checker = Dpq_semantics.Checker
module Oplog = Dpq_semantics.Oplog

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- Batch *)

let test_batch_paper_example () =
  (* §3.1's example: Insert(e1), Insert(e2), DeleteMin, Insert(e3),
     DeleteMin with prios 1,1,2 and P = {1,2} gives ((2,0),1,(0,1),1). *)
  let b =
    Batch.of_ops ~num_prios:2 [ Batch.Ins 1; Batch.Ins 1; Batch.Del; Batch.Ins 2; Batch.Del ]
  in
  Alcotest.(check string) "paper notation" "((2,0),1,(0,1),1)" (Batch.to_string b);
  checki "length" 2 (Batch.length b);
  checki "inserts" 3 (Batch.total_inserts b);
  checki "deletes" 2 (Batch.total_deletes b)

let test_batch_grouping () =
  let groups = Batch.group_ops [ Batch.Del; Batch.Del; Batch.Ins 1; Batch.Del; Batch.Ins 1 ] in
  checki "3 groups" 3 (List.length groups);
  (* leading deletes form their own group with zero inserts *)
  checkb "first group only dels" true (List.hd groups = [ Batch.Del; Batch.Del ])

let test_batch_combine () =
  let b1 = Batch.of_ops ~num_prios:2 [ Batch.Ins 1; Batch.Del ] in
  let b2 = Batch.of_ops ~num_prios:2 [ Batch.Ins 2; Batch.Ins 2; Batch.Del; Batch.Ins 1; Batch.Del ] in
  let c = Batch.combine b1 b2 in
  Alcotest.(check string) "padded combine" "((1,2),2,(1,0),1)" (Batch.to_string c);
  checki "total ops" (Batch.total_ops b1 + Batch.total_ops b2) (Batch.total_ops c)

let test_batch_combine_empty_identity () =
  let b = Batch.of_ops ~num_prios:3 [ Batch.Ins 2; Batch.Del ] in
  checkb "right identity" true (Batch.equal b (Batch.combine b (Batch.empty ~num_prios:3)));
  checkb "left identity" true (Batch.equal b (Batch.combine (Batch.empty ~num_prios:3) b))

let test_batch_bad_priority () =
  checkb "raises" true
    (try
       ignore (Batch.of_ops ~num_prios:2 [ Batch.Ins 3 ]);
       false
     with Invalid_argument _ -> true)

let prop_batch_combine_associative =
  let gen_ops =
    QCheck.Gen.(
      list_size (0 -- 12)
        (frequency [ (3, map (fun p -> Batch.Ins (1 + (p mod 3))) small_nat); (2, return Batch.Del) ]))
  in
  let arb = QCheck.make gen_ops in
  QCheck.Test.make ~name:"batch combine associative" ~count:200 (QCheck.triple arb arb arb)
    (fun (o1, o2, o3) ->
      let b o = Batch.of_ops ~num_prios:3 o in
      Batch.equal
        (Batch.combine (Batch.combine (b o1) (b o2)) (b o3))
        (Batch.combine (b o1) (Batch.combine (b o2) (b o3))))

let prop_batch_counts_preserved =
  let gen_ops =
    QCheck.Gen.(
      list_size (0 -- 20)
        (frequency [ (3, map (fun p -> Batch.Ins (1 + (p mod 4))) small_nat); (2, return Batch.Del) ]))
  in
  QCheck.Test.make ~name:"batch of_ops preserves counts" ~count:200 (QCheck.make gen_ops)
    (fun ops ->
      let b = Batch.of_ops ~num_prios:4 ops in
      let ins = List.length (List.filter (function Batch.Ins _ -> true | _ -> false) ops) in
      let del = List.length (List.filter (( = ) Batch.Del) ops) in
      Batch.total_inserts b = ins && Batch.total_deletes b = del)

(* --------------------------------------------------------------- Anchor *)

let test_anchor_assign_inserts () =
  let a = Anchor.create ~num_prios:2 in
  let b = Batch.of_ops ~num_prios:2 [ Batch.Ins 1; Batch.Ins 1; Batch.Ins 2 ] in
  let asg = Anchor.assign a b in
  checki "one entry" 1 (List.length asg);
  let ea = List.hd asg in
  checkb "prio1 [1,2]" true (Interval.equal ea.Anchor.ins.(0) (Interval.make 1 2));
  checkb "prio2 [1,1]" true (Interval.equal ea.Anchor.ins.(1) (Interval.make 1 1));
  checki "occupied p1" 2 (Anchor.occupied a ~prio:1);
  checki "occupied total" 3 (Anchor.total_occupied a)

let test_anchor_deletes_prefer_low_priority () =
  let a = Anchor.create ~num_prios:3 in
  ignore (Anchor.assign a (Batch.of_ops ~num_prios:3 [ Batch.Ins 2; Batch.Ins 3 ]));
  let asg = Anchor.assign a (Batch.of_ops ~num_prios:3 [ Batch.Del ]) in
  let ea = List.hd asg in
  (match ea.Anchor.dels with
  | [ (2, iv) ] -> checkb "takes from prio 2" true (Interval.equal iv (Interval.make 1 1))
  | _ -> Alcotest.fail "expected a single draw from priority 2");
  checki "no bot" 0 ea.Anchor.bot;
  checki "prio2 drained" 0 (Anchor.occupied a ~prio:2);
  checki "prio3 untouched" 1 (Anchor.occupied a ~prio:3)

let test_anchor_delete_spans_priorities () =
  let a = Anchor.create ~num_prios:3 in
  ignore (Anchor.assign a (Batch.of_ops ~num_prios:3 [ Batch.Ins 1; Batch.Ins 2; Batch.Ins 3 ]));
  let asg = Anchor.assign a (Batch.of_ops ~num_prios:3 [ Batch.Del; Batch.Del; Batch.Del; Batch.Del ]) in
  let ea = List.hd asg in
  checki "three draws" 3 (List.length ea.Anchor.dels);
  checki "one bot" 1 ea.Anchor.bot;
  Alcotest.(check (list int)) "ascending priorities" [ 1; 2; 3 ] (List.map fst ea.Anchor.dels);
  checki "empty heap" 0 (Anchor.total_occupied a)

let test_anchor_interleaved_entries () =
  let a = Anchor.create ~num_prios:1 in
  (* entry1: 2 ins, 1 del; entry2: 1 ins, 2 del  -> ends with 0 elements *)
  let b = Batch.of_ops ~num_prios:1 [ Batch.Ins 1; Batch.Ins 1; Batch.Del; Batch.Ins 1; Batch.Del; Batch.Del ] in
  let asg = Anchor.assign a b in
  checki "two entries" 2 (List.length asg);
  let e1 = List.nth asg 0 and e2 = List.nth asg 1 in
  checkb "e1 ins [1,2]" true (Interval.equal e1.Anchor.ins.(0) (Interval.make 1 2));
  (match e1.Anchor.dels with
  | [ (1, iv) ] -> checkb "e1 del pos 1" true (Interval.equal iv (Interval.make 1 1))
  | _ -> Alcotest.fail "e1 dels");
  checkb "e2 ins [3,3]" true (Interval.equal e2.Anchor.ins.(0) (Interval.make 3 3));
  (match e2.Anchor.dels with
  | [ (1, iv) ] -> checkb "e2 del [2,3]" true (Interval.equal iv (Interval.make 2 3))
  | _ -> Alcotest.fail "e2 dels");
  checki "drained" 0 (Anchor.total_occupied a)

let test_anchor_figure1 () =
  (* Figure 1 of the paper, n = 3, P = {1,2}.  Batches:
     v_a = ((1,0),0), v_b = ((2,1),1), v_c = ((1,0),2); combined (in that
     combination order) = ((4,1),3).  Anchor state before: first=1, last=0
     for both priorities.  After Phase 2 (figure c):
     I_1 = ([1,4],[1,1]) and D_1 = ([1,3], ∅);
     last_1=4, last_2=1, first_1=4, first_2=1. *)
  let a = Anchor.create ~num_prios:2 in
  let mk ops = Batch.of_ops ~num_prios:2 ops in
  let va = mk [ Batch.Ins 1 ] in
  let vb = mk [ Batch.Ins 1; Batch.Ins 1; Batch.Ins 2; Batch.Del ] in
  let vc = mk [ Batch.Ins 1; Batch.Del; Batch.Del ] in
  let combined = Batch.combine va (Batch.combine vb vc) in
  Alcotest.(check string) "combined batch" "((4,1),3)" (Batch.to_string combined);
  let asg = Anchor.assign a combined in
  let ea = List.hd asg in
  checkb "I for prio1 = [1,4]" true (Interval.equal ea.Anchor.ins.(0) (Interval.make 1 4));
  checkb "I for prio2 = [1,1]" true (Interval.equal ea.Anchor.ins.(1) (Interval.make 1 1));
  (match ea.Anchor.dels with
  | [ (1, iv) ] -> checkb "D = prio1 [1,3]" true (Interval.equal iv (Interval.make 1 3))
  | _ -> Alcotest.fail "expected one draw from priority 1");
  checki "first_1 = 4" 4 (Anchor.first a ~prio:1);
  checki "last_1 = 4" 4 (Anchor.last a ~prio:1);
  checki "first_2 = 1" 1 (Anchor.first a ~prio:2);
  checki "last_2 = 1" 1 (Anchor.last a ~prio:2);
  (* Phase 3 decomposition against the sub-batches (figure d):
     part v_a keeps (([1,1],∅),(∅,∅));
     part v_b gets (([2,3],[1,1]),([1,1],∅)) — wait, the figure gives v_b
     = (([2,2],∅),([1,2],∅))? The figure's second decomposition splits
     [1,4] as [1,1] / [2,3] / [4,4] per insert counts 1/2/1 and [1,3] as
     ∅ / [1,1] / [2,3] per delete counts 0/1/2. *)
  let parts = Anchor.split ~num_prios:2 asg ~parts:[ va; vb; vc ] in
  checki "three parts" 3 (List.length parts);
  let pa = List.hd (List.nth parts 0) in
  let pb = List.hd (List.nth parts 1) in
  let pc = List.hd (List.nth parts 2) in
  checkb "v_a ins p1 [1,1]" true (Interval.equal pa.Anchor.ins.(0) (Interval.make 1 1));
  checkb "v_a no dels" true (pa.Anchor.dels = []);
  checkb "v_b ins p1 [2,3]" true (Interval.equal pb.Anchor.ins.(0) (Interval.make 2 3));
  checkb "v_b ins p2 [1,1]" true (Interval.equal pb.Anchor.ins.(1) (Interval.make 1 1));
  (match pb.Anchor.dels with
  | [ (1, iv) ] -> checkb "v_b del [1,1]" true (Interval.equal iv (Interval.make 1 1))
  | _ -> Alcotest.fail "v_b dels");
  checkb "v_c ins p1 [4,4]" true (Interval.equal pc.Anchor.ins.(0) (Interval.make 4 4));
  (match pc.Anchor.dels with
  | [ (1, iv) ] -> checkb "v_c dels [2,3]" true (Interval.equal iv (Interval.make 2 3))
  | _ -> Alcotest.fail "v_c dels")

let test_anchor_split_bot_goes_to_late_parts () =
  let a = Anchor.create ~num_prios:1 in
  ignore (Anchor.assign a (Batch.of_ops ~num_prios:1 [ Batch.Ins 1 ]));
  let asg = Anchor.assign a (Batch.of_ops ~num_prios:1 [ Batch.Del; Batch.Del; Batch.Del ]) in
  let one_del = Batch.of_ops ~num_prios:1 [ Batch.Del ] in
  let parts = Anchor.split ~num_prios:1 asg ~parts:[ one_del; one_del; one_del ] in
  let bots = List.map (fun p -> (List.hd p).Anchor.bot) parts in
  Alcotest.(check (list int)) "first part matched, rest ⊥" [ 0; 1; 1 ] bots

(* qcheck: anchor assignment vs a sequential multiset oracle — the number of
   matched deletes must equal min(deletes, available) entry by entry, and
   positions per priority are contiguous. *)
let prop_anchor_conservation =
  let gen_ops =
    QCheck.Gen.(
      list_size (0 -- 30)
        (frequency [ (3, map (fun p -> Batch.Ins (1 + (p mod 3))) small_nat); (2, return Batch.Del) ]))
  in
  QCheck.Test.make ~name:"anchor conserves elements" ~count:200 (QCheck.make gen_ops)
    (fun ops ->
      let a = Anchor.create ~num_prios:3 in
      let b = Batch.of_ops ~num_prios:3 ops in
      let asg = Anchor.assign a b in
      let matched =
        List.fold_left
          (fun acc ea ->
            acc + List.fold_left (fun s (_, iv) -> s + Interval.cardinality iv) 0 ea.Anchor.dels)
          0 asg
      in
      let bots = List.fold_left (fun acc ea -> acc + ea.Anchor.bot) 0 asg in
      matched + bots = Batch.total_deletes b
      && Anchor.total_occupied a = Batch.total_inserts b - matched)

(* ---------------------------------------------------------- Full Skeap *)

let test_skeap_single_node_roundtrip () =
  let h = Skeap.create ~n:1 ~num_prios:2 () in
  let e = Skeap.insert h ~node:0 ~prio:2 in
  Skeap.delete_min h ~node:0;
  let r = Skeap.process_batch h in
  checki "two completions" 2 (List.length r.Skeap.completions);
  let got =
    List.find_map
      (fun c -> match c.Skeap.outcome with `Got e -> Some e | _ -> None)
      r.Skeap.completions
  in
  checkb "got the inserted element" true (Element.equal e (Option.get got));
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_priority_order () =
  let h = Skeap.create ~n:4 ~num_prios:5 () in
  (* inserts of priorities 5,3,1,4,2 spread over nodes *)
  ignore (Skeap.insert h ~node:0 ~prio:5);
  ignore (Skeap.insert h ~node:1 ~prio:3);
  ignore (Skeap.insert h ~node:2 ~prio:1);
  ignore (Skeap.insert h ~node:3 ~prio:4);
  ignore (Skeap.insert h ~node:0 ~prio:2);
  ignore (Skeap.process_batch h);
  (* now delete everything from one node: must come out 1,2,3,4,5 *)
  for _ = 1 to 5 do
    Skeap.delete_min h ~node:1
  done;
  let r = Skeap.process_batch h in
  let prios =
    List.filter_map
      (fun c -> match c.Skeap.outcome with `Got e -> Some (Element.prio e) | _ -> None)
      r.Skeap.completions
  in
  Alcotest.(check (list int)) "ascending priorities" [ 1; 2; 3; 4; 5 ] prios;
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_empty_heap_bottom () =
  let h = Skeap.create ~n:3 ~num_prios:2 () in
  Skeap.delete_min h ~node:1;
  Skeap.delete_min h ~node:2;
  let r = Skeap.process_batch h in
  checki "two ⊥" 2
    (List.length (List.filter (fun c -> c.Skeap.outcome = `Empty) r.Skeap.completions));
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_more_deletes_than_elements () =
  let h = Skeap.create ~n:2 ~num_prios:2 () in
  ignore (Skeap.insert h ~node:0 ~prio:1);
  Skeap.delete_min h ~node:0;
  Skeap.delete_min h ~node:1;
  Skeap.delete_min h ~node:1;
  let r = Skeap.process_batch h in
  let got = List.filter (fun c -> match c.Skeap.outcome with `Got _ -> true | _ -> false) r.Skeap.completions in
  let empty = List.filter (fun c -> c.Skeap.outcome = `Empty) r.Skeap.completions in
  checki "one matched" 1 (List.length got);
  checki "two ⊥" 2 (List.length empty);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_elements_survive_batches () =
  let h = Skeap.create ~n:3 ~num_prios:3 () in
  ignore (Skeap.insert h ~node:0 ~prio:3);
  ignore (Skeap.process_batch h);
  ignore (Skeap.insert h ~node:1 ~prio:2);
  ignore (Skeap.process_batch h);
  checki "heap size 2" 2 (Skeap.heap_size h);
  Skeap.delete_min h ~node:2;
  let r = Skeap.process_batch h in
  let prios =
    List.filter_map
      (fun c -> match c.Skeap.outcome with `Got e -> Some (Element.prio e) | _ -> None)
      r.Skeap.completions
  in
  Alcotest.(check (list int)) "older lower prio wins" [ 2 ] prios;
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_fifo_within_priority () =
  (* Sequential consistency: same-priority elements come out in the order
     the anchor serialized their inserts. *)
  let h = Skeap.create ~n:2 ~num_prios:1 () in
  let e1 = Skeap.insert h ~node:0 ~prio:1 in
  ignore (Skeap.process_batch h);
  let e2 = Skeap.insert h ~node:1 ~prio:1 in
  ignore (Skeap.process_batch h);
  Skeap.delete_min h ~node:0;
  Skeap.delete_min h ~node:0;
  let r = Skeap.process_batch h in
  let got =
    List.filter_map
      (fun c -> match c.Skeap.outcome with `Got e -> Some e | _ -> None)
      r.Skeap.completions
  in
  (match got with
  | [ a; b ] ->
      checkb "first batch's element first" true (Element.equal a e1);
      checkb "second next" true (Element.equal b e2)
  | _ -> Alcotest.fail "expected two results");
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let random_workload ~seed ~n ~num_prios ~rounds ~ops_per_round h =
  let rng = Dpq_util.Rng.create ~seed in
  for _ = 1 to rounds do
    for _ = 1 to ops_per_round do
      let node = Dpq_util.Rng.int rng n in
      if Dpq_util.Rng.bool rng then
        ignore (Skeap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng num_prios))
      else Skeap.delete_min h ~node
    done;
    ignore (Skeap.process_batch h)
  done

let test_skeap_random_semantics_sync () =
  List.iter
    (fun seed ->
      let h = Skeap.create ~seed ~n:8 ~num_prios:4 () in
      random_workload ~seed:(seed * 31) ~n:8 ~num_prios:4 ~rounds:6 ~ops_per_round:25 h;
      ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h)))
    [ 1; 2; 3; 4; 5 ]

let test_skeap_random_semantics_async () =
  (* Phase 4 traffic adversarially reordered: semantics must hold anyway. *)
  List.iter
    (fun policy ->
      let h = Skeap.create ~seed:11 ~n:6 ~num_prios:3 () in
      let rng = Dpq_util.Rng.create ~seed:99 in
      for _ = 1 to 5 do
        for _ = 1 to 20 do
          let node = Dpq_util.Rng.int rng 6 in
          if Dpq_util.Rng.bool rng then
            ignore (Skeap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 3))
          else Skeap.delete_min h ~node
        done;
        ignore (Skeap.process_batch ~dht_mode:(Skeap.Dht_async { seed = 5; policy }) h)
      done;
      ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h)))
    [
      Dpq_simrt.Async_engine.Uniform (1.0, 100.0);
      Dpq_simrt.Async_engine.Exponential 20.0;
      Dpq_simrt.Async_engine.Adversarial_lifo;
    ]

let test_skeap_local_consistency_witness () =
  (* A node's own ops must appear in ≺ in issue order even when they span
     entries and batches. *)
  let h = Skeap.create ~n:4 ~num_prios:3 () in
  ignore (Skeap.insert h ~node:2 ~prio:3);
  Skeap.delete_min h ~node:2;
  ignore (Skeap.insert h ~node:2 ~prio:1);
  Skeap.delete_min h ~node:2;
  ignore (Skeap.insert h ~node:1 ~prio:2);
  ignore (Skeap.process_batch h);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_drain () =
  let h = Skeap.create ~n:4 ~num_prios:2 () in
  for i = 0 to 19 do
    ignore (Skeap.insert h ~node:(i mod 4) ~prio:(1 + (i mod 2)))
  done;
  let results = Skeap.drain h in
  checkb "at least one batch" true (List.length results >= 1);
  checki "nothing pending" 0 (Skeap.pending_ops h);
  checki "heap holds all" 20 (Skeap.heap_size h)

let test_skeap_rounds_logarithmic () =
  let rounds n =
    let h = Skeap.create ~seed:3 ~n ~num_prios:2 () in
    for v = 0 to n - 1 do
      ignore (Skeap.insert h ~node:v ~prio:1)
    done;
    let r = Skeap.process_batch h in
    float_of_int r.Skeap.report.Dpq_aggtree.Phase.rounds
  in
  let r64 = rounds 64 and r4096 = rounds 4096 in
  checkb "O(log n) shape" true (r4096 < r64 *. 3.5)

let test_skeap_message_bits_grow_with_rate () =
  (* Lemma 3.8: message size grows with the injection rate Λ. *)
  let max_bits lambda =
    let h = Skeap.create ~seed:5 ~n:16 ~num_prios:2 () in
    for v = 0 to 15 do
      for i = 1 to lambda do
        if i mod 2 = 0 then ignore (Skeap.insert h ~node:v ~prio:1) else Skeap.delete_min h ~node:v
      done
    done;
    let r = Skeap.process_batch h in
    r.Skeap.report.Dpq_aggtree.Phase.max_message_bits
  in
  let b1 = max_bits 2 and b2 = max_bits 32 in
  checkb "bits grow markedly with Λ" true (b2 > 4 * b1)

let test_skeap_fairness () =
  let h = Skeap.create ~seed:7 ~n:16 ~num_prios:2 () in
  for i = 0 to 1599 do
    ignore (Skeap.insert h ~node:(i mod 16) ~prio:(1 + (i mod 2)))
  done;
  ignore (Skeap.drain h);
  let counts = Skeap.stored_per_node h in
  let total = Array.fold_left ( + ) 0 counts in
  checki "all stored" 1600 total;
  let mean = 1600.0 /. 16.0 in
  checkb "max within 4x mean" true (float_of_int (Array.fold_left max 0 counts) < 4.0 *. mean)

let test_skeap_invalid_args () =
  let h = Skeap.create ~n:2 ~num_prios:2 () in
  checkb "bad node" true
    (try
       ignore (Skeap.insert h ~node:9 ~prio:1);
       false
     with Invalid_argument _ -> true);
  checkb "bad prio" true
    (try
       ignore (Skeap.insert h ~node:0 ~prio:0);
       false
     with Invalid_argument _ -> true)

let test_skeap_empty_batch_noop () =
  let h = Skeap.create ~n:4 ~num_prios:2 () in
  let r = Skeap.process_batch h in
  checki "no completions" 0 (List.length r.Skeap.completions);
  checki "heap empty" 0 (Skeap.heap_size h)

(* qcheck: arbitrary interleavings across nodes keep full Skeap semantics. *)
let prop_skeap_semantics =
  let gen =
    QCheck.Gen.(
      pair (1 -- 6)
        (list_size (0 -- 40) (pair (0 -- 5) (frequency [ (3, map (fun p -> Some (1 + (p mod 3))) small_nat); (2, return None) ]))))
  in
  QCheck.Test.make ~name:"skeap semantics on random interleavings" ~count:60 (QCheck.make gen)
    (fun (batches, ops) ->
      let h = Skeap.create ~seed:13 ~n:6 ~num_prios:3 () in
      let per_batch = max 1 (List.length ops / max 1 batches) in
      List.iteri
        (fun i (node, op) ->
          (match op with
          | Some p -> ignore (Skeap.insert h ~node ~prio:p)
          | None -> Skeap.delete_min h ~node);
          if (i + 1) mod per_batch = 0 then ignore (Skeap.process_batch h))
        ops;
      ignore (Skeap.drain h);
      Checker.check Checker.Online.Skeap_contract (Skeap.oplog h) = Ok ())

let () =
  Alcotest.run "dpq_skeap"
    [
      ( "batch",
        [
          Alcotest.test_case "paper example" `Quick test_batch_paper_example;
          Alcotest.test_case "grouping" `Quick test_batch_grouping;
          Alcotest.test_case "combine" `Quick test_batch_combine;
          Alcotest.test_case "combine identity" `Quick test_batch_combine_empty_identity;
          Alcotest.test_case "bad priority" `Quick test_batch_bad_priority;
          QCheck_alcotest.to_alcotest prop_batch_combine_associative;
          QCheck_alcotest.to_alcotest prop_batch_counts_preserved;
        ] );
      ( "anchor",
        [
          Alcotest.test_case "assign inserts" `Quick test_anchor_assign_inserts;
          Alcotest.test_case "deletes prefer low prio" `Quick test_anchor_deletes_prefer_low_priority;
          Alcotest.test_case "delete spans priorities" `Quick test_anchor_delete_spans_priorities;
          Alcotest.test_case "interleaved entries" `Quick test_anchor_interleaved_entries;
          Alcotest.test_case "figure 1" `Quick test_anchor_figure1;
          Alcotest.test_case "split bot late parts" `Quick test_anchor_split_bot_goes_to_late_parts;
          QCheck_alcotest.to_alcotest prop_anchor_conservation;
        ] );
      ( "skeap",
        [
          Alcotest.test_case "single node roundtrip" `Quick test_skeap_single_node_roundtrip;
          Alcotest.test_case "priority order" `Quick test_skeap_priority_order;
          Alcotest.test_case "empty heap ⊥" `Quick test_skeap_empty_heap_bottom;
          Alcotest.test_case "more deletes than elements" `Quick test_skeap_more_deletes_than_elements;
          Alcotest.test_case "elements survive batches" `Quick test_skeap_elements_survive_batches;
          Alcotest.test_case "fifo within priority" `Quick test_skeap_fifo_within_priority;
          Alcotest.test_case "random semantics (sync)" `Quick test_skeap_random_semantics_sync;
          Alcotest.test_case "random semantics (async)" `Quick test_skeap_random_semantics_async;
          Alcotest.test_case "local consistency" `Quick test_skeap_local_consistency_witness;
          Alcotest.test_case "drain" `Quick test_skeap_drain;
          Alcotest.test_case "rounds logarithmic" `Quick test_skeap_rounds_logarithmic;
          Alcotest.test_case "message bits vs Λ" `Quick test_skeap_message_bits_grow_with_rate;
          Alcotest.test_case "fairness" `Quick test_skeap_fairness;
          Alcotest.test_case "invalid args" `Quick test_skeap_invalid_args;
          Alcotest.test_case "empty batch noop" `Quick test_skeap_empty_batch_noop;
          QCheck_alcotest.to_alcotest prop_skeap_semantics;
        ] );
    ]
