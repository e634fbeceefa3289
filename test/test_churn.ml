(* Membership changes (paper Contribution 4): joins/leaves between batches
   must preserve heap contents and semantics, cost only O(log n) overlay
   messages and move only ~m/n elements. *)

module Skeap = Dpq_skeap.Skeap
module Seap = Dpq_seap.Seap
module E = Dpq_util.Element
module Checker = Dpq_semantics.Checker

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

let test_skeap_join_preserves_heap () =
  let h = Skeap.create ~seed:3 ~n:4 ~num_prios:3 () in
  for i = 0 to 19 do
    ignore (Skeap.insert h ~node:(i mod 4) ~prio:(1 + (i mod 3)))
  done;
  ignore (Skeap.process_batch h);
  checki "20 stored" 20 (Skeap.heap_size h);
  let cost = Skeap.add_node h in
  checki "n grew" 5 (Skeap.n h);
  checkb "join cost positive" true (cost.Skeap.join_messages > 0);
  checkb "moved a minority" true (cost.Skeap.moved_elements < 20);
  checki "heap intact" 20 (Skeap.heap_size h);
  (* the new node can use the heap immediately *)
  Skeap.delete_min h ~node:4;
  let r = Skeap.process_batch h in
  checkb "new node got the min" true
    (List.exists
       (fun c -> c.Skeap.node = 4 && match c.Skeap.outcome with `Got _ -> true | _ -> false)
       r.Skeap.completions);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_leave_preserves_heap () =
  let h = Skeap.create ~seed:5 ~n:5 ~num_prios:2 () in
  for i = 0 to 14 do
    ignore (Skeap.insert h ~node:(i mod 5) ~prio:(1 + (i mod 2)))
  done;
  ignore (Skeap.process_batch h);
  let cost = Skeap.remove_last_node h in
  checki "n shrank" 4 (Skeap.n h);
  checkb "moved bounded" true (cost.Skeap.moved_elements <= 15);
  checki "heap intact" 15 (Skeap.heap_size h);
  (* every element is still reachable *)
  for i = 0 to 14 do
    Skeap.delete_min h ~node:(i mod 4)
  done;
  let rs = Skeap.drain h in
  let got =
    List.concat_map
      (fun (r : Skeap.batch_result) ->
        List.filter_map
          (fun c -> match c.Skeap.outcome with `Got _ -> Some () | _ -> None)
          r.Skeap.completions)
      rs
  in
  checki "all 15 retrieved" 15 (List.length got);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_skeap_leave_guards () =
  let h = Skeap.create ~n:2 ~num_prios:2 () in
  ignore (Skeap.insert h ~node:1 ~prio:1);
  checkb "refuses with buffered ops" true
    (try
       ignore (Skeap.remove_last_node h);
       false
     with Invalid_argument _ -> true);
  ignore (Skeap.process_batch h);
  ignore (Skeap.remove_last_node h);
  checkb "refuses to empty" true
    (try
       ignore (Skeap.remove_last_node h);
       false
     with Invalid_argument _ -> true)

let test_skeap_churn_storm () =
  (* interleave batches with joins and leaves; semantics must hold across
     every topology *)
  let h = Skeap.create ~seed:7 ~n:3 ~num_prios:3 () in
  let rng = Dpq_util.Rng.create ~seed:70 in
  for round = 1 to 6 do
    for _ = 1 to 10 do
      let node = Dpq_util.Rng.int rng (Skeap.n h) in
      if Dpq_util.Rng.bool rng then
        ignore (Skeap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 3))
      else Skeap.delete_min h ~node
    done;
    ignore (Skeap.process_batch h);
    if round mod 2 = 0 then ignore (Skeap.add_node h)
    else if Skeap.n h > 2 then ignore (Skeap.remove_last_node h)
  done;
  ignore (Skeap.drain h);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (Skeap.oplog h))

let test_seap_join_preserves_heap () =
  let h = Seap.create ~seed:9 ~n:4 () in
  for i = 0 to 15 do
    ignore (Seap.insert h ~node:(i mod 4) ~prio:(1 + (i * 37 mod 1000)))
  done;
  ignore (Seap.process_round h);
  checki "16 stored" 16 (Seap.heap_size h);
  let cost = Seap.add_node h in
  checki "n grew" 5 (Seap.n h);
  checkb "moved a minority" true (cost.Seap.moved_elements < 16);
  Seap.delete_min h ~node:4;
  let r = Seap.process_round h in
  checkb "new node got an element" true
    (List.exists
       (fun c -> c.Seap.node = 4 && match c.Seap.outcome with `Got _ -> true | _ -> false)
       r.Seap.completions);
  checki "15 remain" 15 (Seap.heap_size h);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (Seap.oplog h))

let test_seap_leave_preserves_heap () =
  let h = Seap.create ~seed:11 ~n:4 () in
  for i = 0 to 11 do
    ignore (Seap.insert h ~node:(i mod 4) ~prio:(i + 1))
  done;
  ignore (Seap.process_round h);
  ignore (Seap.remove_last_node h);
  checki "n shrank" 3 (Seap.n h);
  checki "heap intact" 12 (Seap.heap_size h);
  for i = 0 to 11 do
    Seap.delete_min h ~node:(i mod 3)
  done;
  let rs = Seap.drain h in
  let prios =
    List.concat_map
      (fun (r : Seap.round_result) ->
        List.filter_map
          (fun c -> match c.Seap.outcome with `Got e -> Some (E.prio e) | _ -> None)
          r.Seap.completions)
      rs
  in
  Alcotest.(check (list int)) "all elements retrieved in order"
    (List.init 12 (fun i -> i + 1))
    (List.sort compare prios);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (Seap.oplog h))

let test_moved_elements_scale () =
  (* a single join moves ~m/n elements in expectation, not ~m *)
  let moved_fraction n =
    let h = Seap.create ~seed:13 ~n () in
    let m = 40 * n in
    for i = 0 to m - 1 do
      ignore (Seap.insert h ~node:(i mod n) ~prio:(1 + (i * 31 mod 100_000)))
    done;
    ignore (Seap.process_round h);
    let cost = Seap.add_node h in
    float_of_int cost.Seap.moved_elements /. float_of_int m
  in
  let f8 = moved_fraction 8 and f32 = moved_fraction 32 in
  checkb "fraction shrinks with n" true (f32 < f8);
  checkb "minority at n=8" true (f8 < 0.6)

let () =
  Alcotest.run "dpq_churn"
    [
      ( "skeap",
        [
          Alcotest.test_case "join preserves heap" `Quick test_skeap_join_preserves_heap;
          Alcotest.test_case "leave preserves heap" `Quick test_skeap_leave_preserves_heap;
          Alcotest.test_case "leave guards" `Quick test_skeap_leave_guards;
          Alcotest.test_case "churn storm" `Quick test_skeap_churn_storm;
        ] );
      ( "seap",
        [
          Alcotest.test_case "join preserves heap" `Quick test_seap_join_preserves_heap;
          Alcotest.test_case "leave preserves heap" `Quick test_seap_leave_preserves_heap;
          Alcotest.test_case "moved elements scale" `Quick test_moved_elements_scale;
        ] );
    ]
