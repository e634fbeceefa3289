module C = Dpq_baselines.Centralized
module U = Dpq_baselines.Unbatched
module E = Dpq_util.Element
module Checker = Dpq_semantics.Checker

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------- Centralized *)

let test_centralized_roundtrip () =
  let h = C.create ~n:6 () in
  let e = C.insert h ~node:2 ~prio:5 in
  (* process the insert before deleting: in the same batch a delete from a
     closer node can legitimately reach the coordinator first and get ⊥ *)
  ignore (C.process h);
  C.delete_min h ~node:4;
  let r = C.process h in
  let got =
    List.find_map (fun c -> match c.C.outcome with `Got x -> Some x | _ -> None) r.C.completions
  in
  checkb "same element" true (E.equal e (Option.get got));
  checkb "coordinator did work" true (r.C.coordinator_load > 0);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (C.oplog h))

let test_centralized_priority_order () =
  let h = C.create ~n:4 () in
  List.iteri (fun i p -> ignore (C.insert h ~node:i ~prio:p)) [ 42; 7; 99; 13 ];
  ignore (C.process h);
  for i = 0 to 3 do
    C.delete_min h ~node:i
  done;
  let r = C.process h in
  let prios =
    List.filter_map
      (fun c -> match c.C.outcome with `Got e -> Some (E.prio e) | _ -> None)
      r.C.completions
  in
  Alcotest.(check (list int)) "heap order" [ 7; 13; 42; 99 ] (List.sort compare prios);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (C.oplog h))

let test_centralized_empty_heap () =
  let h = C.create ~n:3 () in
  C.delete_min h ~node:1;
  let r = C.process h in
  checki "⊥" 1 (List.length (List.filter (fun c -> c.C.outcome = `Empty) r.C.completions))

let test_centralized_load_grows_with_n () =
  let load n =
    let h = C.create ~n () in
    for v = 0 to n - 1 do
      ignore (C.insert h ~node:v ~prio:(v + 1))
    done;
    (C.process h).C.coordinator_load
  in
  checkb "linear-ish growth" true (load 64 > 3 * load 8)

let test_centralized_random_semantics () =
  let h = C.create ~n:5 () in
  let rng = Dpq_util.Rng.create ~seed:31 in
  for _ = 1 to 4 do
    for _ = 1 to 25 do
      let node = Dpq_util.Rng.int rng 5 in
      if Dpq_util.Rng.bool rng then ignore (C.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 50))
      else C.delete_min h ~node
    done;
    ignore (C.process h)
  done;
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (C.oplog h))

(* ------------------------------------------------------------ Unbatched *)

let test_unbatched_roundtrip () =
  let h = U.create ~n:6 ~num_prios:3 () in
  let e = U.insert h ~node:1 ~prio:2 in
  U.delete_min h ~node:5;
  let r = U.process h in
  let got =
    List.find_map (fun c -> match c.U.outcome with `Got x -> Some x | _ -> None) r.U.completions
  in
  checkb "same element" true (E.equal e (Option.get got));
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (U.oplog h))

let test_unbatched_priority_order () =
  let h = U.create ~n:4 ~num_prios:5 () in
  List.iteri (fun i p -> ignore (U.insert h ~node:i ~prio:p)) [ 4; 1; 5; 2 ];
  ignore (U.process h);
  for i = 0 to 3 do
    U.delete_min h ~node:i
  done;
  let r = U.process h in
  let prios =
    List.filter_map
      (fun c -> match c.U.outcome with `Got e -> Some (E.prio e) | _ -> None)
      r.U.completions
  in
  Alcotest.(check (list int)) "heap order" [ 1; 2; 4; 5 ] (List.sort compare prios);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (U.oplog h))

let test_unbatched_bottom () =
  let h = U.create ~n:3 ~num_prios:2 () in
  U.delete_min h ~node:0;
  U.delete_min h ~node:2;
  let r = U.process h in
  checki "two ⊥" 2 (List.length (List.filter (fun c -> c.U.outcome = `Empty) r.U.completions));
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (U.oplog h))

let test_unbatched_anchor_load_grows () =
  let load n =
    let h = U.create ~n ~num_prios:2 () in
    for v = 0 to n - 1 do
      ignore (U.insert h ~node:v ~prio:1)
    done;
    (U.process h).U.anchor_load
  in
  checkb "anchor load grows with n" true (load 64 > 3 * load 8)

let test_unbatched_random_semantics () =
  let h = U.create ~n:6 ~num_prios:3 () in
  let rng = Dpq_util.Rng.create ~seed:37 in
  for _ = 1 to 3 do
    for _ = 1 to 20 do
      let node = Dpq_util.Rng.int rng 6 in
      if Dpq_util.Rng.bool rng then ignore (U.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 3))
      else U.delete_min h ~node
    done;
    ignore (U.process h)
  done;
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (U.oplog h))

(* Cross-implementation agreement: when all inserts are processed before
   any delete is issued, every implementation must return exactly the same
   multiset (the k smallest elements). *)
let prop_all_implementations_agree =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 25)
        (pair (0 -- 3) (frequency [ (3, map (fun p -> Some (1 + (p mod 3))) small_nat); (2, return None) ])))
  in
  QCheck.Test.make ~name:"all heaps agree on delete multiset" ~count:40 (QCheck.make gen)
    (fun ops ->
      let results = ref [] in
      let record prios = results := List.sort compare prios :: !results in
      (* Skeap *)
      let inserts = List.filter_map (fun (node, op) -> Option.map (fun p -> (node, p)) op) ops in
      let deleters = List.filter_map (fun (node, op) -> if op = None then Some node else None) ops in
      (* Skeap *)
      let hk = Dpq_skeap.Skeap.create ~seed:3 ~n:4 ~num_prios:3 () in
      List.iter (fun (node, p) -> ignore (Dpq_skeap.Skeap.insert hk ~node ~prio:p)) inserts;
      ignore (Dpq_skeap.Skeap.process_batch hk);
      List.iter (fun node -> Dpq_skeap.Skeap.delete_min hk ~node) deleters;
      let rk = Dpq_skeap.Skeap.process_batch hk in
      record
        (List.filter_map
           (fun c -> match c.Dpq_skeap.Skeap.outcome with `Got e -> Some (E.prio e) | _ -> None)
           rk.Dpq_skeap.Skeap.completions);
      (* Centralized *)
      let hc = C.create ~seed:3 ~n:4 () in
      List.iter (fun (node, p) -> ignore (C.insert hc ~node ~prio:p)) inserts;
      ignore (C.process hc);
      List.iter (fun node -> C.delete_min hc ~node) deleters;
      let rc = C.process hc in
      record
        (List.filter_map
           (fun c -> match c.C.outcome with `Got e -> Some (E.prio e) | _ -> None)
           rc.C.completions);
      (* Unbatched *)
      let hu = U.create ~seed:3 ~n:4 ~num_prios:3 () in
      List.iter (fun (node, p) -> ignore (U.insert hu ~node ~prio:p)) inserts;
      ignore (U.process hu);
      List.iter (fun node -> U.delete_min hu ~node) deleters;
      let ru = U.process hu in
      record
        (List.filter_map
           (fun c -> match c.U.outcome with `Got e -> Some (E.prio e) | _ -> None)
           ru.U.completions);
      match !results with
      | [ a; b; c ] -> a = b && b = c
      | _ -> false)

let () =
  Alcotest.run "dpq_baselines"
    [
      ( "centralized",
        [
          Alcotest.test_case "roundtrip" `Quick test_centralized_roundtrip;
          Alcotest.test_case "priority order" `Quick test_centralized_priority_order;
          Alcotest.test_case "empty heap" `Quick test_centralized_empty_heap;
          Alcotest.test_case "load grows with n" `Quick test_centralized_load_grows_with_n;
          Alcotest.test_case "random semantics" `Quick test_centralized_random_semantics;
        ] );
      ( "unbatched",
        [
          Alcotest.test_case "roundtrip" `Quick test_unbatched_roundtrip;
          Alcotest.test_case "priority order" `Quick test_unbatched_priority_order;
          Alcotest.test_case "bottom" `Quick test_unbatched_bottom;
          Alcotest.test_case "anchor load grows" `Quick test_unbatched_anchor_load_grows;
          Alcotest.test_case "random semantics" `Quick test_unbatched_random_semantics;
        ] );
      ("agreement", [ QCheck_alcotest.to_alcotest prop_all_implementations_agree ]);
    ]
