module Q = Dpq_skueue.Skueue
module St = Dpq_skueue.Sstack
module E = Dpq_util.Element
module Checker = Dpq_semantics.Checker

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- Queue *)

let test_queue_fifo_basic () =
  let q = Q.create ~n:4 () in
  let e1 = Q.enqueue q ~node:0 () in
  let e2 = Q.enqueue q ~node:0 () in
  ignore (Q.process_batch q);
  Q.dequeue q ~node:3;
  Q.dequeue q ~node:3;
  let r = Q.process_batch q in
  let got =
    List.filter_map
      (fun c -> match c.Q.outcome with `Dequeued e -> Some e | _ -> None)
      r.Q.completions
  in
  (match got with
  | [ a; b ] ->
      checkb "oldest first" true (E.equal a e1);
      checkb "then second" true (E.equal b e2)
  | _ -> Alcotest.fail "expected two dequeues");
  ok_or_fail (Checker.check Checker.Online.Fifo_contract (Q.oplog q))

let test_queue_fifo_across_batches () =
  let q = Q.create ~n:3 () in
  let order = ref [] in
  for round = 1 to 3 do
    ignore (Q.enqueue q ~node:(round mod 3) ());
    ignore (Q.process_batch q)
  done;
  for _ = 1 to 3 do
    Q.dequeue q ~node:0;
    let r = Q.process_batch q in
    List.iter
      (fun c -> match c.Q.outcome with `Dequeued e -> order := e :: !order | _ -> ())
      r.Q.completions
  done;
  let seqs = List.rev_map (fun (e : E.t) -> e.E.origin) !order in
  Alcotest.(check (list int)) "insertion-batch order" [ 1; 2; 0 ] seqs;
  ok_or_fail (Checker.check Checker.Online.Fifo_contract (Q.oplog q))

let test_queue_empty () =
  let q = Q.create ~n:2 () in
  Q.dequeue q ~node:1;
  let r = Q.process_batch q in
  checki "⊥" 1 (List.length (List.filter (fun c -> c.Q.outcome = `Empty) r.Q.completions));
  ok_or_fail (Checker.check Checker.Online.Fifo_contract (Q.oplog q))

let test_queue_length () =
  let q = Q.create ~n:4 () in
  for i = 0 to 9 do
    ignore (Q.enqueue q ~node:(i mod 4) ())
  done;
  ignore (Q.drain q);
  checki "length" 10 (Q.length q);
  checki "pending" 0 (Q.pending_ops q)

let prop_queue_fifo =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 40) (pair (0 -- 3) bool))
  in
  QCheck.Test.make ~name:"skueue is a fifo queue on random interleavings" ~count:30
    (QCheck.make gen)
    (fun ops ->
      let q = Q.create ~seed:7 ~n:4 () in
      List.iteri
        (fun i (node, enq) ->
          (if enq then ignore (Q.enqueue q ~node ()) else Q.dequeue q ~node);
          if (i + 1) mod 9 = 0 then ignore (Q.process_batch q))
        ops;
      ignore (Q.drain q);
      Checker.check Checker.Online.Fifo_contract (Q.oplog q) = Ok ())

(* ---------------------------------------------------------------- Stack *)

let test_stack_lifo_basic () =
  let s = St.create ~n:4 () in
  let e1 = St.push s ~node:0 () in
  let e2 = St.push s ~node:0 () in
  ignore (St.process_batch s);
  St.pop s ~node:3;
  St.pop s ~node:3;
  let r = St.process_batch s in
  let got =
    List.filter_map
      (fun c -> match c.St.outcome with `Popped e -> Some e | _ -> None)
      r.St.completions
  in
  (match got with
  | [ a; b ] ->
      checkb "newest first" true (E.equal a e2);
      checkb "then older" true (E.equal b e1)
  | _ -> Alcotest.fail "expected two pops");
  ok_or_fail (Checker.check Checker.Online.Lifo_contract (St.oplog s))

let test_stack_position_reuse () =
  (* push, pop, push again: the reused position must carry a fresh epoch so
     the second element does not collide with the first in the DHT. *)
  let s = St.create ~n:2 () in
  let e1 = St.push s ~node:0 () in
  ignore (St.process_batch s);
  St.pop s ~node:1;
  ignore (St.process_batch s);
  let e2 = St.push s ~node:0 () in
  ignore (St.process_batch s);
  St.pop s ~node:1;
  let r = St.process_batch s in
  let got =
    List.filter_map
      (fun c -> match c.St.outcome with `Popped e -> Some e | _ -> None)
      r.St.completions
  in
  (match got with
  | [ e ] ->
      checkb "second incarnation" true (E.equal e e2);
      checkb "not the first" false (E.equal e e1)
  | _ -> Alcotest.fail "expected one pop");
  checki "empty again" 0 (St.size s);
  ok_or_fail (Checker.check Checker.Online.Lifo_contract (St.oplog s))

let test_stack_intra_batch_lifo () =
  (* pushes and pops in the same batch: an entry's pops take that entry's
     own newest pushes. *)
  let s = St.create ~n:1 () in
  let _e1 = St.push s ~node:0 () in
  let e2 = St.push s ~node:0 () in
  St.pop s ~node:0;
  let r = St.process_batch s in
  let got =
    List.filter_map
      (fun c -> match c.St.outcome with `Popped e -> Some e | _ -> None)
      r.St.completions
  in
  (match got with
  | [ e ] -> checkb "pops the just-pushed top" true (E.equal e e2)
  | _ -> Alcotest.fail "expected one pop");
  checki "one remains" 1 (St.size s);
  ok_or_fail (Checker.check Checker.Online.Lifo_contract (St.oplog s))

let test_stack_empty () =
  let s = St.create ~n:3 () in
  St.pop s ~node:2;
  St.pop s ~node:0;
  let r = St.process_batch s in
  checki "two ⊥" 2 (List.length (List.filter (fun c -> c.St.outcome = `Empty) r.St.completions));
  ok_or_fail (Checker.check Checker.Online.Lifo_contract (St.oplog s))

let test_stack_rounds_logarithmic () =
  let rounds n =
    let s = St.create ~seed:3 ~n () in
    for v = 0 to n - 1 do
      ignore (St.push s ~node:v ())
    done;
    let r = St.process_batch s in
    float_of_int r.St.report.Dpq_aggtree.Phase.rounds
  in
  let r64 = rounds 64 and r1024 = rounds 1024 in
  checkb "O(log n) shape" true (r1024 < r64 *. 4.0)

let prop_stack_lifo =
  let gen = QCheck.Gen.(list_size (0 -- 40) (pair (0 -- 3) bool)) in
  QCheck.Test.make ~name:"sstack is a lifo stack on random interleavings" ~count:30
    (QCheck.make gen)
    (fun ops ->
      let s = St.create ~seed:11 ~n:4 () in
      List.iteri
        (fun i (node, is_push) ->
          (if is_push then ignore (St.push s ~node ()) else St.pop s ~node);
          if (i + 1) mod 7 = 0 then ignore (St.process_batch s))
        ops;
      ignore (St.drain s);
      Checker.check Checker.Online.Lifo_contract (St.oplog s) = Ok ())

(* cross-checker sanity: a FIFO log must fail the LIFO checker when order
   actually matters, and vice versa *)
let test_checkers_distinguish () =
  let q = Q.create ~n:2 () in
  ignore (Q.enqueue q ~node:0 ());
  ignore (Q.enqueue q ~node:0 ());
  ignore (Q.process_batch q);
  Q.dequeue q ~node:1;
  Q.dequeue q ~node:1;
  ignore (Q.process_batch q);
  checkb "fifo log fails lifo replay" true
    (Checker.check Checker.Online.Lifo_contract (Q.oplog q) <> Ok ());
  let s = St.create ~n:2 () in
  ignore (St.push s ~node:0 ());
  ignore (St.push s ~node:0 ());
  ignore (St.process_batch s);
  St.pop s ~node:1;
  St.pop s ~node:1;
  ignore (St.process_batch s);
  checkb "lifo log fails fifo replay" true
    (Checker.check Checker.Online.Fifo_contract (St.oplog s) <> Ok ())

let () =
  Alcotest.run "dpq_skueue"
    [
      ( "skueue",
        [
          Alcotest.test_case "fifo basic" `Quick test_queue_fifo_basic;
          Alcotest.test_case "fifo across batches" `Quick test_queue_fifo_across_batches;
          Alcotest.test_case "empty" `Quick test_queue_empty;
          Alcotest.test_case "length" `Quick test_queue_length;
          QCheck_alcotest.to_alcotest prop_queue_fifo;
        ] );
      ( "sstack",
        [
          Alcotest.test_case "lifo basic" `Quick test_stack_lifo_basic;
          Alcotest.test_case "position reuse epochs" `Quick test_stack_position_reuse;
          Alcotest.test_case "intra-batch lifo" `Quick test_stack_intra_batch_lifo;
          Alcotest.test_case "empty" `Quick test_stack_empty;
          Alcotest.test_case "rounds logarithmic" `Quick test_stack_rounds_logarithmic;
          QCheck_alcotest.to_alcotest prop_stack_lifo;
        ] );
      ("checkers", [ Alcotest.test_case "fifo/lifo distinguish" `Quick test_checkers_distinguish ]);
    ]
