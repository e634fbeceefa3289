(* Churn: nodes joining and leaving a live heap (paper Contribution 4).

   Run with:  dune exec examples/churn.exe

   The heap keeps operating across membership changes: the overlay is
   restructured in O(log n) messages, only the key-space share of the
   affected node moves (~m/n elements), and the operation log still
   verifies end to end.  Everything goes through the unified
   [Dpq.Dpq_heap] API — switch the backend below to [Skeap { num_prios }]
   and the same program exercises the other protocol. *)

module H = Dpq.Dpq_heap
module Rng = Dpq_util.Rng

let () =
  let h = H.create ~seed:2026 ~n:4 H.Seap in
  let rng = Rng.create ~seed:5 in
  print_endline "== a Seap under churn: starts with 4 nodes ==";
  for round = 1 to 6 do
    (* normal traffic on whatever nodes currently exist *)
    let n = H.n h in
    for _ = 1 to 12 do
      let node = Rng.int rng n in
      if Rng.bool rng then ignore (H.insert h ~node ~prio:(1 + Rng.int rng 1_000_000))
      else H.delete_min h ~node
    done;
    ignore (H.process h);
    Printf.printf "round %d: n=%d heap=%d\n" round (H.n h) (H.heap_size h);
    (* membership changes between rounds *)
    if round = 2 || round = 4 then begin
      let c = H.add_node h in
      Printf.printf
        "  + node %d joins: %d overlay messages, %d of %d elements re-homed\n"
        (H.n h - 1) c.H.join_messages c.H.moved_elements (H.heap_size h)
    end;
    if round = 5 then begin
      let before = H.heap_size h in
      let c = H.remove_last_node h in
      Printf.printf "  - node %d leaves: %d of %d elements re-homed, heap intact: %b\n"
        (H.n h) c.H.moved_elements before
        (H.heap_size h = before)
    end
  done;
  ignore (H.drain h);
  Printf.printf "\nfinal: n=%d heap=%d\n" (H.n h) (H.heap_size h);
  match H.verify h with
  | Ok () -> print_endline "entire churned history verified: serializable + heap consistent ✓"
  | Error e ->
      Printf.printf "semantics check FAILED: %s\n" e;
      exit 1
