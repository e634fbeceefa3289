(* Distributed sorting — the paper's second motivating application.

   Run with:  dune exec examples/distributed_sort.exe

   m random keys are inserted into a Seap spread over n nodes; draining the
   heap with DeleteMin returns them in globally sorted order, even though no
   single node ever holds more than ~m/n of them. *)

module S = Dpq_seap.Seap
module E = Dpq_util.Element
module Rng = Dpq_util.Rng

let () =
  let n = 16 and m = 256 in
  Printf.printf "== sorting %d random keys on a %d-node Seap ==\n" m n;
  let h = S.create ~seed:4 ~n () in
  let rng = Rng.create ~seed:8 in
  let keys = List.init m (fun _ -> 1 + Rng.int rng 1_000_000) in
  List.iteri (fun i k -> ignore (S.insert h ~node:(i mod n) ~prio:k)) keys;
  let r0 = S.process_round h in
  Printf.printf "inserted %d keys in %d rounds; per-node storage: max %d (mean %.1f)\n" m
    r0.S.report.Dpq_aggtree.Phase.rounds
    (Array.fold_left max 0 (S.stored_per_node h))
    (float_of_int m /. float_of_int n);

  (* Drain: every node repeatedly asks for the minimum. *)
  (* The k deletes of one round are concurrent: together they return the k
     globally smallest elements as a set.  Ordering each round's set and
     concatenating the rounds yields the fully sorted sequence. *)
  let output = ref [] in
  let total_rounds = ref r0.S.report.Dpq_aggtree.Phase.rounds in
  while S.heap_size h > 0 do
    let want = min n (S.heap_size h) in
    for node = 0 to want - 1 do
      S.delete_min h ~node
    done;
    let r = S.process_round h in
    total_rounds := !total_rounds + r.S.report.Dpq_aggtree.Phase.rounds;
    let this_round =
      List.filter_map
        (fun c -> match c.S.outcome with `Got e -> Some e | _ -> None)
        r.S.completions
      |> List.sort E.compare
    in
    output := List.rev_append this_round !output
  done;
  let sorted_out = List.rev !output in
  Printf.printf "drained in %d total simulated rounds\n" !total_rounds;

  (* Check the result is a sorted permutation of the input. *)
  let out_keys = List.map E.prio sorted_out in
  let ok_perm = List.sort compare out_keys = List.sort compare keys in
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> E.compare a b <= 0 && is_sorted rest
    | _ -> true
  in
  Printf.printf "output is a permutation of the input: %b\n" ok_perm;
  Printf.printf "output is globally sorted:            %b\n" (is_sorted sorted_out);
  Printf.printf "first five: %s\n"
    (String.concat ", " (List.map string_of_int (List.filteri (fun i _ -> i < 5) out_keys)));
  if not (ok_perm && is_sorted sorted_out) then exit 1;
  match Dpq_semantics.Checker.(check Online.Seap_contract) (S.oplog h) with
  | Ok () -> print_endline "run verified: serializable + heap consistent ✓"
  | Error e ->
      Printf.printf "semantics check FAILED: %s\n" e;
      exit 1
