(* Quickstart: a distributed priority queue over 8 simulated nodes.

   Run with:  dune exec examples/quickstart.exe

   Demonstrates the unified [Dpq.Dpq_heap] API: choose a backend, buffer
   operations at nodes, process a protocol iteration, inspect the results,
   and verify the semantics of the whole run. *)

module H = Dpq.Dpq_heap
module E = Dpq_util.Element

let () =
  print_endline "== dpq quickstart: Seap over 8 nodes ==";
  let h = H.create ~seed:42 ~n:8 H.Seap in

  (* Several nodes insert jobs with arbitrary integer priorities. *)
  let payloads = [ (0, 50_000); (1, 7); (2, 1_000_000); (3, 512); (4, 7); (5, 99_999) ] in
  List.iter
    (fun (node, prio) ->
      let e = H.insert h ~node ~prio in
      Printf.printf "node %d buffers Insert(prio=%d) -> %s\n" node prio (E.to_string e))
    payloads;

  (* Two other nodes want the smallest elements. *)
  H.delete_min h ~node:6;
  H.delete_min h ~node:7;
  H.delete_min h ~node:6;

  Printf.printf "\npending operations: %d\n" (H.pending_ops h);
  let r = H.process h in
  Printf.printf "processed in %d simulated rounds, %d messages, max message %d bits\n\n"
    r.H.rounds r.H.messages r.H.max_message_bits;

  List.iter
    (fun c ->
      match c.H.outcome with
      | `Inserted e -> Printf.printf "  node %d: inserted %s\n" c.H.node (E.to_string e)
      | `Got e -> Printf.printf "  node %d: DeleteMin -> %s\n" c.H.node (E.to_string e)
      | `Empty -> Printf.printf "  node %d: DeleteMin -> ⊥ (empty)\n" c.H.node)
    r.H.completions;

  Printf.printf "\nheap now holds %d elements\n" (H.heap_size h);

  (* The library can prove its own run correct. *)
  (match H.verify h with
  | Ok () -> print_endline "semantics check: serializable + heap consistent ✓"
  | Error e ->
      Printf.printf "semantics check FAILED: %s\n" e;
      exit 1);

  (* Same API, Skeap backend (constant priorities, sequential consistency) —
     this time with a structured trace recording every protocol phase and
     message delivery. *)
  print_endline "\n== same API, Skeap backend with priorities {1..3}, traced ==";
  let trace = Dpq_obs.Trace.create () in
  let h2 = H.create ~seed:7 ~trace ~n:4 (H.Skeap { num_prios = 3 }) in
  ignore (H.insert h2 ~node:0 ~prio:2);
  ignore (H.insert h2 ~node:1 ~prio:1);
  H.delete_min h2 ~node:2;
  let r2 = H.process h2 in
  List.iter
    (fun c ->
      match c.H.outcome with
      | `Got e -> Printf.printf "  node %d got the min: %s\n" c.H.node (E.to_string e)
      | _ -> ())
    r2.H.completions;
  (match H.verify h2 with
  | Ok () -> print_endline "semantics check: sequentially consistent + heap consistent ✓"
  | Error e ->
      Printf.printf "semantics check FAILED: %s\n" e;
      exit 1);

  (* The trace is an independent record of what the run cost: its derived
     tallies equal the report sums, and it serializes to replayable JSONL
     via [Dpq_obs.Trace.to_file trace "run.trace.jsonl"]. *)
  Format.printf "\n%a@." Dpq_obs.Trace.pp_summary trace
