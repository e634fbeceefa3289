(* Distributed job scheduling — the motivating application from the paper's
   introduction: "one may insert jobs that have been assigned priorities and
   workers may pull these jobs from the heap based on their priority."

   Run with:  dune exec examples/job_scheduler.exe

   16 nodes; the first 8 are frontends submitting jobs in three priority
   classes (interactive=1, batch=2, background=3); the other 8 are workers
   pulling whatever is most urgent.  Skeap keeps the whole thing
   sequentially consistent. *)

module S = Dpq_skeap.Skeap
module E = Dpq_util.Element
module Rng = Dpq_util.Rng

let class_name = function 1 -> "interactive" | 2 -> "batch" | _ -> "background"

let () =
  let n = 16 in
  let frontends = 8 in
  let h = S.create ~seed:2026 ~n ~num_prios:3 () in
  let rng = Rng.create ~seed:99 in
  let submitted = Array.make 4 0 in
  let executed = Array.make 4 0 in

  print_endline "== job scheduler on a 16-node Skeap (8 frontends / 8 workers) ==";
  for tick = 1 to 6 do
    (* Frontends submit a burst of jobs, skewed toward background work. *)
    let jobs = 4 + Rng.int rng 6 in
    for _ = 1 to jobs do
      let node = Rng.int rng frontends in
      let prio = match Rng.int rng 10 with 0 | 1 -> 1 | 2 | 3 | 4 -> 2 | _ -> 3 in
      submitted.(prio) <- submitted.(prio) + 1;
      ignore (S.insert h ~node ~prio)
    done;
    (* Workers each try to pull one job. *)
    for w = frontends to n - 1 do
      S.delete_min h ~node:w
    done;
    let r = S.process_batch h in
    let pulled =
      List.filter_map
        (fun c -> match c.S.outcome with `Got e -> Some (E.prio e) | _ -> None)
        r.S.completions
    in
    List.iter (fun p -> executed.(p) <- executed.(p) + 1) pulled;
    let idle =
      List.length (List.filter (fun c -> c.S.outcome = `Empty) r.S.completions)
    in
    Printf.printf
      "tick %d: %2d jobs submitted | workers pulled %2d (%d idle) | backlog %3d | %4d rounds\n"
      tick jobs (List.length pulled) idle (S.heap_size h)
      r.S.report.Dpq_aggtree.Phase.rounds
  done;

  print_endline "\nper-class totals (executed jobs always favour urgent classes):";
  List.iter
    (fun p ->
      Printf.printf "  %-12s submitted %3d, executed %3d\n" (class_name p) submitted.(p)
        executed.(p))
    [ 1; 2; 3 ];
  Printf.printf "backlog remaining: %d\n" (S.heap_size h);

  (* The executed stream must be sequentially consistent: verify. *)
  match Dpq_semantics.Checker.(check Online.Skeap_contract) (S.oplog h) with
  | Ok () -> print_endline "\nscheduler history verified: sequentially consistent ✓"
  | Error e ->
      Printf.printf "\nsemantics check FAILED: %s\n" e;
      exit 1
