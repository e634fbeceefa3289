(* The benchmark's workloads and the loop that drives one instance of a
   workload, timing every public call it makes from the outside. *)

module Heap = Dpq.Dpq_heap
module Types = Dpq_types.Types
module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Checker = Dpq_semantics.Checker
module Run_digest = Dpq_explore.Run_digest
module Fault_plan = Dpq_simrt.Fault_plan

(* ------------------------------------------------------------ workloads *)

type workload = {
  name : string;
  backend : Types.backend;
  spec : W.Gen.spec; (* [seed] is replaced by the run's --seed *)
  window : R.window option; (* [Some]: open loop through Runner.run_open *)
  replication : int;
  faults : string; (* Fault_plan spec, "" when fault-free *)
}

(* The protocol and fault seeds are fixed; --seed moves only the workload
   generator's stream. *)
let protocol_seed = 1
let fault_seed = 271828

let closed ~n ~rounds ~lambda ~insert_ratio dist =
  W.Gen.{ n; rounds; lambda; insert_ratio; dist; seed = 0; arrival = W.Closed }

let skeap = Types.Skeap { num_prios = 4 }
let uniform = W.Uniform (1, 1_000_000)

(* Why each workload is here is recorded in README.md and BENCHMARK.json. *)
let workloads =
  [
    {
      name = "skeap-closed";
      backend = skeap;
      spec = closed ~n:4096 ~rounds:32 ~lambda:1 ~insert_ratio:0.5 (W.Constant_set 4);
      window = None;
      replication = 1;
      faults = "";
    };
    {
      name = "seap-closed";
      backend = Types.Seap;
      spec = closed ~n:1024 ~rounds:16 ~lambda:1 ~insert_ratio:0.6 uniform;
      window = None;
      replication = 1;
      faults = "";
    };
    {
      name = "seap-deep";
      backend = Types.Seap;
      spec = closed ~n:512 ~rounds:8 ~lambda:4 ~insert_ratio:0.75 uniform;
      window = None;
      replication = 1;
      faults = "";
    };
    {
      name = "skeap-open";
      backend = skeap;
      spec =
        {
          (closed ~n:1024 ~rounds:4096 ~lambda:1 ~insert_ratio:0.5 (W.Constant_set 4)) with
          arrival = W.Poisson_rate 0.05;
        };
      window = Some (R.Adaptive { w_min = 1; w_max = 256; headroom = 0.8; hysteresis = 0.25 });
      replication = 1;
      faults = "";
    };
    {
      name = "skeap-faults";
      backend = skeap;
      spec = closed ~n:64 ~rounds:256 ~lambda:4 ~insert_ratio:0.5 (W.Constant_set 4);
      window = None;
      replication = 3;
      faults = "drop=0.05,dup=0.02,kill=7@30000";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The same workload at n = 16: what the tests and the warm-up run. *)
let shrink w = { w with spec = { w.spec with n = 16 } }

let with_seed seed w = { w with spec = { w.spec with seed } }

let plan w = if w.faults = "" then None else Some (Fault_plan.of_string ~seed:fault_seed w.faults)

(* ----------------------------------------------------- outside timers *)

(* Wall nanoseconds and minor words spent inside one layer's calls. *)
type layer = { mutable ns : float; mutable words : float }

let layer () = { ns = 0.0; words = 0.0 }

let timed l f x =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f x in
  l.ns <- l.ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
  l.words <- l.words +. (Gc.minor_words () -. w0);
  r

(* ------------------------------------------------------------- one run *)

type result = {
  ops : int; (* generated operations, including those addressed to killed nodes *)
  attempted : int; (* operations issued to live nodes *)
  completed : int; (* oplog records: operations that completed *)
  batches : int;
  rounds : int;
  messages : int;
  total_bits : int;
  max_congestion : int;
  p50 : int;
  p99 : int;
  ops_per_round : float; (* Runner.throughput, or Runner.open_throughput when open *)
  drain_ticks : int; (* open loop: makespan minus arrival ticks; 0 when closed *)
  digest : string; (* oplog-only Run_digest *)
  ok : bool; (* online checker verdict *)
  peak_live : int;
  wall : float; (* seconds in the run loop: set-up and trace folding excluded *)
  minor_words : float; (* over the run loop *)
  batch_ms : float list; (* Heap.process per batch (closed loop only) *)
  gen : layer;
  inject : layer;
  process : layer;
  take_oplog : layer;
  run_digest : layer;
  checker : layer;
  runner_open : layer; (* Runner.run_open minus its sink (open loop only) *)
}

(* [fold] is called after every batch, outside the timed region; a traced
   run passes one that folds and clears the trace. *)
let run_closed ?trace ~fold w =
  let gen = W.Gen.create w.spec in
  let h =
    Heap.create ~seed:protocol_seed ~replication:w.replication ?faults:(plan w) ?trace
      ~n:w.spec.W.Gen.n w.backend
  in
  let checker = Heap.online_checker h in
  let acc = Run_digest.start () in
  let lat = Stats.Hist.create () in
  let l_gen = layer () and l_inject = layer () and l_process = layer () in
  let l_take = layer () and l_digest = layer () and l_checker = layer () in
  let ops = ref 0 and completed = ref 0 and batches = ref 0 in
  let rounds = ref 0 and messages = ref 0 and bits = ref 0 and congestion = ref 0 in
  let batch_ms = ref [] and fold_s = ref 0.0 in
  (* Per node: operations issued, and operations completed. *)
  let issued = Array.make w.spec.W.Gen.n 0 and answered = Array.make w.spec.W.Gen.n 0 in
  let inject round =
    List.iter
      (fun (op : W.op) ->
        incr ops;
        let node = op.W.node in
        if Heap.live h ~node then begin
          issued.(node) <- issued.(node) + 1;
          match op.W.action with
          | `Ins p -> ignore (Heap.insert h ~node ~prio:p)
          | `Del -> Heap.delete_min h ~node
        end)
      round
  in
  let count recs =
    List.iter (fun (r : Dpq_semantics.Oplog.record) -> answered.(r.node) <- answered.(r.node) + 1) recs;
    completed := !completed + List.length recs
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    match timed l_gen W.Gen.next gen with
    | None -> ()
    | Some round ->
        timed l_inject inject round;
        let ns0 = l_process.ns in
        let r = timed l_process (fun () -> Heap.process h) () in
        batch_ms := ((l_process.ns -. ns0) /. 1e6) :: !batch_ms;
        incr batches;
        rounds := !rounds + r.Heap.rounds;
        messages := !messages + r.Heap.messages;
        bits := !bits + r.Heap.total_bits;
        congestion := max !congestion r.Heap.max_congestion;
        (* Runner's closed-loop latency: each op costs its batch's rounds. *)
        Stats.Hist.add lat r.Heap.rounds ~count:(List.length r.Heap.completions);
        let recs = timed l_take Heap.take_oplog h in
        count recs;
        timed l_digest (Run_digest.feed_records acc) recs;
        timed l_checker (Checker.Online.feed_all checker) recs;
        let f0 = Unix.gettimeofday () in
        fold ();
        fold_s := !fold_s +. (Unix.gettimeofday () -. f0);
        loop ()
  in
  loop ();
  let wall = Unix.gettimeofday () -. t0 -. !fold_s in
  let minor_words = Gc.minor_words () -. w0 in
  (* A killed node drops the operations it had buffered: they are lost
     with their client, like the ones addressed to it after its death. *)
  let dropped = ref 0 in
  Array.iteri
    (fun node k -> if not (Heap.live h ~node) then dropped := !dropped + k - answered.(node))
    issued;
  {
    ops = !ops;
    attempted = Array.fold_left ( + ) 0 issued - !dropped;
    completed = !completed;
    batches = !batches;
    rounds = !rounds;
    messages = !messages;
    total_bits = !bits;
    max_congestion = !congestion;
    p50 = Stats.Hist.percentile lat 0.50;
    p99 = Stats.Hist.percentile lat 0.99;
    ops_per_round = (if !rounds = 0 then 0.0 else float_of_int !ops /. float_of_int !rounds);
    drain_ticks = 0;
    digest = Run_digest.finish acc;
    ok = Checker.Online.finish checker = Ok ();
    peak_live = Checker.Online.peak_live checker;
    wall;
    minor_words;
    batch_ms = !batch_ms;
    gen = l_gen;
    inject = l_inject;
    process = l_process;
    take_oplog = l_take;
    run_digest = l_digest;
    checker = l_checker;
    runner_open = layer ();
  }

(* Open loop: Runner.run_open owns the heap and the per-batch calls, so the
   only seam is its sink, which receives each drained oplog batch. *)
let run_open ?trace ~fold w window =
  let acc = Run_digest.start () in
  let l_digest = layer () in
  let completed = ref 0 and batches = ref 0 and fold_s = ref 0.0 in
  let sink recs =
    timed l_digest (Run_digest.feed_records acc) recs;
    completed := !completed + List.length recs;
    incr batches;
    let f0 = Unix.gettimeofday () in
    fold ();
    fold_s := !fold_s +. (Unix.gettimeofday () -. f0)
  in
  let gen = W.Gen.create w.spec in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let s =
    R.run_open ~seed:protocol_seed ~replication:w.replication ?faults:(plan w) ?trace ~sink
      ~window ~n:w.spec.W.Gen.n w.backend gen
  in
  let wall = Unix.gettimeofday () -. t0 -. !fold_s in
  let minor_words = Gc.minor_words () -. w0 in
  (* The controller's last window change follows the last sink call. *)
  fold ();
  let runner_open = layer () in
  runner_open.ns <- (wall *. 1e9) -. l_digest.ns;
  {
    ops = s.R.ops;
    attempted = s.R.ops - s.R.lost_ops;
    completed = !completed;
    batches = !batches;
    rounds = s.R.rounds;
    messages = s.R.messages;
    total_bits = s.R.total_bits;
    max_congestion = s.R.max_congestion;
    p50 = s.R.p50_latency;
    p99 = s.R.p99_latency;
    ops_per_round = R.open_throughput s;
    drain_ticks = s.R.makespan - w.spec.W.Gen.rounds;
    digest = Run_digest.finish acc;
    ok = s.R.semantics_ok;
    peak_live = s.R.peak_live;
    wall;
    minor_words;
    batch_ms = [];
    gen = layer ();
    inject = layer ();
    process = layer ();
    take_oplog = layer ();
    run_digest = l_digest;
    checker = layer ();
    runner_open;
  }

let run ?trace ?(fold = ignore) w =
  match w.window with
  | None -> run_closed ?trace ~fold w
  | Some window -> run_open ?trace ~fold w window

(* Set-up cost of one instance: everything made before the run loop. *)
let setup w =
  let t0 = Unix.gettimeofday () in
  ignore
    (Heap.create ~seed:protocol_seed ~replication:w.replication ?faults:(plan w) ~n:w.spec.W.Gen.n
       w.backend);
  ignore (W.Gen.create w.spec);
  Unix.gettimeofday () -. t0
