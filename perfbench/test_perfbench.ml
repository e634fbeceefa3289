(* The benchmark's own checks: its statistics helpers on fixed inputs, and,
   for every workload shrunk to n = 16, that Drive.run reports what
   Runner reports for the same run and that its trace fold reconciles. *)

open Perfbench
module R = Dpq_workloads.Runner
module W = Dpq_workloads.Workload
module Trace = Dpq_obs.Trace

let checkf msg expected actual = Alcotest.(check (float 1e-12)) msg expected actual
let checki = Alcotest.(check int)

let test_median () =
  checkf "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  checkf "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  checkf "single" 7.0 (Stats.median [ 7.0 ])

(* Expected values are Python's statistics.quantiles(xs, n=4)[0] and [2]. *)
let test_quartiles () =
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  checkf "q1 of 1..10" 2.75 q1;
  checkf "q3 of 1..10" 8.25 q3;
  let q1, q3 = Stats.quartiles [ 2.0; 1.0 ] in
  checkf "q1 of two" 0.75 q1;
  checkf "q3 of two" 2.25 q3;
  let q1, q3 = Stats.quartiles [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  checkf "q1 of 1..5" 1.5 q1;
  checkf "q3 of 1..5" 4.5 q3

let test_percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  checkf "p90 nearest rank" 9.0 (Stats.percentile 0.9 xs);
  checkf "p50 nearest rank" 5.0 (Stats.percentile 0.5 xs);
  checkf "p100" 10.0 (Stats.percentile 1.0 xs);
  let h = Stats.Hist.create () in
  Stats.Hist.add h 10 ~count:5;
  Stats.Hist.add h 20 ~count:5;
  Stats.Hist.add h 99 ~count:0;
  checki "hist p50" 10 (Stats.Hist.percentile h 0.5);
  checki "hist p99" 20 (Stats.Hist.percentile h 0.99);
  checki "empty hist" 0 (Stats.Hist.percentile (Stats.Hist.create ()) 0.5)

let small w = Drive.with_seed 3 (Drive.shrink w)

(* Runner's summary for the same workload, seeds and faults. *)
let runner (w : Drive.workload) =
  let gen = W.Gen.create w.spec in
  let faults = Drive.plan w in
  let n = w.spec.W.Gen.n in
  match w.window with
  | None ->
      R.run_gen ~seed:Drive.protocol_seed ~replication:w.replication ?faults ~n w.backend gen
  | Some window ->
      R.run_open ~seed:Drive.protocol_seed ~replication:w.replication ?faults ~window ~n w.backend
        gen

let test_agrees_with_runner w () =
  let w = small w in
  let r = Drive.run w and s = runner w in
  checki "ops" s.R.ops r.Drive.ops;
  checki "messages" s.R.messages r.messages;
  checki "rounds" s.R.rounds r.rounds;
  checki "bits" s.R.total_bits r.total_bits;
  checki "max congestion" s.R.max_congestion r.max_congestion;
  checki "p50 latency" s.R.p50_latency r.p50;
  checki "p99 latency" s.R.p99_latency r.p99;
  Alcotest.(check bool) "verdict" s.R.semantics_ok r.ok;
  Alcotest.(check bool) "verdict holds" true r.ok;
  checki "every issued operation completed" r.attempted r.completed

let test_trace_fold_reconciles w () =
  let w = small w in
  let plain = Drive.run w in
  let trace = Trace.create () and layers = Layers.create () in
  let traced = Drive.run ~trace ~fold:(fun () -> Layers.fold layers trace) w in
  checki "fold clears the trace" 0 (Trace.num_events trace);
  Alcotest.(check string) "digest" plain.Drive.digest traced.Drive.digest;
  checki "messages" plain.messages traced.messages;
  checki "rounds" plain.rounds traced.rounds;
  checki "bits" plain.total_bits traced.total_bits;
  checki "span messages" traced.messages (Layers.batch_messages layers);
  checki "unattributed" 0 layers.unattributed

let per_workload name f =
  List.map
    (fun (w : Drive.workload) -> Alcotest.test_case (w.name ^ " " ^ name) `Quick (f w))
    Drive.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
        ] );
      ("drive", per_workload "agrees with runner" test_agrees_with_runner);
      ("trace fold", per_workload "reconciles" test_trace_fold_reconciles);
    ]
