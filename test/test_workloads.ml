module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Rng = Dpq_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------ Workload *)

let test_generate_counts () =
  let wl = W.generate ~rng:(Rng.create ~seed:1) ~n:8 ~rounds:5 ~lambda:3 ~prio:(W.Constant_set 4) () in
  checki "rounds" 5 (W.num_rounds wl);
  checki "ops" (8 * 5 * 3) (W.total_ops wl);
  checki "split" (W.total_ops wl) (W.inserts wl + W.deletes wl);
  List.iter
    (fun round ->
      List.iter
        (fun (op : W.op) ->
          checkb "node in range" true (op.W.node >= 0 && op.W.node < 8);
          match op.W.action with
          | `Ins p -> checkb "prio in constant set" true (p >= 1 && p <= 4)
          | `Del -> ())
        round)
    wl

let test_generate_insert_ratio () =
  let wl =
    W.generate ~rng:(Rng.create ~seed:2) ~n:16 ~rounds:10 ~lambda:4 ~insert_ratio:1.0
      ~prio:(W.Uniform (1, 100)) ()
  in
  checki "all inserts" (W.total_ops wl) (W.inserts wl);
  let wl0 =
    W.generate ~rng:(Rng.create ~seed:2) ~n:16 ~rounds:10 ~lambda:4 ~insert_ratio:0.0
      ~prio:(W.Uniform (1, 100)) ()
  in
  checki "all deletes" (W.total_ops wl0) (W.deletes wl0)

let test_prio_distributions () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let u = W.sample_prio rng (W.Uniform (10, 20)) in
    checkb "uniform in range" true (u >= 10 && u <= 20);
    let z = W.sample_prio rng (W.Zipf { s = 1.2; n = 30 }) in
    checkb "zipf in range" true (z >= 1 && z <= 30);
    let c = W.sample_prio rng (W.Constant_set 3) in
    checkb "constant set" true (c >= 1 && c <= 3)
  done;
  let a = W.sample_prio rng W.Increasing in
  let b = W.sample_prio rng W.Increasing in
  checkb "increasing" true (b > a)

let test_sorting_workload_shape () =
  let wl = W.sorting_workload ~rng:(Rng.create ~seed:4) ~n:4 ~m:10 ~prio:(W.Uniform (1, 1000)) in
  checki "inserts" 10 (W.inserts wl);
  checki "deletes" 10 (W.deletes wl);
  (* first round is all inserts *)
  checkb "first round inserts" true
    (List.for_all (fun (o : W.op) -> match o.W.action with `Ins _ -> true | _ -> false) (List.hd wl))

let test_producer_consumer () =
  let wl = W.producer_consumer ~rng:(Rng.create ~seed:5) ~n:8 ~rounds:3 ~rate:2 ~prio:(W.Constant_set 2) in
  List.iter
    (List.iter (fun (o : W.op) ->
         match o.W.action with
         | `Ins _ -> checkb "producers are the low nodes" true (o.W.node < 4)
         | `Del -> checkb "consumers are the high nodes" true (o.W.node >= 4)))
    wl

let test_burst () =
  let wl = W.burst ~rng:(Rng.create ~seed:6) ~n:4 ~quiet_rounds:5 ~burst_size:40 ~prio:(W.Constant_set 2) in
  checki "rounds" 6 (W.num_rounds wl);
  checki "last round is the burst" 40 (List.length (List.nth wl 5))

(* ----------------------------------------------------------------- Gen *)

let gen_spec : W.Gen.spec =
  W.Gen.
    {
      n = 6;
      rounds = 4;
      lambda = 3;
      insert_ratio = 0.5;
      dist = W.Constant_set 4;
      seed = 11;
      arrival = W.Closed;
    }

let test_gen_matches_eager () =
  (* The streaming generator draws from the same named RNG stream as the
     sweep's eager path, so materializing it must be bit-for-bit the
     workload [generate] builds. *)
  let eager =
    W.generate
      ~rng:(Rng.named ~seed:11 "workload")
      ~n:6 ~rounds:4 ~lambda:3 ~insert_ratio:0.5 ~prio:(W.Constant_set 4) ()
  in
  checkb "of_gen = generate" true (W.of_gen gen_spec = eager)

let test_gen_next_exhaustion () =
  let g = W.Gen.create gen_spec in
  let rec drain k =
    match W.Gen.next g with
    | None -> k
    | Some r ->
        checki "round size" (6 * 3) (List.length r);
        drain (k + 1)
  in
  checki "rounds produced" 4 (drain 0);
  checkb "exhausted generator stays exhausted" true (W.Gen.next g = None);
  checki "produced" 4 (W.Gen.produced g);
  checki "total_ops" (6 * 4 * 3) (W.Gen.total_ops gen_spec)

let test_gen_spec_roundtrip () =
  List.iter
    (fun dist ->
      let s = { gen_spec with W.Gen.dist } in
      match W.Gen.spec_of_string (W.Gen.spec_to_string s) with
      | Ok s' -> checkb "spec round-trips" true (s = s')
      | Error e -> Alcotest.fail e)
    [ W.Constant_set 4; W.Uniform (3, 17); W.Zipf { s = 1.2; n = 100 }; W.Increasing ]

let test_gen_workload_of_string () =
  let line = "gen: " ^ W.Gen.spec_to_string gen_spec in
  (match W.of_string line with
  | Error e -> Alcotest.fail e
  | Ok wl ->
      checkb "gen: line materializes of_gen" true (wl = W.of_gen gen_spec);
      (* the eager (round-per-line) serialization of the same workload still
         round-trips *)
      (match W.of_string (W.to_string wl) with
      | Ok wl' -> checkb "eager form round-trips" true (wl = wl')
      | Error e -> Alcotest.fail e));
  match W.of_string "gen: n=0 rounds=1 lambda=1 dist=increasing seed=1" with
  | Ok _ -> Alcotest.fail "invalid spec accepted"
  | Error _ -> ()

(* -------------------------------------------------------------- Runner *)

module T = Dpq_types.Types

let small_wl seed n =
  W.generate ~rng:(Rng.create ~seed) ~n ~rounds:2 ~lambda:2 ~prio:(W.Constant_set 3) ()

let test_runner_skeap () =
  let s = R.run ~n:8 (T.Skeap { num_prios = 3 }) (small_wl 7 8) in
  checki "ops counted" 32 s.R.ops;
  checkb "semantics" true s.R.semantics_ok;
  checkb "no violation" true (s.R.violation = None);
  checkb "rounds positive" true (s.R.rounds > 0);
  checki "completion balance" s.R.ops (s.R.got + s.R.empty + s.R.inserted)

let test_runner_seap () =
  let s = R.run ~n:8 T.Seap (small_wl 7 8) in
  checkb "semantics" true s.R.semantics_ok;
  checki "completion balance" s.R.ops (s.R.got + s.R.empty + s.R.inserted)

let test_runner_centralized () =
  let s = R.run ~n:8 T.Centralized (small_wl 7 8) in
  checkb "semantics" true s.R.semantics_ok;
  checkb "hotspot recorded" true (s.R.hotspot_load > 0)

let test_runner_unbatched () =
  let s = R.run ~n:8 (T.Unbatched { num_prios = 3 }) (small_wl 7 8) in
  checkb "semantics" true s.R.semantics_ok;
  checki "completion balance" s.R.ops (s.R.got + s.R.empty + s.R.inserted)

let test_throughput_metrics () =
  let s = R.run ~n:8 (T.Skeap { num_prios = 3 }) (small_wl 9 8) in
  checkb "throughput positive" true (R.throughput s > 0.0);
  checkb "effective <= raw" true (R.effective_throughput s <= R.throughput s +. 1e-9)

let test_run_gen_matches_run () =
  (* Streaming the generator and materializing it first must yield the
     exact same summary — including the online checker's verdict and the
     live-element high-water mark. *)
  let s1 = R.run_gen ~n:6 (T.Skeap { num_prios = 4 }) (W.Gen.create gen_spec) in
  let s2 = R.run ~n:6 (T.Skeap { num_prios = 4 }) (W.of_gen gen_spec) in
  checkb "streamed summary = materialized summary" true (s1 = s2);
  checkb "semantics" true s1.R.semantics_ok;
  checkb "peak live positive" true (s1.R.peak_live > 0)

(* [?sink] sees every drained batch once, in witness order, and what it
   sees is the whole run: digested, it equals the digest of a direct facade
   drive of the same workload. *)
let test_run_sink () =
  let module Heap = Dpq.Dpq_heap in
  let module Oplog = Dpq_semantics.Oplog in
  let module Run_digest = Dpq_explore.Run_digest in
  let wl = small_wl 7 8 in
  List.iter
    (fun backend ->
      let name = T.backend_name backend in
      let batches = ref [] in
      let trace = Dpq_obs.Trace.create () in
      let s = R.run ~trace ~sink:(fun b -> batches := b :: !batches) ~n:8 backend wl in
      let batches = List.rev !batches in
      checkb (name ^ ": semantics") true s.R.semantics_ok;
      checkb (name ^ ": every batch non-empty") true (List.for_all (( <> ) []) batches);
      let records = List.concat batches in
      checki (name ^ ": one record per op") s.R.ops (List.length records);
      let ids = List.map (fun (r : Oplog.record) -> (r.Oplog.node, r.Oplog.local_seq)) records in
      checki (name ^ ": each record once") (List.length ids)
        (List.length (List.sort_uniq compare ids));
      let rec increasing = function
        | (a : Oplog.record) :: (b :: _ as rest) -> a.Oplog.witness < b.Oplog.witness && increasing rest
        | _ -> true
      in
      checkb (name ^ ": increasing witness order") true (increasing records);
      let acc = Run_digest.start () in
      List.iter (Run_digest.feed_records acc) batches;
      let direct_trace = Dpq_obs.Trace.create () in
      let h = Heap.create ~seed:1 ~trace:direct_trace ~n:8 backend in
      List.iter
        (fun round ->
          List.iter
            (fun (op : W.op) ->
              match op.W.action with
              | `Ins p -> ignore (Heap.insert h ~node:op.W.node ~prio:p)
              | `Del -> Heap.delete_min h ~node:op.W.node)
            round;
          ignore (Heap.process h))
        wl;
      Alcotest.check Alcotest.string (name ^ ": digest = direct drive")
        (Run_digest.of_run ~oplog:(Heap.oplog h) ~trace:direct_trace)
        (Run_digest.finish ~trace acc))
    [ T.Skeap { num_prios = 3 }; T.Seap; T.Centralized; T.Unbatched { num_prios = 3 } ]

let test_all_runners_same_matched_count () =
  (* Same workload, same per-node issue orders: the number of non-⊥ deletes
     must agree across all implementations (they serialize per-node order
     identically at batch granularity). *)
  let wl = small_wl 11 6 in
  let a = R.run ~n:6 (T.Skeap { num_prios = 3 }) wl in
  let c = R.run ~n:6 T.Centralized wl in
  let u = R.run ~n:6 (T.Unbatched { num_prios = 3 }) wl in
  checkb "insert counts equal" true (a.R.inserted = c.R.inserted && c.R.inserted = u.R.inserted)

let () =
  Alcotest.run "dpq_workloads"
    [
      ( "workload",
        [
          Alcotest.test_case "generate counts" `Quick test_generate_counts;
          Alcotest.test_case "insert ratio" `Quick test_generate_insert_ratio;
          Alcotest.test_case "prio distributions" `Quick test_prio_distributions;
          Alcotest.test_case "sorting workload" `Quick test_sorting_workload_shape;
          Alcotest.test_case "producer consumer" `Quick test_producer_consumer;
          Alcotest.test_case "burst" `Quick test_burst;
        ] );
      ( "gen",
        [
          Alcotest.test_case "matches eager generate" `Quick test_gen_matches_eager;
          Alcotest.test_case "next / exhaustion" `Quick test_gen_next_exhaustion;
          Alcotest.test_case "spec round-trip" `Quick test_gen_spec_roundtrip;
          Alcotest.test_case "gen: workload line" `Quick test_gen_workload_of_string;
        ] );
      ( "runner",
        [
          Alcotest.test_case "skeap" `Quick test_runner_skeap;
          Alcotest.test_case "seap" `Quick test_runner_seap;
          Alcotest.test_case "centralized" `Quick test_runner_centralized;
          Alcotest.test_case "unbatched" `Quick test_runner_unbatched;
          Alcotest.test_case "run_gen = run" `Quick test_run_gen_matches_run;
          Alcotest.test_case "sink sees the whole run" `Quick test_run_sink;
          Alcotest.test_case "throughput metrics" `Quick test_throughput_metrics;
          Alcotest.test_case "insert counts agree" `Quick test_all_runners_same_matched_count;
        ] );
    ]
