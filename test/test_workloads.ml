module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

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

let inserts wl =
  List.fold_left
    (List.fold_left (fun acc (o : W.op) ->
         match o.W.action with `Ins _ -> acc + 1 | `Del -> acc))
    0 wl

let test_generate_counts () =
  let wl = W.of_gen { gen_spec with W.Gen.n = 8; rounds = 5; seed = 1 } in
  checki "rounds" 5 (List.length wl);
  checki "ops" (8 * 5 * 3) (W.total_ops wl);
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
  let wl insert_ratio =
    W.of_gen
      { gen_spec with W.Gen.n = 16; rounds = 10; lambda = 4; insert_ratio; dist = W.Uniform (1, 100) }
  in
  checki "all inserts" (W.total_ops (wl 1.0)) (inserts (wl 1.0));
  checki "all deletes" 0 (inserts (wl 0.0))

let prios wl =
  List.concat_map
    (List.filter_map (fun (o : W.op) -> match o.W.action with `Ins p -> Some p | `Del -> None))
    wl

let test_prio_distributions () =
  let draw dist = prios (W.of_gen { gen_spec with W.Gen.rounds = 20; insert_ratio = 1.0; dist }) in
  List.iter
    (fun (name, dist, lo, hi) ->
      List.iter
        (fun p -> checkb (Printf.sprintf "%s in [%d,%d]" name lo hi) true (p >= lo && p <= hi))
        (draw dist))
    [
      ("uniform", W.Uniform (10, 20), 10, 20);
      ("zipf", W.Zipf { s = 1.2; n = 30 }, 1, 30);
      ("constant set", W.Constant_set 3, 1, 3);
    ];
  let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true in
  checkb "increasing" true (increasing (draw W.Increasing))

(* A spec alone decides the workload: materializing it twice gives the
   same rounds for every distribution.  [Increasing] once drew from a
   process-wide counter, so its second materialization continued where
   the first stopped and a [gen:] repro line did not replay. *)
let test_of_gen_reproducible () =
  List.iter
    (fun dist ->
      let spec = { gen_spec with W.Gen.dist } in
      checkb
        (Printf.sprintf "dist=%s" (W.Gen.spec_to_string spec))
        true
        (W.of_gen spec = W.of_gen spec))
    [ W.Constant_set 4; W.Uniform (3, 17); W.Zipf { s = 1.2; n = 100 }; W.Increasing ];
  match W.of_string "gen: n=2 rounds=2 lambda=2 ratio=1 dist=increasing seed=1" with
  | Error e -> Alcotest.fail e
  | Ok wl -> checkb "first priority is 1" true (List.hd (prios wl) = 1)

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
  checki "total_ops" (6 * 4 * 3) (W.Gen.total_ops gen_spec)

let test_gen_spec_roundtrip () =
  List.iter
    (fun dist ->
      let s = { gen_spec with W.Gen.dist } in
      match W.Gen.spec_of_string (W.Gen.spec_to_string s) with
      | Ok s' -> checkb "spec round-trips" true (s = s')
      | Error e -> Alcotest.fail e)
    [ W.Constant_set 4; W.Uniform (3, 17); W.Zipf { s = 1.2; n = 100 }; W.Increasing ]

(* Arrival rates must be finite: an infinite Poisson rate once overflowed
   the stack sizing the first round. *)
let test_arrival_rejects_non_finite () =
  List.iter
    (fun spec ->
      match W.arrival_of_string spec with
      | Ok _ -> Alcotest.failf "accepted %S" spec
      | Error _ -> ())
    [
      "poisson:inf";
      "poisson:1e400";
      "poisson:nan";
      "poisson:-1";
      "burst:5:15:inf:0.2";
      "burst:5:15:3:infinity";
      "diurnal:64:inf:0.1";
      "diurnal:64:2:1e999";
    ];
  List.iter
    (fun spec ->
      match W.arrival_of_string spec with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ "closed"; "poisson:0"; "poisson:1.5"; "burst:5:15:3:0.2"; "diurnal:64:2:0.1" ]

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

(* An insert ratio must be a probability: 1.5 once generated all inserts
   and NaN all deletes.  Both the spec parser and a gen: line refuse it. *)
let test_gen_rejects_bad_ratio () =
  List.iter
    (fun ratio ->
      let spec = Printf.sprintf "n=4 rounds=2 lambda=1 ratio=%s dist=increasing seed=1" ratio in
      (match W.Gen.spec_of_string spec with
      | Ok _ -> Alcotest.failf "ratio=%s accepted" ratio
      | Error e ->
          checkb (Printf.sprintf "ratio=%s: %S names the ratio" ratio e) true
            (String.starts_with ~prefix:"Workload.Gen.spec_of_string: ratio must be a number in [0,1]" e));
      match W.of_string ("gen: " ^ spec) with
      | Ok _ -> Alcotest.failf "gen: line with ratio=%s accepted" ratio
      | Error _ -> ())
    [ "nan"; "1.5"; "-0.1"; "inf"; "x" ];
  List.iter
    (fun ratio ->
      let spec = Printf.sprintf "n=4 rounds=2 lambda=1 ratio=%s dist=increasing seed=1" ratio in
      match W.Gen.spec_of_string spec with
      | Ok s -> checkb (Printf.sprintf "ratio=%s kept" ratio) true (s.W.Gen.insert_ratio = float_of_string ratio)
      | Error e -> Alcotest.fail e)
    [ "0"; "1"; "0.6" ]

(* The op stream each spec generates, pinned by the MD5 of its text form:
   a change to how rounds are drawn or assembled must not move one op. *)
let test_gen_stream_pins () =
  List.iter
    (fun (spec, want) ->
      match W.Gen.spec_of_string spec with
      | Error e -> Alcotest.fail e
      | Ok s ->
          Alcotest.(check string)
            spec want
            (Digest.to_hex (Digest.string (W.to_string (W.of_gen s)))))
    [
      ("n=64 rounds=50 lambda=3 ratio=0.5 dist=uniform:1:1000 seed=7", "a4ac1fd22bb7a00d07892527de7e3a42");
      ("n=64 rounds=50 lambda=3 ratio=0.3 dist=zipf:1.2:50 seed=8", "45d3bd02724961aa6a18290a6dde1e2f");
      ("n=33 rounds=40 lambda=2 ratio=0.9 dist=increasing seed=9", "73f08c4fe2eb46026a8518328fb16d4b");
      ( "n=100 rounds=200 lambda=1 ratio=0.5 dist=const:4 seed=3 arrival=poisson:0.05",
        "b798d314bf23d41fb77d18f24202951c" );
      ( "n=50 rounds=300 lambda=1 ratio=0.6 dist=uniform:1:9 seed=4 arrival=burst:10:20:2.5:0.1",
        "190e9b6588811a00ceff62109191c67e" );
      ( "n=50 rounds=300 lambda=1 ratio=0.6 dist=uniform:-5:5 seed=5 arrival=diurnal:50:3:0.2",
        "6a65aac78f76cfbae04afee4628194e7" );
    ]

(* Allocation guard: a round costs its op records and list cells (6
   words per delete, 8 per insert with its [`Ins] block) and nothing per
   draw.  With a boxed Rng state and a [List.init]/[concat_map] round,
   [next] allocated 33 words per op on the closed spec and 373 on the
   Poisson one, where most nodes draw zero ops per tick. *)
let test_gen_allocation () =
  List.iter
    (fun spec ->
      match W.Gen.spec_of_string spec with
      | Error e -> Alcotest.fail e
      | Ok s ->
          let g = W.Gen.create s in
          let ops = ref 0 in
          let before = Gc.minor_words () in
          let rec drain () =
            match W.Gen.next g with
            | None -> ()
            | Some round ->
                ops := !ops + List.length round;
                drain ()
          in
          drain ();
          let per_op = (Gc.minor_words () -. before) /. float_of_int !ops in
          checkb (Printf.sprintf "%s: %.2f minor words per op <= 9" spec per_op) true (per_op <= 9.0))
    [
      "n=1024 rounds=16 lambda=1 ratio=0.5 dist=const:4 seed=3";
      "n=1024 rounds=400 lambda=1 ratio=0.5 dist=const:4 seed=3 arrival=poisson:0.05";
    ]

(* -------------------------------------------------------------- Runner *)

module T = Dpq_types.Types

let small_wl seed n =
  W.of_gen { gen_spec with W.Gen.n; rounds = 2; lambda = 2; dist = W.Constant_set 3; seed }

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

(* ------------------------------------------------------- Arrival_ticks *)

module A = Dpq_workloads.Arrival_ticks

let test_arrival_ticks_any_order () =
  let t = A.create ~n:2 in
  (* node 0 submits seqs 0..9 at ticks 100..109, node 1 one op at tick 7 *)
  for i = 0 to 9 do
    A.add t ~node:0 ~tick:(100 + i)
  done;
  A.add t ~node:1 ~tick:7;
  checki "out of order" 105 (A.take t ~node:0 ~local_seq:5);
  checki "taken twice" (-1) (A.take t ~node:0 ~local_seq:5);
  checki "never added" (-1) (A.take t ~node:0 ~local_seq:10);
  checki "other node" 7 (A.take t ~node:1 ~local_seq:0);
  checki "oldest" 100 (A.take t ~node:0 ~local_seq:0);
  (* the window wraps and grows while seqs 1..4 and 6..9 stay in flight *)
  for i = 10 to 40 do
    A.add t ~node:0 ~tick:(100 + i)
  done;
  List.iter
    (fun seq -> checki (Printf.sprintf "seq %d" seq) (100 + seq) (A.take t ~node:0 ~local_seq:seq))
    [ 40; 1; 9; 2; 3; 4; 6; 7; 8; 10; 39 ];
  checki "taken before the window moved" (-1) (A.take t ~node:0 ~local_seq:0)

(* Allocation guard: once the rings have grown, recording and taking an
   arrival allocate nothing.  The (node, local_seq) hash table they
   replaced allocated a tuple key on every replace, find and remove, and
   an option on every find. *)
let test_arrival_ticks_allocate_nothing () =
  let n = 16 and per_node = 8 in
  let t = A.create ~n in
  let cycle tick =
    for node = 0 to n - 1 do
      for _ = 1 to per_node do
        A.add t ~node ~tick
      done
    done;
    for node = 0 to n - 1 do
      for k = per_node - 1 downto 0 do
        ignore (A.take t ~node ~local_seq:((tick * per_node) + k))
      done
    done
  in
  cycle 0;
  let before = Gc.minor_words () in
  for tick = 1 to 1000 do
    cycle tick
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f minor words over %d lookups" words (1000 * n * per_node)) true
    (words = 0.0)

(* Completion latencies of open-loop runs, pinned: the arrival table
   must hand back exactly the tick each op arrived at, also when ops at a
   killed node never complete. *)
let test_run_open_latency_pins () =
  let spec ~n ~rounds ~arrival ~dist ~seed =
    W.Gen.{ n; rounds; lambda = 2; insert_ratio = 0.6; dist; seed; arrival }
  in
  let latencies (s : R.summary) =
    [ s.R.ops; s.R.lost_ops; s.R.p50_latency; s.R.p99_latency; s.R.p999_latency; s.R.makespan ]
  in
  let sk = T.Skeap { num_prios = 4 } in
  let ints = Alcotest.(list int) in
  Alcotest.check ints "fixed window" [ 491; 0; 266; 538; 539; 576 ]
    (latencies
       (R.run_open ~window:(R.Fixed 4) ~n:8 sk
          (W.Gen.create
             (spec ~n:8 ~rounds:40 ~arrival:(W.Poisson_rate 1.5) ~dist:(W.Constant_set 4) ~seed:13))));
  Alcotest.check ints "adaptive window" [ 567; 0; 83; 104; 104; 137 ]
    (latencies
       (R.run_open ~seed:3 ~window:(R.Adaptive Dpq_gossip.Batch_ctl.default_config) ~n:8 sk
          (W.Gen.create
             (spec ~n:8 ~rounds:60
                ~arrival:(W.Burst { on = 5; off = 15; high = 4.0; low = 0.2 })
                ~dist:(W.Constant_set 4) ~seed:13))));
  Alcotest.check ints "killed node" [ 1297; 86; 1334; 2655; 2655; 2732 ]
    (latencies
       (R.run_open ~replication:3
          ~faults:(Dpq_simrt.Fault_plan.of_string ~seed:5 "drop=0.05,dup=0.02,kill=2@30")
          ~window:(R.Fixed 4) ~n:16 sk
          (W.Gen.create
             (spec ~n:16 ~rounds:80 ~arrival:(W.Poisson_rate 1.0) ~dist:(W.Constant_set 4) ~seed:7))));
  Alcotest.check ints "seap" [ 1103; 0; 706; 1404; 1404; 1461 ]
    (latencies
       (R.run_open ~window:(R.Fixed 8) ~n:16 T.Seap
          (W.Gen.create
             (spec ~n:16 ~rounds:64
                ~arrival:(W.Diurnal { period = 32; peak = 2.0; base = 0.2 })
                ~dist:(W.Uniform (1, 1000)) ~seed:9))))

let () =
  Alcotest.run "dpq_workloads"
    [
      ( "workload",
        [
          Alcotest.test_case "generate counts" `Quick test_generate_counts;
          Alcotest.test_case "insert ratio" `Quick test_generate_insert_ratio;
          Alcotest.test_case "prio distributions" `Quick test_prio_distributions;
        ] );
      ( "gen",
        [
          Alcotest.test_case "of_gen is reproducible" `Quick test_of_gen_reproducible;
          Alcotest.test_case "next / exhaustion" `Quick test_gen_next_exhaustion;
          Alcotest.test_case "spec round-trip" `Quick test_gen_spec_roundtrip;
          Alcotest.test_case "gen: workload line" `Quick test_gen_workload_of_string;
          Alcotest.test_case "arrival rates are finite" `Quick test_arrival_rejects_non_finite;
          Alcotest.test_case "insert ratio must be in [0,1]" `Quick test_gen_rejects_bad_ratio;
          Alcotest.test_case "op streams pinned" `Quick test_gen_stream_pins;
          Alcotest.test_case "allocation per op" `Quick test_gen_allocation;
        ] );
      ( "arrival_ticks",
        [
          Alcotest.test_case "any completion order" `Quick test_arrival_ticks_any_order;
          Alcotest.test_case "allocates nothing" `Quick test_arrival_ticks_allocate_nothing;
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
          Alcotest.test_case "open-loop latencies pinned" `Quick test_run_open_latency_pins;
        ] );
    ]
