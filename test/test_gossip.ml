module Gossip = Dpq_gossip.Gossip
module Batch_ctl = Dpq_gossip.Batch_ctl
module Skeap = Dpq_skeap.Skeap
module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module T = Dpq_types.Types
module Trace = Dpq_obs.Trace
module Run_digest = Dpq_explore.Run_digest

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------ push-sum *)

let test_pushsum_mean () =
  (* Heterogeneous injection counts: every node's estimate must land on
     the global mean (push-sum conserves total mass, and enough waves
     concentrate every share around it). *)
  let n = 32 in
  let g = Gossip.create ~seed:5 ~n () in
  let counts = Array.init n (fun v -> (7 * v) mod 13) in
  let mean = float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int n in
  let report =
    Gossip.exchange g ~live:(fun _ -> true) ~cumulative:(fun v -> counts.(v)) ~anchor:0 ()
  in
  checki "piggybacked: zero rounds" 0 report.Dpq_aggtree.Phase.rounds;
  checkb "real messages charged" true (report.Dpq_aggtree.Phase.messages > 0);
  for v = 0 to n - 1 do
    match Gossip.estimate g ~node:v with
    | None -> Alcotest.fail "no estimate after exchange"
    | Some e ->
        if Float.abs (e -. mean) > 0.15 *. mean then
          Alcotest.failf "node %d estimate %.3f too far from mean %.3f" v e mean
  done

let test_pushsum_diffs_cumulative () =
  (* The estimator diffs monotone cumulative counters internally: a second
     exchange sees only the delta, and the EWMA tracks the change. *)
  let n = 8 in
  let g = Gossip.create ~config:{ Gossip.default_config with alpha = 1.0 } ~seed:5 ~n () in
  let cum = ref 4 in
  ignore (Gossip.exchange g ~live:(fun _ -> true) ~cumulative:(fun _ -> !cum) ~anchor:0 ());
  cum := 10;
  ignore (Gossip.exchange g ~live:(fun _ -> true) ~cumulative:(fun _ -> !cum) ~anchor:0 ());
  match Gossip.estimate g ~node:0 with
  | None -> Alcotest.fail "no estimate"
  | Some e ->
      (* second interval injected 6 per node everywhere; alpha=1 keeps it *)
      if Float.abs (e -. 6.0) > 0.5 then Alcotest.failf "estimate %.3f, wanted ~6" e

let test_exchange_deterministic () =
  let run () =
    let n = 16 in
    let g = Gossip.create ~seed:9 ~n () in
    ignore (Gossip.exchange g ~live:(fun _ -> true) ~cumulative:(fun v -> v) ~anchor:0 ());
    Array.init n (fun v -> Gossip.estimate g ~node:v)
  in
  checkb "same seed, same estimates" true (run () = run ())

let test_dead_nodes_excluded () =
  let n = 8 in
  let g = Gossip.create ~seed:3 ~n () in
  let live v = v <> 3 in
  ignore (Gossip.exchange g ~live ~cumulative:(fun _ -> 5) ~anchor:0 ());
  checkb "dead node has no estimate" true (Gossip.estimate g ~node:3 = None);
  match Gossip.estimate g ~node:0 with
  | None -> Alcotest.fail "live node missing estimate"
  | Some e -> if Float.abs (e -. 5.0) > 1.0 then Alcotest.failf "estimate %.3f, wanted ~5" e

(* ----------------------------------------------- skeap/seap integration *)

let test_skeap_estimate () =
  let h = Skeap.create ~seed:2 ~gossip:Gossip.default_config ~n:16 ~num_prios:4 () in
  for _ = 1 to 3 do
    for node = 0 to 15 do
      for p = 1 to 3 do
        ignore (Skeap.insert h ~node ~prio:p)
      done
    done;
    ignore (Skeap.process_batch h)
  done;
  match Skeap.load_estimate h with
  | None -> Alcotest.fail "gossip on but no estimate"
  | Some e -> if Float.abs (e -. 3.0) > 0.5 then Alcotest.failf "estimate %.3f, wanted ~3" e

let test_gossip_off_no_estimate () =
  let h = Skeap.create ~seed:2 ~n:8 ~num_prios:2 () in
  ignore (Skeap.insert h ~node:0 ~prio:1);
  ignore (Skeap.process_batch h);
  checkb "no gossip, no estimate" true (Skeap.load_estimate h = None)

let test_gossip_preserves_semantics_and_rounds () =
  (* Same workload with and without the estimator: identical oplogs and
     identical round counts (gossip rides the batch boundary for free),
     only message/bit traffic differs. *)
  let drive gossip =
    let h = Skeap.create ~seed:7 ?gossip ~n:8 ~num_prios:3 () in
    let rng = Dpq_util.Rng.create ~seed:42 in
    let results = ref [] in
    for _ = 1 to 4 do
      for node = 0 to 7 do
        if Dpq_util.Rng.bool rng then ignore (Skeap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 3))
        else Skeap.delete_min h ~node
      done;
      results := Skeap.process_batch h :: !results
    done;
    (Skeap.oplog h, List.rev_map (fun (r : Skeap.batch_result) -> r.report.Dpq_aggtree.Phase.rounds) !results)
  in
  let log_off, rounds_off = drive None in
  let log_on, rounds_on = drive (Some Gossip.default_config) in
  let digest log =
    let acc = Run_digest.start () in
    Run_digest.feed_records acc (Dpq_semantics.Oplog.to_list log);
    Run_digest.finish acc
  in
  checks "oplogs identical" (digest log_off) (digest log_on);
  checkb "round costs identical" true (rounds_off = rounds_on)

(* ------------------------------------------------------------ batch_ctl *)

let test_ctl_tracks_load () =
  let c = Batch_ctl.create { Batch_ctl.default_config with hysteresis = 0.0 } in
  (* teach it F ~ 10 rounds fixed cost, c ~ 0.1 rounds/op *)
  Batch_ctl.observe c ~ops:10 ~rounds:11;
  Batch_ctl.observe c ~ops:100 ~rounds:20;
  Batch_ctl.observe c ~ops:50 ~rounds:15;
  let w_low, _ = Batch_ctl.update c ~lambda_hat:0.5 in
  let w_high, _ = Batch_ctl.update c ~lambda_hat:7.0 in
  checkb "higher load, larger window" true (w_high > w_low);
  checkb "bounded" true (w_low >= 1 && w_high <= Batch_ctl.default_config.w_max)

let test_ctl_hysteresis () =
  let c = Batch_ctl.create { Batch_ctl.default_config with hysteresis = 0.5 } in
  Batch_ctl.observe c ~ops:10 ~rounds:11;
  Batch_ctl.observe c ~ops:100 ~rounds:20;
  let w1, _ = Batch_ctl.update c ~lambda_hat:1.0 in
  (* a tiny load wiggle must not move the window through a 50% deadband *)
  let w2, changed = Batch_ctl.update c ~lambda_hat:1.05 in
  checki "deadband holds" w1 w2;
  checkb "not reported as changed" true (not changed)

let test_ctl_saturation_maxes_window () =
  let c = Batch_ctl.create Batch_ctl.default_config in
  Batch_ctl.observe c ~ops:10 ~rounds:20;
  Batch_ctl.observe c ~ops:100 ~rounds:110;
  Batch_ctl.observe c ~ops:50 ~rounds:60;
  (* slope ~1 round/op: any λ̂ >= headroom is unservable; window maxes out *)
  let w, _ = Batch_ctl.update c ~lambda_hat:50.0 in
  checki "window pegged at w_max" Batch_ctl.default_config.w_max w

let test_ctl_two_batches_no_slope () =
  let c = Batch_ctl.create { Batch_ctl.default_config with w_max = 256 } in
  (* two bootstrap batches at w_min: 96 ops in 149 rounds, 30 in 142; their
     slope (0.106 rounds/op) times λ̂ = 63 would exceed any headroom *)
  Batch_ctl.observe c ~ops:96 ~rounds:149;
  Batch_ctl.observe c ~ops:30 ~rounds:142;
  let w, changed = Batch_ctl.update c ~lambda_hat:63.0 in
  checki "window = mean cost / headroom" 182 w;
  checkb "reported as changed" true changed

let ctl_spec_arb =
  QCheck.make
    ~print:(fun s -> Batch_ctl.spec_to_string s)
    QCheck.Gen.(
      oneof
        [
          return Batch_ctl.Off;
          return (Batch_ctl.On Batch_ctl.default_config);
          (let* w_min = 1 -- 8 in
           let* extra = 0 -- 100 in
           let* headroom = float_range 0.1 1.0 in
           let* hysteresis = float_range 0.0 2.0 in
           return (Batch_ctl.On { w_min; w_max = w_min + extra; headroom; hysteresis }));
        ])

let test_ctl_spec_roundtrip =
  QCheck.Test.make ~name:"adaptive spec round-trips" ~count:200 ctl_spec_arb (fun s ->
      match Batch_ctl.spec_of_string (Batch_ctl.spec_to_string s) with
      | Ok s' -> s = s'
      | Error e -> QCheck.Test.fail_report e)

let test_ctl_spec_rejects () =
  List.iter
    (fun s ->
      match Batch_ctl.spec_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "maybe";
      "on:0:4:0.8:0.2";
      "on:4:2:0.8:0.2";
      "on:1:4:1.5:0.2";
      "on:1:4:0.8";
      "on:x:4:0.8:0.2";
      "on:1:256:nan:0.25";
      "on:1:256:0.8:nan";
    ]

(* ------------------------------------------------------------- run_open *)

let open_spec ~arrival ~rounds =
  W.Gen.
    {
      n = 8;
      rounds;
      lambda = 2;
      insert_ratio = 0.6;
      dist = W.Constant_set 4;
      seed = 13;
      arrival;
    }

let test_run_open_fixed_basic () =
  let spec = open_spec ~arrival:(W.Poisson_rate 1.5) ~rounds:40 in
  let s =
    R.run_open ~window:(R.Fixed 4) ~n:8 (T.Skeap { num_prios = 4 }) (W.Gen.create spec)
  in
  checkb "semantics" true s.R.semantics_ok;
  checkb "ops produced" true (s.R.ops > 0);
  checki "completion balance" (s.R.ops - s.R.lost_ops) (s.R.got + s.R.empty + s.R.inserted);
  checkb "latency percentiles ordered" true
    (s.R.p50_latency <= s.R.p99_latency && s.R.p99_latency <= s.R.p999_latency);
  checkb "makespan covers arrivals" true (s.R.makespan >= 40)

let run_adaptive_digest ~seed =
  let spec = open_spec ~arrival:(W.Burst { on = 5; off = 15; high = 4.0; low = 0.2 }) ~rounds:60 in
  let trace = Trace.create () in
  let acc = Run_digest.start () in
  let s =
    R.run_open ~seed ~trace ~sink:(Run_digest.feed_records acc)
      ~window:(R.Adaptive Batch_ctl.default_config) ~n:8
      (T.Skeap { num_prios = 4 })
      (W.Gen.create spec)
  in
  (s, Run_digest.finish ~trace acc, Trace.window_changes trace, Trace.gossip_exchanges trace)

let test_adaptive_deterministic () =
  let s1, d1, w1, g1 = run_adaptive_digest ~seed:3 in
  let s2, d2, w2, g2 = run_adaptive_digest ~seed:3 in
  checkb "semantics" true s1.R.semantics_ok;
  checkb "summaries identical" true (s1 = s2);
  checks "digests identical" d1 d2;
  checkb "window trajectories identical" true (w1 = w2);
  checki "gossip exchange counts identical" g1 g2;
  checkb "gossip ran" true (g1 > 0)

let test_adaptive_seed_sensitivity () =
  (* Different master seed, different schedule: the digest must move (the
     determinism test above would pass vacuously if digests were
     constants). *)
  let _, d1, _, _ = run_adaptive_digest ~seed:3 in
  let _, d2, _, _ = run_adaptive_digest ~seed:4 in
  checkb "digest depends on seed" true (d1 <> d2)

let test_run_open_closed_spec () =
  (* Closed specs drive through run_open too: every tick injects exactly
     lambda ops per node. *)
  let spec = open_spec ~arrival:W.Closed ~rounds:10 in
  let s = R.run_open ~window:(R.Fixed 1) ~n:8 (T.Skeap { num_prios = 4 }) (W.Gen.create spec) in
  checkb "semantics" true s.R.semantics_ok;
  checki "all ops injected" (8 * 10 * 2) s.R.ops

let arrival_arb =
  QCheck.make
    ~print:W.arrival_to_string
    QCheck.Gen.(
      oneof
        [
          return W.Closed;
          map (fun r -> W.Poisson_rate r) (float_range 0.0 8.0);
          (let* on = 1 -- 20 in
           let* off = 0 -- 20 in
           let* high = float_range 0.0 8.0 in
           let* low = float_range 0.0 8.0 in
           return (W.Burst { on; off; high; low }));
          (let* period = 1 -- 64 in
           let* peak = float_range 0.0 8.0 in
           let* base = float_range 0.0 8.0 in
           return (W.Diurnal { period; peak; base }));
        ])

let test_arrival_roundtrip =
  QCheck.Test.make ~name:"arrival spec round-trips" ~count:300 arrival_arb (fun a ->
      match W.arrival_of_string (W.arrival_to_string a) with
      | Ok a' -> a = a'
      | Error e -> QCheck.Test.fail_report e)

let test_gen_spec_arrival_roundtrip =
  QCheck.Test.make ~name:"gen spec round-trips with arrival" ~count:200 arrival_arb (fun arrival ->
      let spec = open_spec ~arrival ~rounds:7 in
      match W.Gen.spec_of_string (W.Gen.spec_to_string spec) with
      | Ok s' -> spec = s'
      | Error e -> QCheck.Test.fail_report e)

(* ------------------------------------------------- recorded-digest compat *)

(* The gossip subsystem must be invisible when adaptive batching is off:
   every digest recorded in BENCH_grid.jsonl before lib/gossip existed has
   to replay bit-for-bit with the gossip code linked in.  This re-runs each
   small eager cell exactly as bench's traced pass does and compares against
   the recorded digest — the tier-1 guard behind the CI bench-smoke gate. *)

(* Minimal flat-JSONL field extractor for the grid rows (quoted strings and
   bare scalars only — exactly what bench emits). *)
let json_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat and n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      if line.[start] = '"' then begin
        let stop = String.index_from line (start + 1) '"' in
        Some (String.sub line (start + 1) (stop - start - 1))
      end
      else begin
        let stop = ref start in
        while !stop < n && (match line.[!stop] with ',' | '}' -> false | _ -> true) do
          incr stop
        done;
        Some (String.sub line start (!stop - start))
      end

let test_recorded_digests_unchanged () =
  (* dune runs tests from _build/default/test/; the (deps ../BENCH_grid.jsonl)
     declaration in test/dune puts the grid one level up in the sandbox. *)
  let ic = open_in "../BENCH_grid.jsonl" in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let checked = ref 0 in
  List.iter
    (fun line ->
      let get key = json_field line key in
      let mode = Option.get (get "mode") in
      let n = int_of_string (Option.get (get "n")) in
      let faults = Option.value (get "faults") ~default:"" in
      (* Stream/open cells are replayed by bench --compare; here we only
         re-drive the small eager cells so the test stays fast. *)
      if mode = "eager" && n <= 32 && faults = "" then begin
        let backend =
          match Option.get (get "backend") with
          | "skeap" -> T.Skeap { num_prios = 4 }
          | "seap" -> T.Seap
          | "centralized" -> T.Centralized
          | "unbatched" -> T.Unbatched { num_prios = 4 }
          | s -> Alcotest.failf "unknown backend %S in BENCH_grid.jsonl" s
        in
        let lambda = int_of_string (Option.get (get "lambda")) in
        let wl_rounds = int_of_string (Option.get (get "wl_rounds")) in
        let recorded = Option.get (get "digest") in
        (* Exactly bench's eager pass: seed-1 heap, seed-3 generator,
           constant priority set, digest over oplog + trace. *)
        let spec =
          W.Gen.
            {
              n;
              rounds = wl_rounds;
              lambda;
              insert_ratio = 0.5;
              dist = W.Constant_set 4;
              seed = 3;
              arrival = W.Closed;
            }
        in
        let trace = Trace.create () in
        let acc = Run_digest.start () in
        ignore
          (R.run_gen ~seed:1 ~trace ~sink:(Run_digest.feed_records acc) ~n backend
             (W.Gen.create spec)
            : R.summary);
        let digest = Run_digest.finish ~trace acc in
        checks
          (Printf.sprintf "digest of %s n=%d lambda=%d" (T.backend_name backend) n lambda)
          recorded digest;
        incr checked
      end)
    (List.rev !lines);
  checkb "checked at least one recorded eager cell" true (!checked > 0)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dpq_gossip"
    [
      ( "pushsum",
        [
          Alcotest.test_case "estimates the mean" `Quick test_pushsum_mean;
          Alcotest.test_case "diffs cumulative counters" `Quick test_pushsum_diffs_cumulative;
          Alcotest.test_case "deterministic" `Quick test_exchange_deterministic;
          Alcotest.test_case "dead nodes excluded" `Quick test_dead_nodes_excluded;
        ] );
      ( "integration",
        [
          Alcotest.test_case "skeap estimate" `Quick test_skeap_estimate;
          Alcotest.test_case "off means none" `Quick test_gossip_off_no_estimate;
          Alcotest.test_case "semantics and rounds preserved" `Quick
            test_gossip_preserves_semantics_and_rounds;
        ] );
      ( "batch_ctl",
        [
          Alcotest.test_case "tracks load" `Quick test_ctl_tracks_load;
          Alcotest.test_case "hysteresis deadband" `Quick test_ctl_hysteresis;
          Alcotest.test_case "saturation maxes window" `Quick test_ctl_saturation_maxes_window;
          Alcotest.test_case "two batches fit no slope" `Quick test_ctl_two_batches_no_slope;
          qt test_ctl_spec_roundtrip;
          Alcotest.test_case "spec rejects garbage" `Quick test_ctl_spec_rejects;
        ] );
      ( "run_open",
        [
          Alcotest.test_case "fixed window basics" `Quick test_run_open_fixed_basic;
          Alcotest.test_case "adaptive deterministic" `Quick test_adaptive_deterministic;
          Alcotest.test_case "digest depends on seed" `Quick test_adaptive_seed_sensitivity;
          Alcotest.test_case "closed spec drives open loop" `Quick test_run_open_closed_spec;
          qt test_arrival_roundtrip;
          qt test_gen_spec_arrival_roundtrip;
        ] );
      ( "digest_compat",
        [
          Alcotest.test_case "adaptive off keeps recorded digests" `Quick
            test_recorded_digests_unchanged;
        ] );
    ]
