(* Schedule-exploration harness: determinism per scheduler policy, the
   tier-1 mini-sweep, shrinker soundness against planted protocol bugs, and
   bit-for-bit repro replay. *)

module E = Dpq_explore.Explore
module Corrupt = Dpq_explore.Corrupt
module Digest = Dpq_explore.Run_digest
module Checker = Dpq_semantics.Checker
module W = Dpq_workloads.Workload
module Sched = Dpq_simrt.Sched
module Types = Dpq_types.Types
module Heap = Dpq.Dpq_heap

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

let base_config ?(backend = Types.Skeap { num_prios = 4 }) ?(engine = E.Sync)
    ?(sched = Sched.Fifo) ?faults ?corrupt ~seed () : E.config =
  let spec = E.gen_spec ~seed ~n:5 ~rounds:2 ~lambda:2 backend in
  {
    seed;
    backend;
    n = 5;
    replication = 1;
    engine;
    sched;
    faults;
    corrupt;
    adaptive = Dpq_gossip.Batch_ctl.Off;
    workload = W.of_gen spec;
    gen = Some spec;
  }

(* ------------------------------------------------------- Determinism *)

(* Same seed => byte-identical digest, for every scheduler policy and both
   engines.  This is what makes a repro file meaningful. *)
let test_policy_determinism () =
  List.iter
    (fun sched ->
      let name = Sched.policy_to_string sched in
      let run () = (E.run (base_config ~sched ~seed:3 ())).E.digest in
      checks (name ^ " sync digest stable") (run ()) (run ());
      let run_async () =
        (E.run
           (base_config ~backend:Types.Seap
              ~engine:(E.Async (Dpq_simrt.Async_engine.Exponential 2.0))
              ~sched ~seed:3 ()))
          .E.digest
      in
      checks (name ^ " async digest stable") (run_async ()) (run_async ()))
    E.default_policies

let test_seed_sensitivity () =
  let digest seed = (E.run (base_config ~seed ())).E.digest in
  checkb "different seeds give different digests" true (digest 1 <> digest 2)

let test_digest_reflects_schedule () =
  (* Same workload, different scheduler: the digest must tell them apart
     (it folds in delivery and perturbation events, not just the oplog). *)
  let d sched = (E.run { (base_config ~seed:4 ()) with E.sched }).E.digest in
  checkb "fifo vs crossing digests differ" true (d Sched.Fifo <> d Sched.Crossing_pairs)

(* --------------------------------------------------- Tier-1 mini-sweep *)

let skeap_seap_combos : E.combo list =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun engine ->
          List.map
            (fun faults ->
              {
                E.backend;
                engine;
                faults;
                replication = 1;
                adaptive = Dpq_gossip.Batch_ctl.Off;
                n_override = None;
              })
            [ None; Some "drop=0.2,dup=0.05" ])
        [ E.Sync; E.Async (Dpq_simrt.Async_engine.Exponential 2.0) ])
    [ Types.Skeap { num_prios = 4 }; Types.Seap ]

(* The acceptance bar: 64 seeds across {Skeap, Seap} x {sync, async} x
   {clean, drop+dup}, rotating scheduler policies, zero violations. *)
let test_mini_sweep_clean () =
  let r = E.sweep ~combos:skeap_seap_combos ~seeds:(List.init 64 (fun i -> i)) () in
  checki "64 runs" 64 r.E.runs;
  match r.E.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Printf.sprintf "seed %d (%s): %s" f.E.config.E.seed
           (E.backend_to_string f.E.config.E.backend)
           (Checker.violation_to_string f.E.violation))

(* The sweep `dpq_sim explore --seeds 64` runs (seeds 0..63, n=6, 2 rounds,
   Λ=2), pinned by its digest: a refactor that claims the same
   behaviour must leave it unchanged.  A change that alters schedules on
   purpose updates this pin in the same diff. *)
let test_sweep_digest_pinned () =
  let r = E.sweep ~n:6 ~rounds:2 ~lambda:2 ~seeds:(List.init 64 Fun.id) () in
  checki "no violations" 0 (List.length r.E.failures);
  checks "64-seed sweep digest" "25f871c71e83b36c2b8ce05fff721d99" r.E.digest

(* The same sweep over the Skeap cells of the default grid only: a change
   that re-pins the combined digest for a Seap reason must leave this one
   fixed, so it cannot hide a Skeap change. *)
let test_skeap_sweep_digest_pinned () =
  let combos =
    List.filter
      (fun (c : E.combo) -> match c.E.backend with Types.Skeap _ -> true | _ -> false)
      E.default_combos
  in
  let r = E.sweep ~n:6 ~rounds:2 ~lambda:2 ~combos ~seeds:(List.init 64 Fun.id) () in
  checki "no violations" 0 (List.length r.E.failures);
  checks "64-seed Skeap-only sweep digest" "57c841b3a1b595198fc9e6b91b55dace" r.E.digest

(* ------------------------------------------- Planted bugs and shrinking *)

let planted_violation cfg =
  match (E.run cfg).E.violation with
  | Some v -> v
  | None -> Alcotest.fail "planted corruption went undetected"

let test_planted_bugs_caught () =
  let clause_of corrupt =
    (planted_violation (base_config ~corrupt ~seed:7 ())).Checker.clause
  in
  (* Swapping a matched pair's witnesses makes a delete precede its insert:
     the replay oracle trips first. *)
  checks "swap" "serializability" (Checker.clause_name (clause_of (Corrupt.Swap_matched_pair 0)));
  checks "forge bottom" "serializability"
    (Checker.clause_name (clause_of (Corrupt.Forge_bottom 0)));
  checks "dup witness" "well-formedness"
    (Checker.clause_name (clause_of (Corrupt.Dup_witness 0)))

(* Shrinker soundness: the minimized config still violates the same clause,
   and is no bigger than what we started with. *)
let test_shrink_preserves_violation () =
  let cfg =
    base_config
      ~sched:(Sched.Shuffle { burst = 4; starvation = 0.1 })
      ~faults:"drop=0.1" ~corrupt:(Corrupt.Swap_matched_pair 0) ~seed:7 ()
  in
  let v = planted_violation cfg in
  let shrunk = E.shrink cfg v.Checker.clause in
  let v' = planted_violation shrunk in
  checks "same clause after shrinking" (Checker.clause_name v.Checker.clause)
    (Checker.clause_name v'.Checker.clause);
  checkb "not larger" true (W.total_ops shrunk.E.workload <= W.total_ops cfg.E.workload);
  checkb "axes simplified first" true
    (shrunk.E.sched = Sched.Fifo && shrunk.E.faults = None)

let test_shrink_rejects_passing_config () =
  let cfg = base_config ~seed:7 () in
  checkb "shrink refuses a passing config" true
    (try
       ignore (E.shrink cfg Checker.Serializability);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------- Repro replay *)

let with_temp_file f =
  let path = Filename.temp_file "dpq-repro" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_repro_roundtrip_string () =
  let cfg =
    base_config
      ~sched:(Sched.Channel_bias { src = None; dst = Some 0; factor = 4 })
      ~faults:"drop=0.2,dup=0.05" ~corrupt:(Corrupt.Swap_matched_pair 1) ~seed:12 ()
  in
  let out = E.run cfg in
  let text = E.repro_to_string cfg out in
  (* sweep configs carry their generator spec, so the workload section is
     one "gen:" line, not a round-per-line dump *)
  checkb "gen: line emitted" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "gen:"));
  match E.repro_of_string text with
  | Error e -> Alcotest.fail e
  | Ok (cfg', exp) ->
      checkb "config round-trips" true (cfg = cfg');
      checkb "gen spec round-trips" true (cfg'.E.gen = cfg.E.gen && cfg.E.gen <> None);
      checks "digest round-trips" out.E.digest exp.E.expect_digest;
      checkb "clause round-trips" true
        (exp.E.expect_clause = Option.map (fun v -> v.Checker.clause) out.E.violation)

let test_repro_replays_bit_for_bit () =
  let cfg = base_config ~corrupt:(Corrupt.Swap_matched_pair 0) ~seed:7 () in
  let v = planted_violation cfg in
  let shrunk = E.shrink cfg v.Checker.clause in
  with_temp_file (fun path ->
      E.write_repro ~path shrunk (E.run shrunk);
      match E.replay path with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          checkb "digest matches" true rep.E.digest_matches;
          checkb "clause matches" true rep.E.clause_matches;
          checkb "violation reproduced" true (rep.E.outcome.E.violation <> None))

let test_repro_rejects_garbage () =
  checkb "bad magic" true (Result.is_error (E.repro_of_string "not a repro\n"));
  checkb "bad backend" true
    (Result.is_error
       (E.repro_of_string "dpq-repro v1\nseed 1\nbackend warp\nworkload\n.\n"))

(* Satellite regression: the v1 parser is strict.  Unknown keys, malformed
   header lines and duplicates are rejected with the 1-based line number of
   the offense — a file from a newer format revision can't be replayed with
   its extra fields silently dropped. *)
let test_repro_strict_parser () =
  let valid =
    let cfg = base_config ~seed:5 () in
    E.repro_to_string cfg (E.run cfg)
  in
  checkb "valid file still parses" true (Result.is_ok (E.repro_of_string valid));
  let expect_error name ~line text =
    match E.repro_of_string text with
    | Ok _ -> Alcotest.fail (name ^ ": parser accepted a malformed file")
    | Error e ->
        let want = Printf.sprintf "line %d" line in
        let mem needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        checkb (Printf.sprintf "%s: error %S names %s" name e want) true (mem want e)
  in
  (* an "arrival"-style key from a hypothetical newer revision, spliced in
     after the magic line (line 1) and the seed line (line 2) *)
  expect_error "unknown key" ~line:3
    "dpq-repro v1\nseed 1\nfuture-knob 7\nbackend seap\nworkload\n.\n";
  expect_error "malformed line" ~line:4 "dpq-repro v1\nseed 1\nbackend seap\nsquiggle\nworkload\n.\n";
  expect_error "duplicate key" ~line:3 "dpq-repro v1\nseed 1\nseed 2\nbackend seap\nworkload\n.\n";
  (* comments and blanks keep their source positions *)
  expect_error "position survives comments" ~line:5
    "dpq-repro v1\n# comment\n\nseed 1\nfuture-knob 7\nworkload\n.\n";
  (* bad round lines are positional too *)
  expect_error "bad round line" ~line:13
    "dpq-repro v1\nseed 1\nnodes 4\nbackend seap\nengine sync\nsched fifo\nfaults none\n\
     corrupt none\nexpect-clause none\nexpect-digest deadbeef\nworkload\n.\ngarbage!!\n"

(* A workload the backend cannot run is a parse error naming the line and
   the value: an insert priority outside the backend's range (the insert
   once raised mid-replay), a gen: distribution that can draw one, and a
   node id >= nodes (its ops were once dropped silently). *)
let test_repro_rejects_out_of_range_workload () =
  let repro ~nodes backend round =
    Printf.sprintf
      "dpq-repro v1\nseed 1\nnodes %d\nbackend %s\nengine sync\nsched fifo\nfaults none\n\
       corrupt none\nexpect-clause none\nexpect-digest 0\nworkload\n.\n%s\n"
      nodes backend round
  in
  let gen dist = "gen: n=4 rounds=2 lambda=2 ratio=0.5 dist=" ^ dist ^ " seed=3" in
  List.iter
    (fun (nodes, backend, round, want) ->
      let what = Printf.sprintf "backend %s, %s" backend round in
      match E.repro_of_string (repro ~nodes backend round) with
      | Ok _ -> Alcotest.fail (what ^ ": accepted")
      | Error e -> Alcotest.(check string) what want e)
    [
      (4, "seap", "0:I-3", "Explore: line 13: priority -3 outside the backend's range >= 1");
      ( 4,
        "centralized",
        "1:D 0:I0",
        "Explore: line 13: priority 0 outside the backend's range >= 1" );
      (4, "skeap:4", "0:I9", "Explore: line 13: priority 9 outside the backend's range [1,4]");
      (4, "unbatched:2", "3:I3", "Explore: line 13: priority 3 outside the backend's range [1,2]");
      (2, "skeap:4", "5:I2", "Explore: line 13: node 5 but nodes is 2");
      (2, "seap", "0:D 2:D", "Explore: line 13: node 2 but nodes is 2");
    ];
  let gen_error ~nodes backend dist want =
    (* a gen: line must be the whole workload section *)
    let text =
      Printf.sprintf
        "dpq-repro v1\nseed 1\nnodes %d\nbackend %s\nengine sync\nsched fifo\nfaults none\n\
         corrupt none\nexpect-clause none\nexpect-digest 0\nworkload\n%s\n"
        nodes backend (gen dist)
    in
    let what = Printf.sprintf "backend %s, dist=%s" backend dist in
    match E.repro_of_string text with
    | Ok _ when want = "" -> ()
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error e -> Alcotest.(check string) what want e
  in
  let drawn = "Explore: line 12: the gen: distribution can draw priority " in
  gen_error ~nodes:4 "seap" "uniform:-5:5" (drawn ^ "-5 outside the backend's range >= 1");
  gen_error ~nodes:4 "skeap:4" "const:8" (drawn ^ "8 outside the backend's range [1,4]");
  gen_error ~nodes:4 "skeap:4" "zipf:1.2:5" (drawn ^ "5 outside the backend's range [1,4]");
  gen_error ~nodes:4 "unbatched:3" "increasing" (drawn ^ "16 outside the backend's range [1,3]");
  gen_error ~nodes:3 "seap" "uniform:1:50" "Explore: line 12: node 3 but nodes is 3";
  (* in range: parses *)
  gen_error ~nodes:4 "skeap:4" "const:4" "";
  gen_error ~nodes:4 "seap" "increasing" "";
  checkb "in-range round lines parse" true
    (Result.is_ok (E.repro_of_string (repro ~nodes:4 "skeap:4" "0:I4 3:D")))

(* Adaptive configs serialize (an [adaptive] header line), replay to the
   same digest, and old-style files without the key parse as Off. *)
let adaptive_combo : E.combo =
  {
    E.backend = Types.Skeap { num_prios = 4 };
    engine = E.Sync;
    faults = None;
    replication = 1;
    adaptive = Dpq_gossip.Batch_ctl.On Dpq_gossip.Batch_ctl.default_config;
    n_override = None;
  }

let test_repro_adaptive_roundtrip () =
  let cfg = E.config_of_combo ~n:6 ~rounds:24 ~lambda:2 ~seed:11 ~policy:Sched.Fifo adaptive_combo in
  let out = E.run cfg in
  checkb "adaptive run is clean" true (out.E.violation = None);
  checkb "adaptive run logged ops" true (out.E.ops > 0);
  let text = E.repro_to_string cfg out in
  checkb "adaptive line emitted" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = "adaptive on"));
  (match E.repro_of_string text with
  | Error e -> Alcotest.fail e
  | Ok (cfg', exp) ->
      checkb "adaptive config round-trips" true (cfg' = cfg);
      checks "expected digest round-trips" out.E.digest exp.E.expect_digest);
  with_temp_file (fun path ->
      E.write_repro ~path cfg out;
      match E.replay path with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          checkb "adaptive replay digest matches" true rep.E.digest_matches;
          checkb "adaptive replay clause matches" true rep.E.clause_matches)

let test_repro_absent_adaptive_defaults_off () =
  let cfg = base_config ~seed:5 () in
  let text = E.repro_to_string cfg (E.run cfg) in
  checkb "non-adaptive files carry no adaptive line" true
    (String.split_on_char '\n' text
    |> List.for_all (fun l -> not (String.length l >= 8 && String.sub l 0 8 = "adaptive")));
  match E.repro_of_string text with
  | Error e -> Alcotest.fail e
  | Ok (cfg', _) -> checkb "absent key parses as Off" true (cfg'.E.adaptive = Dpq_gossip.Batch_ctl.Off)

(* Files written while the domain-parallel engine existed carry a
   [domains N] line right after [replication].  The value never affected
   the digest: a positive one is accepted and ignored, anything else is
   still rejected at its line. *)
let with_domains_line value text =
  String.split_on_char '\n' text
  |> List.concat_map (fun l ->
         if String.starts_with ~prefix:"replication " l then [ l; "domains " ^ value ] else [ l ])
  |> String.concat "\n"

let test_repro_legacy_domains_key () =
  let cfg = base_config ~faults:"drop=0.2,dup=0.05" ~seed:9 () in
  let out = E.run cfg in
  let text = E.repro_to_string cfg out in
  checkb "domains line no longer written" false
    (String.split_on_char '\n' text |> List.exists (String.starts_with ~prefix:"domains"));
  let legacy = with_domains_line "4" text in
  (match E.repro_of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok (cfg', exp) ->
      checkb "domains 4 parses to the same config" true (cfg' = cfg);
      checks "expected digest kept" out.E.digest exp.E.expect_digest);
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc legacy);
      match E.replay path with
      | Error e -> Alcotest.fail e
      | Ok rep ->
          checkb "domains 4 file replays to its digest" true rep.E.digest_matches;
          checkb "domains 4 file replays to its clause" true rep.E.clause_matches);
  (* magic, seed, backend, nodes, replication: the spliced line is line 6 *)
  match E.repro_of_string (with_domains_line "0" text) with
  | Ok _ -> Alcotest.fail "domains 0 accepted"
  | Error e ->
      checkb (Printf.sprintf "error %S names line 6" e) true
        (String.starts_with ~prefix:"Explore: line 6: bad domains" e)

(* --------------------------- Seap under adversarial delivery and drops *)

(* Satellite regression: Seap on Adversarial_lifo with 20% drops still
   serializes; the same oplog with one witness forged does not. *)
let test_seap_lifo_drop_serializability () =
  let faults = Dpq_simrt.Fault_plan.of_string ~seed:99 "drop=0.2" in
  let h = Heap.create ~seed:23 ~faults ~n:6 Types.Seap in
  let rng = Dpq_util.Rng.named ~seed:23 "workload" in
  for _ = 1 to 20 do
    let node = Dpq_util.Rng.int rng 6 in
    if Dpq_util.Rng.bernoulli rng ~p:0.55 then
      ignore (Heap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 50))
    else Heap.delete_min h ~node
  done;
  while Heap.pending_ops h > 0 do
    ignore
      (Heap.process
         ~dht_mode:
           (Heap.Dht_async { seed = 13; policy = Dpq_simrt.Async_engine.Adversarial_lifo })
         h)
  done;
  let log = Heap.oplog h in
  (match Checker.check Checker.Online.Seap_contract log with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("honest Seap oplog rejected: " ^ e));
  let forged = Corrupt.apply (Corrupt.Swap_matched_pair 0) log in
  checkb "mis-witnessed oplog rejected" true
    (Result.is_error (Checker.check Checker.Online.Seap_contract forged))

(* ------------------------------------------------ Serialization specs *)

let test_spec_roundtrips () =
  List.iter
    (fun b ->
      match E.backend_of_string (E.backend_to_string b) with
      | Ok b' -> checkb (E.backend_to_string b) true (b = b')
      | Error e -> Alcotest.fail e)
    [ Types.Skeap { num_prios = 4 }; Types.Seap; Types.Centralized; Types.Unbatched { num_prios = 3 } ];
  List.iter
    (fun g ->
      match E.engine_of_string (E.engine_to_string g) with
      | Ok g' -> checkb (E.engine_to_string g) true (g = g')
      | Error e -> Alcotest.fail e)
    [ E.Sync; E.Async (Dpq_simrt.Async_engine.Uniform (1.0, 8.0)); E.Async Dpq_simrt.Async_engine.Adversarial_lifo ];
  List.iter
    (fun c ->
      match Corrupt.of_string (Corrupt.to_string c) with
      | Ok c' -> checkb (Corrupt.to_string c) true (c = c')
      | Error e -> Alcotest.fail e)
    [ Corrupt.Swap_matched_pair 2; Corrupt.Forge_bottom 0; Corrupt.Dup_witness 5 ]

let test_workload_roundtrip () =
  let wl = W.of_gen (E.gen_spec ~seed:31 ~n:4 ~rounds:3 ~lambda:2 Types.Seap) in
  checkb "workload round-trips" true (W.of_string (W.to_string wl) = Ok wl)

(* Runner's online checker and Explore's batch check take the contract
   from one place, so they agree on every run.  They once disagreed on the
   baselines under a perturbing scheduler: Explore held them to
   serializability while Runner still demanded local consistency, and
   flagged every one of these runs. *)
let test_runner_explore_agree () =
  List.iter
    (fun (backend, sched) ->
      for seed = 1 to 8 do
        let cfg = base_config ~backend ~sched ~seed () in
        let s =
          Dpq_workloads.Runner.run ~seed ~sched:(Sched.create ~seed sched) ~n:cfg.E.n backend
            cfg.E.workload
        in
        let verdict v = Option.fold ~none:"none" ~some:Checker.violation_to_string v in
        checks
          (Printf.sprintf "%s %s seed %d" (Dpq_types.Types.backend_name backend)
             (Sched.policy_to_string sched) seed)
          (verdict (E.run cfg).E.violation)
          (verdict s.Dpq_workloads.Runner.violation)
      done)
    [
      (Types.Centralized, Sched.Shuffle { burst = 4; starvation = 0.3 });
      (Types.Unbatched { num_prios = 4 }, Sched.Shuffle { burst = 4; starvation = 0.3 });
      (Types.Centralized, Sched.Crossing_pairs);
      (Types.Unbatched { num_prios = 4 }, Sched.Crossing_pairs);
    ]

let () =
  Alcotest.run "dpq_explore"
    [
      ( "determinism",
        [
          Alcotest.test_case "per-policy digest stability" `Quick test_policy_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "digest sees the schedule" `Quick test_digest_reflects_schedule;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "64-seed skeap+seap mini-sweep" `Quick test_mini_sweep_clean;
          Alcotest.test_case "64-seed default sweep digest pinned" `Quick test_sweep_digest_pinned;
          Alcotest.test_case "64-seed Skeap-only sweep digest pinned" `Quick
            test_skeap_sweep_digest_pinned;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "planted bugs caught" `Quick test_planted_bugs_caught;
          Alcotest.test_case "shrink preserves violation" `Quick test_shrink_preserves_violation;
          Alcotest.test_case "shrink rejects passing config" `Quick test_shrink_rejects_passing_config;
        ] );
      ( "repro",
        [
          Alcotest.test_case "string round-trip" `Quick test_repro_roundtrip_string;
          Alcotest.test_case "replays bit-for-bit" `Quick test_repro_replays_bit_for_bit;
          Alcotest.test_case "rejects garbage" `Quick test_repro_rejects_garbage;
          Alcotest.test_case "strict parser positions errors" `Quick test_repro_strict_parser;
          Alcotest.test_case "rejects out-of-range workloads" `Quick
            test_repro_rejects_out_of_range_workload;
          Alcotest.test_case "adaptive round-trip and replay" `Quick test_repro_adaptive_roundtrip;
          Alcotest.test_case "absent adaptive key means off" `Quick
            test_repro_absent_adaptive_defaults_off;
          Alcotest.test_case "legacy domains key ignored" `Quick test_repro_legacy_domains_key;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "seap lifo+drop serializability" `Quick
            test_seap_lifo_drop_serializability;
          Alcotest.test_case "spec round-trips" `Quick test_spec_roundtrips;
          Alcotest.test_case "workload round-trip" `Quick test_workload_roundtrip;
          Alcotest.test_case "runner and explore agree on the contract" `Quick
            test_runner_explore_agree;
        ] );
    ]
