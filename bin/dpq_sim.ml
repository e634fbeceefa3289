(* dpq_sim: run a configurable workload against any of the heap
   implementations and print a one-screen summary.

     dune exec bin/dpq_sim.exe -- --protocol skeap --nodes 64 --rounds 4 \
         --lambda 4 --prios 8 --seed 7
     dune exec bin/dpq_sim.exe -- --protocol seap --dist zipf
     dune exec bin/dpq_sim.exe -- --protocol centralized --nodes 16

   Protocols: skeap | seap | centralized | unbatched.
   Distributions: const (uniform over {1..prios}) | uniform (1..10^6) |
   zipf (s = 1.2 over 1..1000).
   With --trace FILE the whole run is recorded as JSONL events (one per
   protocol phase / message delivery) replayable by Dpq_obs.Trace.

   Faults: --drop/--dup/--crash (or a full --faults SPEC) run the whole
   simulation over a lossy network with ack/retransmit reliable delivery;
   semantics still verify, costs grow.  A SPEC can also schedule permanent
   node loss (kill=NODE@TICK); pair it with --replication K so the DHT
   keeps K copies of every key and anti-entropy repair covers the loss.

   Schedule exploration:

     dune exec bin/dpq_sim.exe -- explore --seeds 256
     dune exec bin/dpq_sim.exe -- --replay dpq-repro-21.txt

   `explore` sweeps seeded adversarial interleavings over the full
   (backend x engine x faults x scheduler) grid, checks every oplog, and
   on failure shrinks the schedule and writes a self-contained repro file
   that --replay re-executes bit-for-bit. *)

module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Batch_ctl = Dpq_gossip.Batch_ctl
module Trace = Dpq_obs.Trace
module Explore = Dpq_explore.Explore
module Checker = Dpq_semantics.Checker

let make_faults ~seed ~faults_spec ~drop ~dup ~crash =
  match faults_spec with
  | Some spec -> (
      try Some (Dpq_simrt.Fault_plan.of_string ~seed spec)
      with Invalid_argument m ->
        Printf.eprintf "dpq_sim: --faults: %s\n" m;
        exit 1)
  | None ->
      if drop = 0.0 && dup = 0.0 && crash = [] then None
      else
        let crashes =
          List.map
            (fun c ->
              match String.split_on_char '@' c with
              | [ node; window ] -> (
                  match String.split_on_char '-' window with
                  | [ f; u ] -> (
                      try
                        Dpq_simrt.Fault_plan.
                          {
                            node = int_of_string node;
                            from_tick = int_of_string f;
                            until_tick = int_of_string u;
                          }
                      with _ ->
                        Printf.eprintf "dpq_sim: bad --crash %S (want NODE@FROM-UNTIL)\n" c;
                        exit 1)
                  | _ ->
                      Printf.eprintf "dpq_sim: bad --crash %S (want NODE@FROM-UNTIL)\n" c;
                      exit 1)
              | _ ->
                  Printf.eprintf "dpq_sim: bad --crash %S (want NODE@FROM-UNTIL)\n" c;
                  exit 1)
            crash
        in
        Some (Dpq_simrt.Fault_plan.create ~drop ~duplicate:dup ~crashes ~seed ())

let pp_config (cfg : Explore.config) =
  Printf.printf "  seed=%d backend=%s n=%d engine=%s sched=%s faults=%s%s\n" cfg.Explore.seed
    (Explore.backend_to_string cfg.Explore.backend)
    cfg.Explore.n
    (Explore.engine_to_string cfg.Explore.engine)
    (Dpq_simrt.Sched.policy_to_string cfg.Explore.sched)
    (Option.value cfg.Explore.faults ~default:"none")
    (match cfg.Explore.corrupt with
    | None -> ""
    | Some c -> " corrupt=" ^ Dpq_explore.Corrupt.to_string c)

let do_replay file =
  match Explore.replay file with
  | Error msg ->
      Printf.eprintf "replay: %s\n" msg;
      exit 1
  | Ok rep ->
      Printf.printf "replaying %s\n" file;
      pp_config rep.Explore.config;
      Printf.printf "  ops=%d digest=%s\n" rep.Explore.outcome.Explore.ops
        rep.Explore.outcome.Explore.digest;
      (match rep.Explore.outcome.Explore.violation with
      | None -> Printf.printf "  semantics: all checks passed\n"
      | Some v -> Printf.printf "  semantics: %s\n" (Checker.violation_to_string v));
      Printf.printf "  digest matches expectation : %b\n" rep.Explore.digest_matches;
      Printf.printf "  clause matches expectation : %b\n" rep.Explore.clause_matches;
      if rep.Explore.digest_matches && rep.Explore.clause_matches then exit 0 else exit 2

let run protocol nodes rounds lambda prios dist insert_ratio seed replication trace_file
    faults_spec drop dup crash arrival_spec adaptive_spec window replay =
  (match replay with Some file -> do_replay file | None -> ());
  let arrival =
    match W.arrival_of_string arrival_spec with
    | Ok a -> a
    | Error e ->
        Printf.eprintf "dpq_sim: --arrival: %s\n" e;
        exit 1
  in
  let adaptive =
    match Batch_ctl.spec_of_string adaptive_spec with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "dpq_sim: --adaptive: %s\n" e;
        exit 1
  in
  (* Out-of-range values fail here with the flag's name, not as a library
     exception from inside the run. *)
  let bad flag fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "dpq_sim: %s %s\n" flag msg;
        exit 1)
      fmt
  in
  (match window with Some w when w < 1 -> bad "--window" "must be >= 1, got %d" w | _ -> ());
  List.iter
    (fun (flag, v) -> if v < 1 then bad flag "must be >= 1, got %d" v)
    [ ("--nodes", nodes); ("--replication", replication); ("--prios", prios) ];
  List.iter
    (fun (flag, p) -> if not (p >= 0.0 && p <= 1.0) then bad flag "must be in [0,1], got %g" p)
    [ ("--drop", drop); ("--dup", dup); ("--insert-ratio", insert_ratio) ];
  (* any open-loop knob switches to the open-loop driver; with all three at
     their defaults the run takes the legacy closed-loop path bit-for-bit *)
  let open_mode = arrival <> W.Closed || adaptive <> Batch_ctl.Off || window <> None in
  let prio_dist =
    match dist with
    | "const" -> W.Constant_set prios
    | "uniform" -> W.Uniform (1, 1_000_000)
    | "zipf" -> W.Zipf { s = 1.2; n = 1000 }
    | other ->
        Printf.eprintf "unknown distribution %S (const|uniform|zipf)\n" other;
        exit 1
  in
  (match (protocol, dist) with
  | ("skeap" | "unbatched"), ("uniform" | "zipf") ->
      Printf.eprintf
        "%s needs a constant priority universe; use --dist const (or seap for arbitrary priorities)\n"
        protocol;
      exit 1
  | _ -> ());
  let backend =
    match protocol with
    | "skeap" -> Dpq_types.Types.Skeap { num_prios = prios }
    | "seap" -> Dpq_types.Types.Seap
    | "centralized" -> Dpq_types.Types.Centralized
    | "unbatched" -> Dpq_types.Types.Unbatched { num_prios = prios }
    | other ->
        Printf.eprintf "unknown protocol %S (skeap|seap|centralized|unbatched)\n" other;
        exit 1
  in
  let faults = make_faults ~seed:(seed + 271828) ~faults_spec ~drop ~dup ~crash in
  Option.iter
    (fun plan ->
      List.iter
        (fun (k : Dpq_simrt.Fault_plan.kill) ->
          if k.Dpq_simrt.Fault_plan.node >= nodes then
            bad "--faults" "kills node %d but --nodes is %d" k.Dpq_simrt.Fault_plan.node nodes)
        (Dpq_simrt.Fault_plan.kills plan))
    faults;
  (* An unwritable trace path fails here, before the run, not after it.
     Opening without truncation creates the file if it is missing; the
     trace overwrites it at the end. *)
  let cannot_write_trace msg =
    Printf.eprintf "dpq_sim: cannot write trace %s\n" msg;
    exit 1
  in
  Option.iter
    (fun file ->
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
      with Sys_error msg -> cannot_write_trace msg)
    trace_file;
  (* adaptive runs always record a trace so the window trajectory can be
     reported, whether or not it is written to a file *)
  let trace =
    if trace_file <> None || adaptive <> Batch_ctl.Off then Some (Trace.create ()) else None
  in
  let spec = W.Gen.{ n = nodes; rounds; lambda; insert_ratio; dist = prio_dist; seed; arrival } in
  let summary =
    if open_mode then begin
      (match (backend, adaptive) with
      | (Dpq_types.Types.Centralized | Dpq_types.Types.Unbatched _), Batch_ctl.On _ ->
          Printf.eprintf "--adaptive needs a gossip-capable protocol (skeap|seap)\n";
          exit 1
      | _ -> ());
      let wdw =
        match adaptive with
        | Batch_ctl.On c -> R.Adaptive c
        | Batch_ctl.Off -> R.Fixed (Option.value window ~default:1)
      in
      R.run_open ?trace ?faults ~seed ~replication ~window:wdw ~n:nodes backend
        (W.Gen.create spec)
    end
    else
      (* rounds are generated on demand and checked online, so memory stays
         O(live elements) even at n=65536 *)
      R.run_gen ?trace ?faults ~seed ~replication ~n:nodes backend (W.Gen.create spec)
  in
  Printf.printf "workload : %d nodes x %d rounds x Λ=%d  (%d ops: %d ins / %d del, %s priorities)%s\n"
    nodes rounds lambda summary.R.ops summary.R.inserted
    (summary.R.got + summary.R.empty)
    dist
    (if open_mode then "  [open-loop]" else "");
  Printf.printf "protocol : %s\n\n" (R.protocol_name summary);
  Printf.printf "  simulated rounds        %d\n" summary.R.rounds;
  Printf.printf "  messages                %d  (%d bits total)\n" summary.R.messages
    summary.R.total_bits;
  Printf.printf "  largest message         %d bits\n" summary.R.max_message_bits;
  Printf.printf "  max congestion          %d msgs/node/round\n" summary.R.max_congestion;
  Printf.printf "  busiest node handled    %d msgs\n" summary.R.hotspot_load;
  Printf.printf "  throughput              %.2f ops/round (%.2f bandwidth-honest)\n"
    (R.throughput summary)
    (R.effective_throughput summary);
  if open_mode then begin
    Printf.printf "  arrival                 %s, batch window %s\n" (W.arrival_to_string arrival)
      (match adaptive with
      | Batch_ctl.On c -> Printf.sprintf "adaptive [%d..%d]" c.Batch_ctl.w_min c.Batch_ctl.w_max
      | Batch_ctl.Off -> Printf.sprintf "fixed %d" (Option.value window ~default:1));
    Printf.printf "  completion latency      p50=%d p99=%d p999=%d rounds\n" summary.R.p50_latency
      summary.R.p99_latency summary.R.p999_latency;
    Printf.printf "  makespan                %d ticks  (%.2f ops/tick)\n" summary.R.makespan
      (R.open_throughput summary);
    match (adaptive, trace) with
    | Batch_ctl.On c, Some tr ->
        Printf.printf "  gossip exchanges        %d\n" (Trace.gossip_exchanges tr);
        let trajectory =
          string_of_int c.Batch_ctl.w_min
          :: List.map (fun (_, w) -> string_of_int w) (Trace.window_changes tr)
        in
        Printf.printf "  window trajectory       %s\n" (String.concat " -> " trajectory)
    | _ -> ()
  end;
  Printf.printf "  outcomes                %d inserted, %d matched deletes, %d ⊥\n"
    summary.R.inserted summary.R.got summary.R.empty;
  if summary.R.lost_ops > 0 then
    Printf.printf "  ops lost to dead nodes  %d\n" summary.R.lost_ops;
  Printf.printf "  peak live elements      %d  (online-checker state is O(this))\n"
    summary.R.peak_live;
  Printf.printf "  semantics verified      %b\n" summary.R.semantics_ok;
  (match summary.R.violation with
  | None -> ()
  | Some v -> Printf.printf "  violation               %s\n" (Checker.violation_to_string v));
  (match faults with
  | None -> ()
  | Some plan ->
      let st = Dpq_simrt.Fault_plan.stats plan in
      Printf.printf "  faults injected         %d drops, %d dups, %d crash drops, %d dead letters\n"
        st.Dpq_simrt.Fault_plan.drops st.Dpq_simrt.Fault_plan.duplicates
        st.Dpq_simrt.Fault_plan.crash_drops st.Dpq_simrt.Fault_plan.dead_letters;
      (match Dpq_simrt.Fault_plan.kills plan with
      | [] -> ()
      | kills ->
          Printf.printf "  nodes killed            %s\n"
            (String.concat ", "
               (List.map
                  (fun (k : Dpq_simrt.Fault_plan.kill) ->
                    Printf.sprintf "%d@%d" k.Dpq_simrt.Fault_plan.node
                      k.Dpq_simrt.Fault_plan.at_tick)
                  kills)));
      Printf.printf "  reliable layer          %d retransmits, %d acks, %d dups suppressed\n"
        st.Dpq_simrt.Fault_plan.retransmits st.Dpq_simrt.Fault_plan.acks_sent
        st.Dpq_simrt.Fault_plan.dups_suppressed);
  (match (trace, trace_file) with
  | Some tr, Some file ->
      (try Trace.to_file tr file with Sys_error msg -> cannot_write_trace msg);
      Printf.printf "\ntrace    : %d events -> %s\n" (Trace.num_events tr) file;
      Format.printf "%a@." Trace.pp_summary tr
  | _ -> ());
  if not summary.R.semantics_ok then exit 2

let explore_run num_seeds start nodes rounds lambda repro_dir no_shrink =
  let seeds = List.init num_seeds (fun i -> start + i) in
  let res = Explore.sweep ~n:nodes ~rounds ~lambda ~seeds () in
  Printf.printf "explored  : %d runs over %d combos x %d scheduler policies\n" res.Explore.runs
    (List.length Explore.default_combos)
    (List.length Explore.default_policies);
  (* One line pinning every run's (digest, verdict, ops): tests and CI pin
     it for fixed seed ranges. *)
  Printf.printf "sweep digest: %s\n" res.Explore.digest;
  match res.Explore.failures with
  | [] ->
      Printf.printf "violations: none\n";
      exit 0
  | failures ->
      Printf.printf "violations: %d\n\n" (List.length failures);
      List.iter
        (fun (f : Explore.failure) ->
          Printf.printf "FAIL %s\n" (Checker.violation_to_string f.Explore.violation);
          pp_config f.Explore.config;
          let clause = f.Explore.violation.Checker.clause in
          let cfg =
            if no_shrink then f.Explore.config
            else begin
              let shrunk = Explore.shrink f.Explore.config clause in
              Printf.printf "  shrunk to %d op(s):\n" (W.total_ops shrunk.Explore.workload);
              pp_config shrunk;
              shrunk
            end
          in
          let out = Explore.run cfg in
          let path =
            Filename.concat repro_dir (Printf.sprintf "dpq-repro-%d.txt" cfg.Explore.seed)
          in
          Explore.write_repro ~path cfg out;
          Printf.printf "  repro: %s (replay with dpq_sim --replay)\n\n" path)
        failures;
      exit 2

open Cmdliner

let protocol =
  Arg.(value & opt string "skeap" & info [ "protocol"; "p" ] ~doc:"skeap | seap | centralized | unbatched")

let nodes = Arg.(value & opt int 32 & info [ "nodes"; "n" ] ~doc:"Number of nodes.")
let rounds = Arg.(value & opt int 3 & info [ "rounds"; "r" ] ~doc:"Injection rounds.")
let lambda = Arg.(value & opt int 2 & info [ "lambda" ] ~doc:"Operations per node per round.")
let prios = Arg.(value & opt int 4 & info [ "prios" ] ~doc:"Priority universe size for const.")
let dist = Arg.(value & opt string "const" & info [ "dist" ] ~doc:"const | uniform | zipf.")

let insert_ratio =
  Arg.(value & opt float 0.5 & info [ "insert-ratio" ] ~doc:"Fraction of inserts (0..1).")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let replication =
  Arg.(
    value & opt int 1
    & info [ "replication"; "k" ] ~docv:"K"
        ~doc:
          "DHT replica degree (skeap/seap only). With $(docv) > 1 every key's elements are \
           stored at $(docv) successor points of the hash ring, and the heap survives \
           permanent $(b,kill=) losses of up to $(docv)-1 replicas of any key: lost copies \
           are rebuilt by Merkle anti-entropy repair.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Record the run as JSONL trace events into $(docv).")

let faults_spec =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault plan: comma-separated key=value items. $(b,drop=P) / $(b,dup=P) lose or \
           duplicate transmissions, $(b,spike=PxF) multiplies async delays, \
           $(b,crash=NODE@FROM-UNTIL) keeps NODE deaf during ticks [FROM,UNTIL) \
           (stall-and-recover: its state survives), and $(b,kill=NODE@TICK) destroys NODE \
           and its stored state permanently at the first batch boundary at or after TICK \
           (pair with $(b,--replication)). Example: \
           $(b,drop=0.2,dup=0.05,spike=0.1x8,crash=3@100-200,kill=1@50). Overrides \
           $(b,--drop)/$(b,--dup)/$(b,--crash).")

let drop =
  Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Probability a transmission is dropped.")

let dup =
  Arg.(value & opt float 0.0 & info [ "dup" ] ~doc:"Probability a transmission is duplicated.")

let crash =
  Arg.(
    value
    & opt_all string []
    & info [ "crash" ] ~docv:"NODE@FROM-UNTIL"
        ~doc:"Crash window: the node receives nothing during ticks [FROM,UNTIL). Repeatable.")

let arrival_spec =
  Arg.(
    value & opt string "closed"
    & info [ "arrival" ] ~docv:"SPEC"
        ~doc:
          "Arrival process: $(b,closed) (the paper's exact-Λ per-round model), or an \
           open-loop process — $(b,poisson:R) (stationary Poisson(R) per node per tick), \
           $(b,burst:ON:OFF:HIGH:LOW) (on/off bursts), or $(b,diurnal:PERIOD:PEAK:BASE) \
           (sinusoidal day curve). Anything but $(b,closed) drives the open-loop runner: \
           ops buffer at their arrival tick and batches fire per $(b,--window) or \
           $(b,--adaptive), so the summary gains completion-latency percentiles.")

let adaptive_spec =
  Arg.(
    value & opt string "off"
    & info [ "adaptive" ] ~docv:"SPEC"
        ~doc:
          "Adaptive batch windows: $(b,off), $(b,on), or \
           $(b,on:WMIN:WMAX:HEADROOM:HYSTERESIS). When on, a push-sum gossip layer \
           piggybacked on batch delivery estimates the global injection rate and a \
           controller re-sizes the batch window from it (skeap/seap only); the run is \
           still seeded-deterministic. $(b,off) leaves every closed-loop digest \
           bit-identical to builds without the feature.")

let window =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"W"
        ~doc:
          "Fixed open-loop batch window: fire a batch every $(docv) ticks (when ops are \
           pending). Implies the open-loop runner even with $(b,--arrival closed). \
           Ignored when $(b,--adaptive) is on.")

let replay_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-execute the repro file $(docv) written by $(b,explore) and verify that the run \
           digests and violates identically. Exits 0 on an exact match, 2 otherwise.")

let run_term =
  Term.(
    const run $ protocol $ nodes $ rounds $ lambda $ prios $ dist $ insert_ratio $ seed
    $ replication $ trace_file $ faults_spec $ drop $ dup $ crash
    $ arrival_spec $ adaptive_spec $ window $ replay_file)

let explore_cmd =
  let num_seeds =
    Arg.(value & opt int 64 & info [ "seeds" ] ~doc:"Number of consecutive seeds to sweep.")
  in
  let start = Arg.(value & opt int 0 & info [ "start" ] ~doc:"First seed of the sweep.") in
  let ex_nodes = Arg.(value & opt int 6 & info [ "nodes"; "n" ] ~doc:"Nodes per run.") in
  let ex_rounds = Arg.(value & opt int 2 & info [ "rounds"; "r" ] ~doc:"Injection rounds per run.") in
  let ex_lambda =
    Arg.(value & opt int 2 & info [ "lambda" ] ~doc:"Operations per node per round.")
  in
  let repro_dir =
    Arg.(
      value & opt string "." & info [ "repro-dir" ] ~docv:"DIR" ~doc:"Where to write repro files.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Write failing configs without minimizing them.")
  in
  let doc = "Sweep seeded adversarial schedules over the protocol grid and check semantics" in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const explore_run $ num_seeds $ start $ ex_nodes $ ex_rounds $ ex_lambda $ repro_dir
      $ no_shrink)

let cmd =
  let doc = "Simulate a distributed priority queue under a configurable workload" in
  Cmd.group (Cmd.info "dpq_sim" ~doc) ~default:run_term [ explore_cmd ]

let () = exit (Cmd.eval cmd)
