(* The repository benchmark: one workload per process, one domain.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Runs whole instances of the workload back to back for about S seconds and
   reports medians over them.  With --trace 0 the last line of standard
   output is a JSON object holding the end-to-end metrics; with --trace 1 it
   holds the per-layer metrics, which add one traced instance whose trace is
   folded into counts after every batch.  Every instance is checked: the
   online checker's verdict, every issued operation completed, and the same
   counters and oplog digest on every instance.  The traced instance must
   also reproduce the untraced counters and digest, and the messages it
   attributes to spans must sum to the end-to-end count (see
   Layers.batch_messages).  A failed check
   sets "correct" to false, counts every operation as failed, and makes the
   exit code 1.  Malformed arguments exit 2.  See README.md for the metric
   dictionary. *)

open Perfbench
module Trace = Dpq_obs.Trace

let usage = "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

type args = { workload : Drive.workload; seed : int; seconds : int; traced : bool }

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> fail_usage (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go (wl, seed, seconds, traced) = function
    | [] -> (wl, seed, seconds, traced)
    | "--workload" :: v :: rest -> (
        match Drive.find v with
        | Some w -> go (Some w, seed, seconds, traced) rest
        | None ->
            fail_usage
              (Printf.sprintf "unknown workload %S (one of: %s)" v
                 (String.concat ", " (List.map (fun w -> w.Drive.name) Drive.workloads))))
    | "--seed" :: v :: rest -> go (wl, int_arg "--seed" v, seconds, traced) rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then fail_usage (Printf.sprintf "--seconds must be at least 1, got %d" s);
        go (wl, seed, s, traced) rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go (wl, seed, seconds, false) rest
        | "1" -> go (wl, seed, seconds, true) rest
        | _ -> fail_usage (Printf.sprintf "--trace expects 0 or 1, got %S" v))
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        fail_usage (Printf.sprintf "%s needs a value" flag)
    | arg :: _ -> fail_usage (Printf.sprintf "unexpected argument %S; %s" arg usage)
  in
  match go (None, 3, 20, false) argv with
  | None, _, _, _ -> fail_usage ("--workload is required; " ^ usage)
  | Some w, seed, seconds, traced -> { workload = Drive.with_seed seed w; seed; seconds; traced }

(* ----------------------------------------------------------- measuring *)

let now = Unix.gettimeofday

(* Deterministic outcome of an instance: equal on every instance of one
   workload and seed, traced or not. *)
let same (a : Drive.result) (b : Drive.result) =
  a.ops = b.ops && a.attempted = b.attempted && a.completed = b.completed && a.rounds = b.rounds
  && a.messages = b.messages && a.total_bits = b.total_bits
  && a.max_congestion = b.max_congestion && a.p50 = b.p50 && a.p99 = b.p99
  && a.drain_ticks = b.drain_ticks && String.equal a.digest b.digest

type check = { what : string; ok : bool }

(* Whole instances back to back for [seconds], at least one; with a traced
   instance to follow, stop early enough to leave it room (a traced
   instance takes up to twice an untraced one). *)
let untraced_runs w ~seconds ~traced =
  let t0 = now () in
  let rec go acc k =
    let elapsed = now () -. t0 in
    let per_run = elapsed /. float_of_int k in
    let reserve = if traced then 2.0 *. per_run else 0.0 in
    if elapsed +. per_run +. reserve > float_of_int seconds then List.rev acc
    else go (Drive.run w :: acc) (k + 1)
  in
  go [ Drive.run w ] 1

(* Set-up times, at least 15 of them and at least a quarter second's
   worth, so that a set-up of tens of microseconds still has a steady
   median. *)
let setups w =
  let t0 = now () in
  let rec go acc k =
    if k >= 15 && now () -. t0 >= 0.25 then acc else go (Drive.setup w :: acc) (k + 1)
  in
  go [] 0

let per_op (r : Drive.result) v = float_of_int v /. float_of_int (max 1 r.attempted)
let fper_op (r : Drive.result) v = v /. float_of_int (max 1 r.attempted)

(* Median over instances of [f]. *)
let med runs f = Stats.median (List.map f runs)

let end_to_end ~setup_s ~peak_heap_mb runs =
  let r = List.hd runs in
  [
    ("ops_per_s", "ops/s", med runs (fun r -> float_of_int r.Drive.completed /. r.Drive.wall));
    ("setup_s", "s", setup_s);
    ("minor_words_per_op", "words/op", med runs (fun r -> fper_op r r.Drive.minor_words));
    ("peak_heap_mb", "MB", peak_heap_mb);
    ("messages_per_op", "msgs/op", per_op r r.messages);
    ("bits_per_op", "bits/op", per_op r r.total_bits);
    ("latency_p50_rounds", "rounds", float_of_int r.p50);
    ("latency_p99_rounds", "rounds", float_of_int r.p99);
    ("ops_per_round", "ops/round", r.ops_per_round);
  ]

let per_layer ~traced_wall runs (l : Layers.t) =
  let r = List.hd runs in
  let ns (f : Drive.result -> Drive.layer) = med runs (fun r -> fper_op r (f r).Drive.ns) in
  let words (f : Drive.result -> Drive.layer) = med runs (fun r -> fper_op r (f r).Drive.words) in
  let batch_ms = List.concat_map (fun r -> r.Drive.batch_ms) runs in
  let pct p = if batch_ms = [] then 0.0 else Stats.percentile p batch_ms in
  let span name = Layers.cost l name in
  let span_per_op name = per_op r (span name).msgs in
  let per_batch v = float_of_int v /. float_of_int (max 1 r.batches) in
  let per_select v = float_of_int v /. float_of_int (max 1 l.selections) in
  let count v = float_of_int v in
  let aggtree = [ "up"; "down"; "broadcast" ] in
  [
    ("workloads.gen.ns_per_op", "ns/op", ns (fun r -> r.gen));
    ("workloads.gen.words_per_op", "words/op", words (fun r -> r.gen));
    ("core.inject.ns_per_op", "ns/op", ns (fun r -> r.inject));
    ("core.take_oplog.ns_per_op", "ns/op", ns (fun r -> r.take_oplog));
    ("explore.run_digest.ns_per_op", "ns/op", ns (fun r -> r.run_digest));
    ("core.process.ns_per_op", "ns/op", ns (fun r -> r.process));
    ("core.process.words_per_op", "words/op", words (fun r -> r.process));
    ( "core.process.wall_share",
      "fraction",
      med runs (fun r -> r.process.ns /. (r.wall *. 1e9)) );
    ("core.process.batch_ms_p50", "ms", pct 0.5);
    ("core.process.batch_ms_p90", "ms", pct 0.9);
    ("semantics.checker.ns_per_op", "ns/op", ns (fun r -> r.checker));
    ("semantics.checker.words_per_op", "words/op", words (fun r -> r.checker));
    ("semantics.checker.peak_live", "elements", count r.peak_live);
    ("workloads.runner.open_ns_per_op", "ns/op", ns (fun r -> r.runner_open));
    ("workloads.runner.drain_ticks", "ticks", count r.drain_ticks);
    ("simrt.rounds_per_batch", "rounds/batch", per_batch (Layers.span_rounds l));
    ("simrt.max_congestion", "msgs/node/round", count r.max_congestion);
    ("simrt.unattributed_messages", "msgs", count l.unattributed);
    ("aggtree.up.messages_per_op", "msgs/op", span_per_op "up");
    ("aggtree.down.messages_per_op", "msgs/op", span_per_op "down");
    ("aggtree.broadcast.messages_per_op", "msgs/op", span_per_op "broadcast");
    ( "aggtree.rounds_per_batch",
      "rounds/batch",
      per_batch (List.fold_left (fun acc n -> acc + (span n).rounds) 0 aggtree) );
    ("dht.messages_per_op", "msgs/op", span_per_op "dht");
    ("dht.bits_per_op", "bits/op", per_op r (span "dht").bits);
    ("dht.rounds_per_batch", "rounds/batch", per_batch (span "dht").rounds);
    ("dht.requests_per_op", "requests/op", per_op r l.dht_requests);
    ("dht.max_congestion", "msgs/node/round", count (span "dht").congestion);
    ("kselect.selections", "count", count l.selections);
    ("kselect.sort.messages_per_op", "msgs/op", span_per_op "kselect-sort");
    ("kselect.phase1.iterations_per_select", "iterations", per_select l.p1_iters);
    ("kselect.phase2.iterations_per_select", "iterations", per_select l.p2_iters);
    ("kselect.phase1.messages_per_select", "msgs", per_select l.p1_msgs);
    ("kselect.phase2.messages_per_select", "msgs", per_select l.p2_msgs);
    ("kselect.phase3.candidates_mean", "candidates", per_select l.p3_candidates);
    ("kselect.hint_hit_frac", "fraction", per_select l.hint_hits);
    ("skeap.anchor.ops_per_batch", "ops/batch",
      float_of_int l.anchor_ops /. float_of_int (max 1 l.anchor_batches));
    ("simrt.reliable.retransmits_per_op", "retransmits/op", per_op r l.retransmits);
    ( "simrt.reliable.amplification",
      "ratio",
      float_of_int (r.messages + l.retransmits) /. float_of_int (max 1 r.messages) );
    ("simrt.fault_plan.injected_per_op", "faults/op", per_op r l.faults);
    ("simrt.fault_plan.lost_ops", "ops", count (r.ops - r.attempted));
    ("dht.repair.messages_per_op", "msgs/op", span_per_op "repair");
    ("dht.repair.bits_per_op", "bits/op", per_op r (span "repair").bits);
    ("dht.repair.keys_pulled", "keys", count l.repair_keys);
    ("gossip.messages_per_op", "msgs/op", span_per_op "gossip");
    ("gossip.exchanges", "count", count l.gossip_exchanges);
    ("gossip.batch_ctl.window_changes", "count", count l.window_changes);
    ("gossip.batch_ctl.final_window", "ticks", count (Option.value l.last_window ~default:0));
    ("obs.trace.overhead", "fraction", (traced_wall /. med runs (fun r -> r.wall)) -. 1.0);
  ]

(* A number as JSON: integers without a fraction, everything else with all
   its digits. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let w = args.workload in
  (* Warm-up on the shrunk workload, so the first timed instance does not
     pay for cold code and an empty heap. *)
  for _ = 1 to 3 do
    ignore (Drive.run (Drive.shrink w))
  done;
  let runs = untraced_runs w ~seconds:args.seconds ~traced:args.traced in
  (* Read before set-up is timed: the garbage of many set-ups must not
     count as the workload's peak. *)
  let peak_heap_mb =
    float_of_int (Dpq_simrt.Domain_pool.peak_heap_words () * (Sys.word_size / 8)) /. 1e6
  in
  let setup_s = Stats.median (setups w) in
  let first = List.hd runs in
  let checks =
    [
      { what = "online checker verdict"; ok = List.for_all (fun r -> r.Drive.ok) runs };
      {
        what = "every issued operation completed";
        ok = List.for_all (fun r -> r.Drive.completed = r.Drive.attempted) runs;
      };
      { what = "instances repeat exactly"; ok = List.for_all (same first) runs };
    ]
  in
  let metrics, checks =
    if not args.traced then (end_to_end ~setup_s ~peak_heap_mb runs, checks)
    else begin
      let trace = Trace.create () and layers = Layers.create () in
      let traced = Drive.run ~trace ~fold:(fun () -> Layers.fold layers trace) w in
      ( per_layer ~traced_wall:traced.wall runs layers,
        checks
        @ [
            { what = "traced instance repeats the untraced one"; ok = same first traced && traced.ok };
            (let spans = Layers.batch_messages layers in
             {
               what =
                 Printf.sprintf "span messages (%d) sum to the end-to-end count (%d)" spans
                   traced.messages;
               ok = spans = traced.messages;
             });
            { what = "no message outside a span"; ok = layers.unattributed = 0 };
          ] )
    end
  in
  let correct = List.for_all (fun c -> c.ok) checks in
  let attempted = List.fold_left (fun acc r -> acc + r.Drive.attempted) 0 runs in
  let failed =
    if correct then List.fold_left (fun acc r -> acc + r.Drive.attempted - r.Drive.completed) 0 runs
    else attempted
  in
  Printf.eprintf "perfbench %s seed=%d: %d instance(s) of %d ops, %d batches each\n" w.name args.seed
    (List.length runs) first.attempted first.batches;
  (match runs with
  | _ :: _ :: _ ->
      let rates = List.map (fun r -> float_of_int r.Drive.completed /. r.Drive.wall) runs in
      let q1, q3 = Stats.quartiles rates in
      Printf.eprintf "  ops/s per instance: median %.0f, quartiles %.0f..%.0f\n" (Stats.median rates)
        q1 q3
  | _ -> ());
  List.iter (fun c -> if not c.ok then Printf.eprintf "  CHECK FAILED: %s\n" c.what) checks;
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-38s %14.6g %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  exit (if correct then 0 else 1)
