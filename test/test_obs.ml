module Trace = Dpq_obs.Trace
module H = Dpq.Dpq_heap

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Sum the facade's per-iteration results the way Phase.add_report does, so
   the trace's independently recomputed tallies can be checked against the
   protocol's own accounting. *)
type tally = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_congestion : int;
  max_message_bits : int;
}

let tally_of results =
  List.fold_left
    (fun acc (r : H.result) ->
      {
        rounds = acc.rounds + r.H.rounds;
        messages = acc.messages + r.H.messages;
        total_bits = acc.total_bits + r.H.total_bits;
        max_congestion = max acc.max_congestion r.H.max_congestion;
        max_message_bits = max acc.max_message_bits r.H.max_message_bits;
      })
    { rounds = 0; messages = 0; total_bits = 0; max_congestion = 0; max_message_bits = 0 }
    results

let check_trace_matches trace results =
  let t = tally_of results in
  checki "rounds" t.rounds (Trace.rounds trace);
  checki "messages" t.messages (Trace.messages trace);
  checki "total bits" t.total_bits (Trace.total_bits trace);
  checki "max congestion" t.max_congestion (Trace.max_congestion trace);
  checki "max message bits" t.max_message_bits (Trace.max_message_bits trace)

let run_some_ops h =
  let n = H.n h in
  let results = ref [] in
  for i = 0 to (4 * n) - 1 do
    ignore (H.insert h ~node:(i mod n) ~prio:(1 + (i mod 3)))
  done;
  results := H.process h :: !results;
  for v = 0 to n - 1 do
    H.delete_min h ~node:v
  done;
  results := !results @ [ H.process h ];
  !results

let test_skeap_trace_matches_report () =
  let trace = Trace.create () in
  let h = H.create ~seed:3 ~trace ~n:8 (H.Skeap { num_prios = 3 }) in
  let results = run_some_ops h in
  check_trace_matches trace results;
  checkb "verify still passes" true (H.verify h = Ok ())

let test_seap_trace_matches_report () =
  let trace = Trace.create () in
  let h = H.create ~seed:3 ~trace ~n:8 H.Seap in
  let results = run_some_ops h in
  check_trace_matches trace results;
  (* DeleteMins on a populated heap must have exercised KSelect. *)
  let kselect_events =
    List.filter (function Trace.Kselect_round _ -> true | _ -> false) (Trace.events trace)
  in
  checkb "kselect progress traced" true (kselect_events <> [])

let test_baselines_trace_matches_report () =
  List.iter
    (fun backend ->
      let trace = Trace.create () in
      let h = H.create ~seed:3 ~trace ~n:8 backend in
      let results = run_some_ops h in
      check_trace_matches trace results)
    [ H.Centralized; H.Unbatched { num_prios = 3 } ]

let test_churn_traced () =
  let trace = Trace.create () in
  let h = H.create ~seed:3 ~trace ~n:4 H.Seap in
  for i = 0 to 15 do
    ignore (H.insert h ~node:(i mod 4) ~prio:(i + 1))
  done;
  ignore (H.process h);
  let c1 = H.add_node h in
  let c2 = H.remove_last_node h in
  let churns =
    List.filter_map
      (function
        | Trace.Churn { kind; n; join_messages; moved_elements } ->
            Some (kind, n, join_messages, moved_elements)
        | _ -> None)
      (Trace.events trace)
  in
  checki "two churn events" 2 (List.length churns);
  match churns with
  | [ (jk, jn, jmsgs, _); (lk, ln, _, lmoved) ] ->
      Alcotest.(check string) "join" "join" jk;
      Alcotest.(check string) "leave" "leave" lk;
      checki "join n" 5 jn;
      checki "leave n" 4 ln;
      checki "join cost" c1.H.join_messages jmsgs;
      checki "leave moved" c2.H.moved_elements lmoved
  | _ -> Alcotest.fail "unreachable"

let test_spans_balanced () =
  let trace = Trace.create () in
  let h = H.create ~seed:1 ~trace ~n:6 (H.Skeap { num_prios = 3 }) in
  ignore (run_some_ops h);
  let starts, ends =
    List.fold_left
      (fun (s, e) ev ->
        match ev with
        | Trace.Phase_start _ -> (s + 1, e)
        | Trace.Phase_end _ -> (s, e + 1)
        | _ -> (s, e))
      (0, 0) (Trace.events trace)
  in
  checkb "some spans" true (starts > 0);
  checki "every span closed" starts ends

let test_derived_consistency () =
  let trace = Trace.create () in
  let h = H.create ~seed:2 ~trace ~n:8 H.Seap in
  ignore (run_some_ops h);
  checki "node_load sums to messages" (Trace.messages trace)
    (Array.fold_left ( + ) 0 (Trace.node_load trace));
  (* The congestion histogram is only printed: read it back from the
     summary's "deliveries/cell -> cells" line. *)
  let summary = Format.asprintf "%a" Trace.pp_summary trace in
  let hist =
    let line =
      List.find
        (fun l -> String.starts_with ~prefix:"congestion histogram" l)
        (String.split_on_char '\n' summary)
    in
    String.sub line (String.index line ':' + 1) (String.length line - String.index line ':' - 1)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
    |> List.map (fun cell -> Scanf.sscanf cell "%d->%d" (fun c cells -> (c, cells)))
  in
  checkb "histogram nonempty" true (hist <> []);
  checki "histogram max = max_congestion" (Trace.max_congestion trace)
    (List.fold_left (fun acc (c, _) -> max acc c) 0 hist);
  checki "histogram weighs every delivery" (Trace.messages trace)
    (List.fold_left (fun acc (c, cells) -> acc + (c * cells)) 0 hist)

(* The JSONL writer's exact text, one line per event kind: tools outside
   the library (CI's repair-traffic step greps
   ["ev":"repair_end"..."keys_pulled":N]) read this format, and nothing in
   the library reads it back. *)
let test_jsonl_writer_pinned () =
  let trace = Trace.create () in
  let t = Some trace in
  let span = Trace.phase_start t "repair" in
  Trace.msg_delivered_direct trace ~round:1 ~src:2 ~dst:3 ~bits:40;
  Trace.anchor_assign t ~batch_inserts:4 ~batch_deletes:2 ~heap_size:9;
  Trace.dht_put t ~origin:1 ~key:77 ~manager:5;
  Trace.dht_get t ~origin:2 ~key:78 ~manager:6;
  Trace.kselect_round t ~stage:"phase1" ~iteration:2 ~candidates:30 ~messages:120;
  Trace.churn t ~kind:"join" ~n:9 ~join_messages:14 ~moved_elements:3;
  Trace.fault_injected t ~kind:"drop" ~src:1 ~dst:4;
  Trace.retransmit t ~src:1 ~dst:4 ~attempt:1;
  Trace.node_crashed t ~node:3 ~kind:"down" ~at:12;
  Trace.sched_perturbed t ~kind:"swap" ~src:0 ~dst:2;
  Trace.repair_start t ~node:3 ~reason:"kill" ~entries_lost:6;
  Trace.repair_session t ~src:4 ~dst:5 ~keys_pulled:2 ~elements_shipped:6;
  Trace.repair_end t ~sessions:1 ~keys_pulled:2 ~elements_shipped:6;
  Trace.gossip_round t ~exchange:1 ~rounds:0 ~messages:18 ~est_milli:1500;
  Trace.window_change t ~at_batch:3 ~window:16 ~est_milli:2250;
  Trace.phase_end t ~span ~name:"repair" ~rounds:2 ~messages:1 ~max_congestion:1
    ~max_message_bits:40 ~total_bits:40;
  let file = Filename.temp_file "dpq_trace" ".jsonl" in
  let lines =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Trace.to_file trace file;
        In_channel.with_open_text file In_channel.input_all)
    |> String.split_on_char '\n'
  in
  Alcotest.(check (list string))
    "one line per event kind"
    [
      {|{"ev":"phase_start","span":0,"name":"repair"}|};
      {|{"ev":"msg","span":0,"round":1,"src":2,"dst":3,"bits":40}|};
      {|{"ev":"anchor_assign","inserts":4,"deletes":2,"heap_size":9}|};
      {|{"ev":"dht_put","span":0,"origin":1,"key":77,"manager":5}|};
      {|{"ev":"dht_get","span":0,"origin":2,"key":78,"manager":6}|};
      {|{"ev":"kselect_round","stage":"phase1","iteration":2,"candidates":30,"messages":120}|};
      {|{"ev":"churn","kind":"join","n":9,"join_messages":14,"moved_elements":3}|};
      {|{"ev":"fault","span":0,"kind":"drop","src":1,"dst":4}|};
      {|{"ev":"retransmit","span":0,"src":1,"dst":4,"attempt":1}|};
      {|{"ev":"node_crash","node":3,"kind":"down","at":12}|};
      {|{"ev":"sched","span":0,"kind":"swap","src":0,"dst":2}|};
      {|{"ev":"repair_start","span":0,"node":3,"reason":"kill","entries_lost":6}|};
      {|{"ev":"repair_session","span":0,"src":4,"dst":5,"keys_pulled":2,"elements_shipped":6}|};
      {|{"ev":"repair_end","span":0,"sessions":1,"keys_pulled":2,"elements_shipped":6}|};
      {|{"ev":"gossip_round","span":0,"exchange":1,"rounds":0,"messages":18,"est_milli":1500}|};
      {|{"ev":"window_change","at_batch":3,"window":16,"est_milli":2250}|};
      {|{"ev":"phase_end","span":0,"name":"repair","rounds":2,"messages":1,"max_congestion":1,"max_message_bits":40,"total_bits":40}|};
      "";
    ]
    lines

let test_disabled_tracer_allocates_nothing () =
  let trace = None in
  (* Warm up so any one-time allocation is out of the way. *)
  Trace.dht_put trace ~origin:0 ~key:0 ~manager:1;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let span = Trace.phase_start trace "up" in
    Trace.dht_put trace ~origin:0 ~key:i ~manager:1;
    Trace.kselect_round trace ~stage:"phase1" ~iteration:i ~candidates:i ~messages:i;
    Trace.phase_end trace ~span ~name:"up" ~rounds:0 ~messages:0 ~max_congestion:0
      ~max_message_bits:0 ~total_bits:0
  done;
  let delta = Gc.minor_words () -. before in
  checkb (Printf.sprintf "allocated %.0f minor words" delta) true (delta < 256.0)

let test_clear () =
  let trace = Trace.create () in
  let h = H.create ~trace ~n:4 (H.Skeap { num_prios = 2 }) in
  ignore (H.insert h ~node:0 ~prio:1);
  ignore (H.process h);
  checkb "has events" true (Trace.num_events trace > 0);
  Trace.clear trace;
  checki "cleared" 0 (Trace.num_events trace);
  checki "no rounds" 0 (Trace.rounds trace)

let () =
  Alcotest.run "dpq_obs"
    [
      ( "trace-vs-report",
        [
          Alcotest.test_case "skeap" `Quick test_skeap_trace_matches_report;
          Alcotest.test_case "seap" `Quick test_seap_trace_matches_report;
          Alcotest.test_case "baselines" `Quick test_baselines_trace_matches_report;
          Alcotest.test_case "spans balanced" `Quick test_spans_balanced;
          Alcotest.test_case "churn traced" `Quick test_churn_traced;
        ] );
      ( "derived",
        [
          Alcotest.test_case "internal consistency" `Quick test_derived_consistency;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "writer pins every event kind" `Quick test_jsonl_writer_pinned;
        ] );
      ( "zero-cost",
        [ Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer_allocates_nothing ] );
    ]
