open Dpq_simrt

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* -------------------------------------------------------- Sync engine *)

(* A message sent in round i must be delivered in round i+1. *)
let test_sync_round_semantics () =
  let deliveries = ref [] in
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 8)
      ~handler:(fun eng ~dst ~src:_ _msg ->
        deliveries := (Sync_engine.round eng, dst) :: !deliveries)
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "hello";
  checki "one pending" 1 (Sync_engine.pending eng);
  Sync_engine.step eng;
  checki "delivered in round 0" 1 (List.length !deliveries);
  let round, dst = List.hd !deliveries in
  checki "round" 0 round;
  checki "dst" 1 dst

let test_sync_handler_sends_next_round () =
  let trace = ref [] in
  let eng =
    Sync_engine.create ~n:3 ~size_bits:(fun _ -> 8)
      ~handler:(fun eng ~dst ~src:_ msg ->
        trace := (Sync_engine.round eng, dst) :: !trace;
        if msg < 2 then Sync_engine.send eng ~src:dst ~dst:(dst + 1) (msg + 1))
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 1;
  let rounds = Sync_engine.run_to_quiescence eng in
  checki "two rounds" 2 rounds;
  (match List.rev !trace with
  | [ (0, 1); (1, 2) ] -> ()
  | _ -> Alcotest.fail "unexpected delivery trace");
  checki "total messages" 2 (Metrics.total_messages (Sync_engine.metrics eng))

let test_sync_local_send_is_free_and_immediate () =
  let got = ref 0 in
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 8)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> incr got)
      ()
  in
  Sync_engine.send eng ~src:1 ~dst:1 "x";
  checki "handled immediately" 1 !got;
  checki "no pending" 0 (Sync_engine.pending eng);
  checki "no remote messages" 0 (Metrics.total_messages (Sync_engine.metrics eng));
  checki "one local delivery" 1 (Metrics.local_deliveries (Sync_engine.metrics eng))

let test_sync_congestion_counts () =
  let eng =
    Sync_engine.create ~n:4 ~size_bits:(fun _ -> 8)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> ())
      ()
  in
  (* 3 messages into node 0 in the same round; 1 into node 1. *)
  Sync_engine.send eng ~src:1 ~dst:0 "a";
  Sync_engine.send eng ~src:2 ~dst:0 "b";
  Sync_engine.send eng ~src:3 ~dst:0 "c";
  Sync_engine.send eng ~src:0 ~dst:1 "d";
  ignore (Sync_engine.run_to_quiescence eng);
  checki "max congestion" 3 (Metrics.max_congestion (Sync_engine.metrics eng));
  let load = Metrics.node_load (Sync_engine.metrics eng) in
  checki "node0 load" 3 load.(0);
  checki "node1 load" 1 load.(1)

let test_sync_message_bits () =
  let eng =
    Sync_engine.create ~n:2 ~size_bits:String.length
      ~handler:(fun _ ~dst:_ ~src:_ _ -> ())
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "12345";
  Sync_engine.send eng ~src:0 ~dst:1 "123";
  ignore (Sync_engine.run_to_quiescence eng);
  checki "max bits" 5 (Metrics.max_message_bits (Sync_engine.metrics eng));
  checki "total bits" 8 (Metrics.total_bits (Sync_engine.metrics eng))

let test_sync_activate () =
  let activations = ref 0 in
  let eng =
    Sync_engine.create ~n:5 ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> ())
      ~activate:(fun _ _ -> incr activations)
      ()
  in
  Sync_engine.step eng;
  Sync_engine.step eng;
  checki "5 nodes x 2 rounds" 10 !activations

let test_sync_out_of_range () =
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 1) ~handler:(fun _ ~dst:_ ~src:_ _ -> ()) ()
  in
  Alcotest.check_raises "bad dst" (Invalid_argument "Sync_engine.send: node id 5 out of range")
    (fun () -> Sync_engine.send eng ~src:0 ~dst:5 "x")

let test_sync_reset_clock () =
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 1) ~handler:(fun _ ~dst:_ ~src:_ _ -> ()) ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "x";
  ignore (Sync_engine.run_to_quiescence eng);
  Sync_engine.reset_clock eng;
  checki "round reset" 0 (Sync_engine.round eng);
  checki "metrics reset" 0 (Metrics.total_messages (Sync_engine.metrics eng))

let test_sync_livelock_guard () =
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 1)
      ~handler:(fun eng ~dst ~src _ ->
        (* ping-pong forever *)
        Sync_engine.send eng ~src:dst ~dst:src "again")
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "go";
  checkb "raises" true
    (try
       ignore (Sync_engine.run_to_quiescence ~max_rounds:50 eng);
       false
     with Failure _ -> true)

(* A relay of [k] hops for a positive payload; a negative payload
   ping-pongs forever. *)
let relay_handler eng ~dst ~src payload =
  if payload > 0 then Sync_engine.send eng ~src:dst ~dst:((dst + 1) mod 3) (payload - 1)
  else if payload < 0 then Sync_engine.send eng ~src:dst ~dst:src payload

let test_sync_reset_forgets_deliveries () =
  let eng = Sync_engine.create ~n:3 ~size_bits:(fun _ -> 1) ~handler:relay_handler () in
  Sync_engine.send eng ~src:0 ~dst:1 30;
  checki "first phase: 31 rounds" 31 (Sync_engine.run_to_quiescence eng);
  Sync_engine.reset_clock eng;
  Sync_engine.send eng ~src:1 ~dst:2 (-1);
  (* The diagnostic names the four deliveries since the reset, not the
     first phase's 31 or its last delivery in round 30. *)
  Alcotest.check_raises "livelock after a reset"
    (Failure
       "Sync_engine.run_to_quiescence: exceeded max_rounds (livelock?): round=4 pending=1 \
        unacked=0 delivered=4 last_delivered=round 3: 2->1")
    (fun () -> ignore (Sync_engine.run_to_quiescence ~max_rounds:3 eng))

(* Two phases of all-to-all traffic, five messages per channel, under
   drops and duplicates: on one engine reset between them, and on two
   fresh engines.  Everything observable must be the same. *)
let test_sync_reset_equals_fresh_under_faults () =
  let n = 4 in
  let run ~reuse =
    let plan = Fault_plan.create ~drop:0.2 ~duplicate:0.1 ~seed:17 () in
    let log = ref [] and phase = ref 0 in
    let create () =
      Sync_engine.create ~n ~size_bits:(fun _ -> 16) ~faults:plan
        ~handler:(fun eng ~dst ~src payload ->
          log := (!phase, Sync_engine.round eng, src, dst, payload) :: !log)
        ()
    in
    let shared = lazy (create ()) in
    let run_phase p =
      phase := p;
      let eng =
        if not reuse then create ()
        else begin
          let e = Lazy.force shared in
          if p > 1 then Sync_engine.reset_clock e;
          e
        end
      in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            for i = 1 to 5 do
              Sync_engine.send eng ~src ~dst ((100 * p) + i)
            done
        done
      done;
      let rounds = Sync_engine.run_to_quiescence eng in
      let m = Sync_engine.metrics eng in
      ( rounds,
        Metrics.total_messages m,
        Metrics.total_bits m,
        Metrics.max_congestion m,
        Metrics.node_load m )
    in
    let first = run_phase 1 in
    let second = run_phase 2 in
    let st = Fault_plan.stats plan in
    ( [ first; second ],
      List.rev !log,
      (st.drops, st.duplicates, st.retransmits, st.acks_sent, st.dups_suppressed) )
  in
  let fresh = run ~reuse:false and reused = run ~reuse:true in
  let _, _, (drops, _, retransmits, _, _) = fresh in
  checkb "faults injected and repaired" true (drops > 0 && retransmits > 0);
  checkb "same costs, deliveries and fault stats" true (fresh = reused)

(* ------------------------------------------------------- Async engine *)

let test_async_delivers_everything () =
  let got = ref 0 in
  let eng =
    Async_engine.create ~n:4 ~seed:1 ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> incr got)
      ()
  in
  for i = 0 to 99 do
    Async_engine.send eng ~src:(i mod 4) ~dst:((i + 1) mod 4) i
  done;
  let n = Async_engine.run_to_quiescence eng in
  checki "all delivered" 100 n;
  checki "handler saw all" 100 !got

let test_async_non_fifo () =
  (* With random delays, two messages on the same channel can be reordered. *)
  let order = ref [] in
  let eng =
    Async_engine.create ~n:2 ~seed:7 ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ msg -> order := msg :: !order)
      ()
  in
  for i = 0 to 49 do
    Async_engine.send eng ~src:0 ~dst:1 i
  done;
  ignore (Async_engine.run_to_quiescence eng);
  let received = List.rev !order in
  checkb "some reordering happened" true (received <> List.init 50 (fun i -> i));
  checki "all arrived" 50 (List.length received)

let test_async_adversarial_lifo () =
  (* Under the adversarial policy, later sends overtake earlier ones. *)
  let order = ref [] in
  let eng =
    Async_engine.create ~n:2 ~seed:1 ~policy:Async_engine.Adversarial_lifo
      ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ msg -> order := msg :: !order)
      ()
  in
  Async_engine.send eng ~src:0 ~dst:1 "first";
  Async_engine.send eng ~src:0 ~dst:1 "second";
  Async_engine.send eng ~src:0 ~dst:1 "third";
  ignore (Async_engine.run_to_quiescence eng);
  (match List.rev !order with
  | [ "third"; "second"; "first" ] -> ()
  | _ -> Alcotest.fail "expected LIFO delivery")

let test_async_self_send_immediate () =
  let got = ref false in
  let eng =
    Async_engine.create ~n:2 ~seed:1 ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> got := true)
      ()
  in
  Async_engine.send eng ~src:0 ~dst:0 "local";
  checkb "handled synchronously" true !got

let test_async_handler_can_send () =
  let count = ref 0 in
  let eng =
    Async_engine.create ~n:2 ~seed:3 ~size_bits:(fun _ -> 1)
      ~handler:(fun eng ~dst ~src msg ->
        incr count;
        if msg > 0 then Async_engine.send eng ~src:dst ~dst:src (msg - 1))
      ()
  in
  Async_engine.send eng ~src:0 ~dst:1 10;
  ignore (Async_engine.run_to_quiescence eng);
  checki "chain of 11" 11 !count

let test_async_determinism () =
  let run seed =
    let order = ref [] in
    let eng =
      Async_engine.create ~n:3 ~seed ~size_bits:(fun _ -> 1)
        ~handler:(fun _ ~dst:_ ~src:_ msg -> order := msg :: !order)
        ()
    in
    for i = 0 to 20 do
      Async_engine.send eng ~src:0 ~dst:(1 + (i mod 2)) i
    done;
    ignore (Async_engine.run_to_quiescence eng);
    !order
  in
  checkb "same seed same schedule" true (run 42 = run 42);
  checkb "diff seed diff schedule" true (run 42 <> run 43)

(* -------------------------------------------------- Scheduler policies *)

let checkil = Alcotest.check Alcotest.(list int)

(* Regression: pins a known (seed -> delivery order) pair.  If the RNG
   stream layout, the event queue tiebreak, or the delay sampling ever
   shifts, this fails loudly — every repro file in the wild depends on the
   mapping staying put. *)
let test_async_pinned_delivery_order () =
  let order = ref [] in
  let eng =
    Async_engine.create ~n:2 ~seed:42 ~size_bits:(fun _ -> 1)
      ~handler:(fun _ ~dst:_ ~src:_ msg -> order := msg :: !order)
      ()
  in
  for i = 0 to 7 do
    Async_engine.send eng ~src:0 ~dst:1 i
  done;
  ignore (Async_engine.run_to_quiescence eng);
  checkil "seed 42 delivery order" [ 4; 1; 6; 2; 3; 0; 7; 5 ] (List.rev !order)

let sync_deliveries ?sched sends =
  let order = ref [] in
  let eng =
    Sync_engine.create ~n:4 ~size_bits:(fun _ -> 1) ?sched
      ~handler:(fun _ ~dst:_ ~src:_ msg -> order := msg :: !order)
      ()
  in
  List.iter (fun (src, dst, msg) -> Sync_engine.send eng ~src ~dst msg) sends;
  ignore (Sync_engine.run_to_quiescence eng);
  List.rev !order

let test_sched_shuffle_pinned () =
  let sends = List.init 8 (fun i -> (i mod 2, 2, i)) in
  let run seed =
    sync_deliveries ~sched:(Sched.create ~seed (Sched.Shuffle { burst = 2; starvation = 0.0 })) sends
  in
  (* bursts of 2 stay contiguous; only the block order is permuted *)
  checkil "seed 9 shuffled order" [ 6; 7; 4; 5; 2; 3; 0; 1 ] (run 9);
  checkb "same seed same order" true (run 9 = run 9);
  checkb "different seed reshuffles" true (run 9 <> run 10)

let test_sched_crossing_swaps () =
  let sched = Sched.create ~seed:1 Sched.Crossing_pairs in
  checkil "adjacent pairs cross" [ 1; 0; 3; 2 ]
    (sync_deliveries ~sched [ (0, 2, 0); (1, 2, 1); (0, 3, 2); (1, 3, 3) ])

let test_sched_bias_defers () =
  (* Traffic into node 0 is held back [factor] rounds but still delivered. *)
  let sched = Sched.create ~seed:1 (Sched.Channel_bias { src = None; dst = Some 0; factor = 3 }) in
  let order = ref [] in
  let rounds = ref [] in
  let eng =
    Sync_engine.create ~n:3 ~size_bits:(fun _ -> 1) ~sched
      ~handler:(fun eng ~dst:_ ~src:_ msg ->
        order := msg :: !order;
        rounds := (msg, Sync_engine.round eng) :: !rounds)
      ()
  in
  Sync_engine.send eng ~src:1 ~dst:0 "slow";
  Sync_engine.send eng ~src:1 ~dst:2 "fast";
  ignore (Sync_engine.run_to_quiescence eng);
  (match List.rev !order with
  | [ "fast"; "slow" ] -> ()
  | _ -> Alcotest.fail "biased channel should deliver last");
  checki "fast in round 0" 0 (List.assoc "fast" !rounds);
  checki "slow deferred 3 rounds" 3 (List.assoc "slow" !rounds)

let test_sched_fifo_is_identity () =
  let sends = List.init 6 (fun i -> (i mod 2, 3, i)) in
  checkb "fifo leaves the batch alone" true
    (sync_deliveries ~sched:(Sched.create ~seed:5 Sched.Fifo) sends = sync_deliveries sends)

let test_sched_spec_roundtrip () =
  List.iter
    (fun p ->
      match Sched.policy_of_string (Sched.policy_to_string p) with
      | Ok p' -> checkb (Sched.policy_to_string p) true (p = p')
      | Error e -> Alcotest.fail e)
    [
      Sched.Fifo;
      Sched.Shuffle { burst = 4; starvation = 0.1 };
      Sched.Crossing_pairs;
      Sched.Channel_bias { src = None; dst = Some 0; factor = 4 };
      Sched.Channel_bias { src = Some 2; dst = Some 1; factor = 2 };
    ];
  checkb "bad spec rejected" true (Result.is_error (Sched.policy_of_string "warp:9"));
  List.iter
    (fun p ->
      match Async_engine.policy_of_string (Async_engine.policy_to_string p) with
      | Ok p' -> checkb (Async_engine.policy_to_string p) true (p = p')
      | Error e -> Alcotest.fail e)
    [
      Async_engine.Uniform (1.0, 8.0);
      Async_engine.Exponential 3.0;
      Async_engine.Adversarial_lifo;
    ];
  checkb "bad delay rejected" true (Result.is_error (Async_engine.policy_of_string "exp:-1"))

(* ------------------------------------------------------------ Metrics *)

let test_metrics_rounds_and_reset () =
  let m = Metrics.create ~n:3 in
  Metrics.record_delivery m ~round:0 ~dst:1 ~bits:10;
  Metrics.record_delivery m ~round:4 ~dst:2 ~bits:20;
  checki "rounds" 5 (Metrics.rounds m);
  checki "total" 2 (Metrics.total_messages m);
  checki "bits" 30 (Metrics.total_bits m);
  checki "max bits" 20 (Metrics.max_message_bits m);
  Metrics.reset m;
  checki "reset rounds" 0 (Metrics.rounds m);
  checki "reset msgs" 0 (Metrics.total_messages m)

let test_metrics_congestion_per_round () =
  let m = Metrics.create ~n:2 in
  (* Two messages to node 0 in round 0, one in round 1: congestion 2. *)
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  Metrics.record_delivery m ~round:1 ~dst:0 ~bits:1;
  checki "congestion" 2 (Metrics.max_congestion m);
  (* A round number that comes back counts afresh; reading the maximum
     does not restart the round in flight; [reset] forgets it. *)
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  checki "revisited round" 2 (Metrics.max_congestion m);
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  checki "busier revisit" 3 (Metrics.max_congestion m);
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  checki "same round after a read" 4 (Metrics.max_congestion m);
  Metrics.reset m;
  Metrics.record_delivery m ~round:0 ~dst:0 ~bits:1;
  checki "nothing survives reset" 1 (Metrics.max_congestion m)

let () =
  Alcotest.run "dpq_simrt"
    [
      ( "sync",
        [
          Alcotest.test_case "round semantics" `Quick test_sync_round_semantics;
          Alcotest.test_case "handler sends next round" `Quick test_sync_handler_sends_next_round;
          Alcotest.test_case "local send free" `Quick test_sync_local_send_is_free_and_immediate;
          Alcotest.test_case "congestion" `Quick test_sync_congestion_counts;
          Alcotest.test_case "message bits" `Quick test_sync_message_bits;
          Alcotest.test_case "activate" `Quick test_sync_activate;
          Alcotest.test_case "out of range" `Quick test_sync_out_of_range;
          Alcotest.test_case "reset clock" `Quick test_sync_reset_clock;
          Alcotest.test_case "livelock guard" `Quick test_sync_livelock_guard;
          Alcotest.test_case "reset forgets deliveries" `Quick test_sync_reset_forgets_deliveries;
          Alcotest.test_case "reset equals fresh under faults" `Quick test_sync_reset_equals_fresh_under_faults;
        ] );
      ( "async",
        [
          Alcotest.test_case "delivers everything" `Quick test_async_delivers_everything;
          Alcotest.test_case "non fifo" `Quick test_async_non_fifo;
          Alcotest.test_case "adversarial lifo" `Quick test_async_adversarial_lifo;
          Alcotest.test_case "self send immediate" `Quick test_async_self_send_immediate;
          Alcotest.test_case "handler can send" `Quick test_async_handler_can_send;
          Alcotest.test_case "determinism" `Quick test_async_determinism;
        ] );
      ( "sched",
        [
          Alcotest.test_case "pinned async delivery order" `Quick test_async_pinned_delivery_order;
          Alcotest.test_case "shuffle pinned + deterministic" `Quick test_sched_shuffle_pinned;
          Alcotest.test_case "crossing pairs swap" `Quick test_sched_crossing_swaps;
          Alcotest.test_case "channel bias defers" `Quick test_sched_bias_defers;
          Alcotest.test_case "fifo is identity" `Quick test_sched_fifo_is_identity;
          Alcotest.test_case "spec round-trip" `Quick test_sched_spec_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "rounds and reset" `Quick test_metrics_rounds_and_reset;
          Alcotest.test_case "congestion per round" `Quick test_metrics_congestion_per_round;
        ] );
    ]
