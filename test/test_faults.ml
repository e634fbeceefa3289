(* Fault-injection matrix: the protocols must complete with verified
   semantics over dropping / duplicating / crashing networks, and the trace's
   fault tallies must agree with the fault plan's own counters. *)

open Dpq_simrt
module Heap = Dpq.Dpq_heap
module Trace = Dpq_obs.Trace

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------ Fault_plan *)

let test_plan_of_string () =
  let plan = Fault_plan.of_string ~seed:1 "drop=0.2, dup=0.05, spike=0.1x4, crash=3@10-20" in
  ignore plan;
  (match Fault_plan.of_string ~seed:1 "drop=bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad drop accepted");
  (match Fault_plan.of_string ~seed:1 "crash=3@20-10" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted crash window accepted");
  match Fault_plan.create ~drop:1.5 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability > 1 accepted"

let test_plan_determinism () =
  let run () =
    let plan = Fault_plan.create ~drop:0.3 ~duplicate:0.2 ~seed:42 () in
    List.init 200 (fun i -> Fault_plan.transmit_copies plan None ~src:(i mod 7) ~dst:0)
  in
  Alcotest.(check (list int)) "same seed, same decisions" (run ()) (run ())

(* The first 200 fault decisions of a plan, one digit each (copies put on
   the wire, 0..2), spread over 28 channels (src 0..3, dst 0..6). *)
let copies spec =
  let plan = Fault_plan.of_string ~seed:42 spec in
  String.init 200 (fun i ->
      Char.chr (48 + Fault_plan.transmit_copies plan None ~src:(i mod 4) ~dst:(i mod 7)))

(* Every draw is a pure function of (seed, purpose, channel, per-channel
   count); these strings pin the values themselves, not just their
   repeatability.  A probability >= 1 takes no draw, so with a certain drop
   the duplicate coin is never tossed; without a drop probability the
   duplicate coin takes the first draw of its stream. *)
let test_plan_pinned_decisions () =
  let check = Alcotest.(check string) in
  check "drop=0.3,dup=0.2"
    ("11111011111010111111021011112211110110101112111011"
      ^ "01011022012010111110010200010010000111012011110120"
      ^ "11110101111201111011111110101110121001021111021110"
      ^ "10102111110121111122111011111110202210112021111111")
    (copies "drop=0.3,dup=0.2");
  check "drop=1,dup=0.5" (String.make 200 '0') (copies "drop=1,dup=0.5");
  check "dup=0.3"
    ("11111211111212111111211211111111112112121111111211"
      ^ "21211211211212111112212122212212222111211211112112"
      ^ "11112121111121111211111112121112111221211111211112"
      ^ "12121111112111111111111211111112121112111211111111")
    (copies "dup=0.3");
  let plan = Fault_plan.of_string ~seed:42 "spike=0.25x4" in
  check "spike=0.25x4"
    ("11111111114111111411141114114114414441111411111111"
      ^ "41411141441411111141114111141111111111114111144114")
    (String.init 100 (fun i ->
         match Fault_plan.delay_multiplier plan None ~src:(i mod 4) ~dst:(i mod 7) with
         | 1.0 -> '1'
         | 4.0 -> '4'
         | _ -> '?'))

let test_crash_window_ticks () =
  let plan = Fault_plan.create ~crashes:[ { node = 2; from_tick = 2; until_tick = 4 } ] ~seed:1 () in
  let trace = Trace.create () in
  let t = Some trace in
  checkb "up before window" false (Fault_plan.is_down plan ~node:2);
  Fault_plan.tick plan t;
  (* tick = 1 *)
  checkb "still up" false (Fault_plan.is_down plan ~node:2);
  Fault_plan.tick plan t;
  (* tick = 2: window opens *)
  checkb "down" true (Fault_plan.is_down plan ~node:2);
  Fault_plan.tick plan t;
  checkb "still down" true (Fault_plan.is_down plan ~node:2);
  Fault_plan.tick plan t;
  (* tick = 4: window closed *)
  checkb "up again" false (Fault_plan.is_down plan ~node:2);
  let transitions =
    List.filter_map
      (function Trace.Node_crashed { node; kind; at } -> Some (node, kind, at) | _ -> None)
      (Trace.events trace)
  in
  checkb "one window, down at 2 and up at 4" true (transitions = [ (2, "down", 2); (2, "up", 4) ])

(* A reference for the plan's fault draws, kept the way the plan once
   kept them: one counter per purpose in a [Hashtbl.Make (Int)] keyed by
   [(src lsl 24) lor dst], found and replaced on every draw.  The plan now
   keeps its counters in an array on a dense channel index; both must
   give every draw the same answer. *)
module Ref_plan = struct
  module Itbl = Hashtbl.Make (Int)

  type t = {
    seed : int;
    drop : float;
    dup : float;
    spike : float;
    factor : float;
    transmits : int Itbl.t;
    delays : int Itbl.t;
  }

  let create ~drop ~dup ~spike ~factor ~seed =
    { seed; drop; dup; spike; factor; transmits = Itbl.create 64; delays = Itbl.create 16 }

  let draw_key r counters ~salt ~src ~dst =
    let chan = (src lsl 24) lor dst in
    let count = Option.value ~default:0 (Itbl.find_opt counters chan) in
    Itbl.replace counters chan (count + 1);
    let fold h x = (h lxor x) * 0x2545F4914F6CDD1D in
    fold (fold (fold (r.seed lxor (salt * 0x9E3779B9)) src) dst) count

  let transmit_copies r ~src ~dst =
    if r.drop > 0.0 || r.dup > 0.0 then begin
      let key = draw_key r r.transmits ~salt:1 ~src ~dst in
      if r.drop > 0.0 && Dpq_util.Rng.bernoulli_at ~seed:key ~index:1 ~p:r.drop then 0
      else if
        r.dup > 0.0
        && Dpq_util.Rng.bernoulli_at ~seed:key ~index:(if r.drop > 0.0 then 2 else 1) ~p:r.dup
      then 2
      else 1
    end
    else 1

  let delay_multiplier r ~src ~dst =
    if
      r.spike > 0.0
      && Dpq_util.Rng.bernoulli_at
           ~seed:(draw_key r r.delays ~salt:2 ~src ~dst)
           ~index:1 ~p:r.spike
    then r.factor
    else 1.0
end

(* 20000 draws on up to 40 x 40 channels (the dense arrays grow many
   times), transmissions and delays interleaved at random, each drawn
   either through [~src ~dst] or through an index resolved earlier. *)
let test_dense_counters_match_reference () =
  let r = Dpq_util.Rng.create ~seed:17 in
  List.iter
    (fun (drop, dup, spike) ->
      let plan =
        Fault_plan.create ~drop ~duplicate:dup ~delay_spike:spike ~delay_factor:3.0 ~seed:99 ()
      in
      let model = Ref_plan.create ~drop ~dup ~spike ~factor:3.0 ~seed:99 in
      let drops = ref 0 and dups = ref 0 and spikes = ref 0 in
      for i = 1 to 20_000 do
        let src = Dpq_util.Rng.int r 40 and dst = Dpq_util.Rng.int r 40 in
        let by_index = Dpq_util.Rng.bool r in
        let where = Printf.sprintf "draw %d on %d->%d" i src dst in
        if Dpq_util.Rng.int r 3 = 0 then begin
          let want = Ref_plan.delay_multiplier model ~src ~dst in
          if want > 1.0 then incr spikes;
          Alcotest.(check (float 0.0))
            where want
            (if by_index then
               Fault_plan.delay_multiplier_on plan None ~chan:(Fault_plan.channel plan ~src ~dst)
             else Fault_plan.delay_multiplier plan None ~src ~dst)
        end
        else begin
          let want = Ref_plan.transmit_copies model ~src ~dst in
          if want = 0 then incr drops;
          if want = 2 then incr dups;
          checki where want
            (if by_index then
               Fault_plan.transmit_copies_on plan None ~chan:(Fault_plan.channel plan ~src ~dst)
             else Fault_plan.transmit_copies plan None ~src ~dst)
        end
      done;
      let s = Fault_plan.stats plan in
      checki "drops" !drops s.Fault_plan.drops;
      checki "duplicates" !dups s.Fault_plan.duplicates;
      checki "delay spikes" !spikes s.Fault_plan.delay_spikes;
      checkb "faults fired" true (!drops + !dups + !spikes > 0))
    [ (0.3, 0.2, 0.25); (0.0, 0.3, 0.0); (1.0, 0.5, 1.0); (0.0, 0.0, 0.4) ]

(* A channel's index is fixed at its first use and dense. *)
let test_channel_index_dense () =
  let plan = Fault_plan.create ~seed:1 () in
  checki "first" 0 (Fault_plan.channel plan ~src:3 ~dst:4);
  checki "reverse is another channel" 1 (Fault_plan.channel plan ~src:4 ~dst:3);
  checki "same channel, same index" 0 (Fault_plan.channel plan ~src:3 ~dst:4);
  checki "next" 2 (Fault_plan.channel plan ~src:0 ~dst:1)

(* The kill set against a list model: pending kills in plan order as
   their ticks arrive, commits in an order of the host's choosing,
   idempotent re-commits, and [is_down] following [is_killed]. *)
let test_kill_set () =
  let kills : Fault_plan.kill list =
    [
      { node = 5; at_tick = 3 };
      { node = 2; at_tick = 1 };
      { node = 9; at_tick = 3 };
      { node = 0; at_tick = 6 };
      { node = 7; at_tick = 2 };
    ]
  in
  let plan = Fault_plan.create ~kills ~seed:1 () in
  let ints = Alcotest.(list int) in
  let committed = ref [] in
  let check_model when_ =
    for node = 0 to 10 do
      let dead = List.mem node !committed in
      checkb (Printf.sprintf "%s: is_killed %d" when_ node) dead (Fault_plan.is_killed plan ~node);
      checkb (Printf.sprintf "%s: is_down %d" when_ node) dead (Fault_plan.is_down plan ~node)
    done;
    checki (when_ ^ ": killed_count") (List.length !committed) (Fault_plan.killed_count plan)
  in
  let commit node =
    Fault_plan.commit_kill plan None ~node;
    if not (List.mem node !committed) then committed := node :: !committed
  in
  Alcotest.check ints "none due at tick 0" [] (Fault_plan.pending_kills plan);
  check_model "tick 0";
  Fault_plan.tick plan None;
  Alcotest.check ints "tick 1" [ 2 ] (Fault_plan.pending_kills plan);
  Fault_plan.tick plan None;
  Fault_plan.tick plan None;
  Alcotest.check ints "tick 3: plan order" [ 5; 2; 9; 7 ] (Fault_plan.pending_kills plan);
  commit 9;
  check_model "9 committed";
  Alcotest.check ints "9 no longer pending" [ 5; 2; 7 ] (Fault_plan.pending_kills plan);
  commit 2;
  commit 2;
  check_model "2 committed twice";
  Alcotest.check ints "2 no longer pending" [ 5; 7 ] (Fault_plan.pending_kills plan);
  (match Fault_plan.commit_kill plan None ~node:4 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "committed a kill the plan never scheduled");
  commit 7;
  commit 5;
  for _ = 4 to 6 do
    Fault_plan.tick plan None
  done;
  Alcotest.check ints "tick 6" [ 0 ] (Fault_plan.pending_kills plan);
  commit 0;
  check_model "all committed";
  Alcotest.check ints "nothing pending" [] (Fault_plan.pending_kills plan)

(* The keys the reliable layer and the plan index channels by pack two
   node ids as [(src lsl 31) lor dst].  [Int.hash] folds a key's high 32
   bits onto its low ones, so the 4032 channels of 64 nodes get only 128
   distinct hashes (chains of ~30 on every lookup); [Int_table.scatter]
   must spread them over nearly every one of 1024 buckets (it fills all
   of them; a uniform random hash would fill about 1004). *)
let test_scatter_spreads_channel_keys () =
  let buckets hash =
    let seen = Hashtbl.create 1024 in
    for src = 0 to 63 do
      for dst = 0 to 63 do
        if src <> dst then Hashtbl.replace seen (hash ((src lsl 31) lor dst) land 1023) ()
      done
    done;
    Hashtbl.length seen
  in
  let folded = buckets Int.hash and spread = buckets Int_table.scatter in
  checkb (Printf.sprintf "Int.hash fills %d of 1024 buckets" folded) true (folded <= 128);
  checkb (Printf.sprintf "scatter fills %d of 1024 buckets" spread) true (spread >= 980)

(* Wire tags: a channel id has 30 bits and a sequence number 31.  The
   largest of each survives the round trip; one more fails naming its
   field instead of aliasing another channel's packets. *)
let test_wire_tag_limits () =
  let chan = (1 lsl 30) - 1 and sn = (1 lsl 31) - 1 in
  let tag = Roundq.data_tag ~chan ~sn in
  checkb "non-negative" true (tag >= 0);
  checki "channel back" chan (Roundq.tag_chan tag);
  checki "sn back" sn (Roundq.tag_sn tag);
  checkb "data" false (Roundq.is_ack tag);
  let ack = Roundq.ack_tag tag in
  checkb "ack" true (Roundq.is_ack ack);
  checki "ack channel" chan (Roundq.tag_chan ack);
  checki "ack sn" sn (Roundq.tag_sn ack);
  checki "small" 5 (Roundq.tag_chan (Roundq.data_tag ~chan:5 ~sn:(1 lsl 30)));
  let fails field f =
    match f () with
    | exception Invalid_argument m ->
        checkb (Printf.sprintf "%S names %s" m field) true (contains m field)
    | _ -> Alcotest.failf "no failure for an oversized %s" field
  in
  fails "channel id" (fun () -> Roundq.data_tag ~chan:(1 lsl 30) ~sn:0);
  fails "channel id" (fun () -> Roundq.data_tag ~chan:(-1) ~sn:0);
  fails "sequence number" (fun () -> Roundq.data_tag ~chan:0 ~sn:(1 lsl 31));
  fails "sequence number" (fun () -> Roundq.data_tag ~chan:0 ~sn:(-1))

(* ------------------------------------------------- engine-level reliable *)

(* Under heavy drop, every sync message still arrives exactly once. *)
let test_sync_reliable_exactly_once () =
  let plan = Fault_plan.create ~drop:0.4 ~duplicate:0.2 ~seed:7 () in
  let received = Hashtbl.create 64 in
  let eng =
    Sync_engine.create ~n:4 ~size_bits:(fun _ -> 8)
      ~handler:(fun _ ~dst:_ ~src:_ msg ->
        Hashtbl.replace received msg (1 + Option.value ~default:0 (Hashtbl.find_opt received msg)))
      ~faults:plan ()
  in
  for i = 0 to 99 do
    Sync_engine.send eng ~src:(i mod 3) ~dst:3 i
  done;
  ignore (Sync_engine.run_to_quiescence eng);
  checki "all delivered" 100 (Hashtbl.length received);
  Hashtbl.iter (fun _ c -> checki "exactly once" 1 c) received;
  checki "nothing unacked" 0 (Sync_engine.unacked eng);
  let stats = Fault_plan.stats plan in
  checkb "drops happened" true (stats.Fault_plan.drops > 0);
  checkb "retransmits happened" true (stats.Fault_plan.retransmits > 0)

let test_async_reliable_exactly_once () =
  let plan = Fault_plan.create ~drop:0.4 ~duplicate:0.2 ~seed:11 () in
  let received = Hashtbl.create 64 in
  let eng =
    Async_engine.create ~n:4 ~seed:3 ~size_bits:(fun _ -> 8)
      ~handler:(fun _ ~dst:_ ~src:_ msg ->
        Hashtbl.replace received msg (1 + Option.value ~default:0 (Hashtbl.find_opt received msg)))
      ~faults:plan ()
  in
  for i = 0 to 99 do
    Async_engine.send eng ~src:(i mod 3) ~dst:3 i
  done;
  ignore (Async_engine.run_to_quiescence eng);
  checki "all delivered" 100 (Hashtbl.length received);
  Hashtbl.iter (fun _ c -> checki "exactly once" 1 c) received;
  checki "nothing unacked" 0 (Async_engine.unacked eng)

(* A crash window must stall delivery, not lose it: messages sent into the
   window arrive after the node recovers. *)
let test_sync_crash_stall_and_recover () =
  let plan =
    Fault_plan.create ~crashes:[ { node = 1; from_tick = 1; until_tick = 6 } ] ~seed:5 ()
  in
  let got = ref [] in
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 8)
      ~handler:(fun eng ~dst:_ ~src:_ msg -> got := (Sync_engine.round eng, msg) :: !got)
      ~faults:plan ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "x";
  ignore (Sync_engine.run_to_quiescence eng);
  (match !got with
  | [ (round, "x") ] -> checkb "delivered after the window closed" true (round >= 5)
  | _ -> Alcotest.fail "message lost or duplicated across the crash");
  checkb "crash drops recorded" true ((Fault_plan.stats plan).Fault_plan.crash_drops > 0)

(* A permanently-dead receiver must produce a bounded, diagnosable failure
   rather than a silent livelock. *)
let test_dead_channel_fails_bounded () =
  let plan =
    Fault_plan.create
      ~crashes:[ { node = 1; from_tick = 0; until_tick = max_int } ]
      ~seed:5 ()
  in
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 8)
      ~handler:(fun _ ~dst:_ ~src:_ _ -> ())
      ~faults:plan
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "never";
  match Sync_engine.run_to_quiescence eng with
  | exception Reliable.Delivery_failed _ -> ()
  | _ -> Alcotest.fail "expected Delivery_failed on a permanently dead channel"

(* The enriched livelock diagnostics of run_to_quiescence. *)
let test_quiescence_diagnostics () =
  let eng =
    Sync_engine.create ~n:2 ~size_bits:(fun _ -> 8)
      ~handler:(fun eng ~dst ~src msg -> Sync_engine.send eng ~src:dst ~dst:src msg)
      ()
  in
  Sync_engine.send eng ~src:0 ~dst:1 "ping";
  match Sync_engine.run_to_quiescence ~max_rounds:50 eng with
  | exception Failure m ->
      checkb "mentions pending" true (contains m "pending=");
      checkb "mentions round" true (contains m "round=");
      checkb "mentions last delivery" true (contains m "last_delivered=")
  | _ -> Alcotest.fail "ping-pong should exceed max_rounds"

(* ----------------------------------- retransmission order and reaping *)

let stats_line plan =
  let s = Fault_plan.stats plan in
  Printf.sprintf
    "drops=%d dups=%d spikes=%d crash_drops=%d retransmits=%d acks=%d suppressed=%d dead=%d"
    s.drops s.duplicates s.delay_spikes s.crash_drops s.retransmits s.acks_sent s.dups_suppressed
    s.dead_letters

(* The trace's schedule slice: msg, fault and retransmit events in order. *)
let trace_digest trace = Dpq_explore.Run_digest.finish ~trace (Dpq_explore.Run_digest.start ())

(* n = 6 has 30 directed channels; channel [c] is (c / 5, the (c mod 5)-th
   other node). *)
let channel_of c =
  let src = c / 5 and d = c mod 5 in
  (src, if d >= src then d + 1 else d)

(* 300 sends, ten per channel: one per channel up front, and each delivery
   of message m sends m + 30 on the same channel, so new registrations
   interleave with retransmissions. *)
let relay send eng m =
  if m + 30 < 300 then begin
    let src, dst = channel_of (m mod 30) in
    send eng ~src ~dst (m + 30)
  end

(* The order in which [Reliable.due] visits outstanding packets decides
   every later per-channel fault draw and the next round's delivery order.
   The counters and digests below were recorded before the reliable layer
   stopped allocating, and pin that order. *)
let test_sync_retransmit_order () =
  let plan = Fault_plan.create ~drop:0.3 ~duplicate:0.1 ~seed:8 () in
  let trace = Trace.create () in
  let got = ref 0 in
  let eng =
    Sync_engine.create ~n:6 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun eng ~dst:_ ~src:_ m ->
        incr got;
        relay Sync_engine.send eng m)
      ()
  in
  for c = 0 to 29 do
    let src, dst = channel_of c in
    Sync_engine.send eng ~src ~dst c
  done;
  checki "rounds" 326 (Sync_engine.run_to_quiescence eng);
  checki "delivered" 300 !got;
  Alcotest.(check string)
    "stats"
    "drops=290 dups=77 spikes=0 crash_drops=0 retransmits=273 acks=461 suppressed=161 dead=0"
    (stats_line plan);
  Alcotest.(check string) "digest" "396ab989b9efa7dd" (trace_digest trace)

let async_relay_run ~drop =
  let plan = Fault_plan.create ~drop ~duplicate:0.1 ~seed:8 () in
  let trace = Trace.create () in
  let got = ref 0 in
  let eng =
    Async_engine.create ~n:6 ~seed:9 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun eng ~dst:_ ~src:_ m ->
        incr got;
        relay Async_engine.send eng m)
      ()
  in
  for c = 0 to 29 do
    let src, dst = channel_of c in
    Async_engine.send eng ~src ~dst c
  done;
  let outcome =
    match Async_engine.run_to_quiescence eng with
    | events -> Printf.sprintf "events=%d" events
    | exception Reliable.Delivery_failed m -> m
  in
  (!got, Printf.sprintf "%g" (Async_engine.now eng), outcome, stats_line plan, trace_digest trace)

let test_async_retransmit_order () =
  let got, now, outcome, stats, digest = async_relay_run ~drop:0.3 in
  checki "delivered" 300 got;
  Alcotest.(check string) "clock" "290.791" now;
  Alcotest.(check string) "outcome" "events=1171" outcome;
  Alcotest.(check string)
    "stats"
    "drops=407 dups=107 spikes=0 crash_drops=0 retransmits=508 acks=663 suppressed=363 dead=0"
    stats;
  Alcotest.(check string) "digest" "aaf033b7e7e46c12" digest

(* At drop 0.9 the event queue keeps draining with packets unacked, so
   [next_deadline] drives the clock, until one packet runs out of
   attempts: which one, and when, pins the scan order too. *)
let test_async_next_deadline_drives_clock () =
  let got, now, outcome, stats, digest = async_relay_run ~drop:0.9 in
  checki "delivered before the failure" 248 got;
  Alcotest.(check string) "clock" "4044.49" now;
  Alcotest.(check string)
    "outcome"
    "Reliable: message 2->4 sn=0 still unacknowledged after 64 retransmissions (rto=64, \
     now=4044.49) — channel permanently down?"
    outcome;
  Alcotest.(check string)
    "stats"
    "drops=8709 dups=97 spikes=0 crash_drops=0 retransmits=8464 acks=982 suppressed=734 dead=0"
    stats;
  Alcotest.(check string) "digest" "856abe857940f43b" digest

(* Crash windows through whole runs: overlapping windows on one node, a
   window open from tick 0, two nodes coming up on the same tick (their
   "up" events in the order the plan's down set has always visited them)
   and windows that open after the traffic has died down.  The events,
   counters and digests were recorded while every tick still recomputed
   the crashed set; only a window's edge may now do that work. *)
let crash_windows : Fault_plan.crash_window list =
  [
    { node = 1; from_tick = 0; until_tick = 3 };
    { node = 2; from_tick = 4; until_tick = 9 };
    { node = 2; from_tick = 6; until_tick = 12 };
    { node = 5; from_tick = 5; until_tick = 14 };
    { node = 3; from_tick = 7; until_tick = 14 };
    { node = 0; from_tick = 14; until_tick = 15 };
    { node = 4; from_tick = 20; until_tick = 31 };
  ]

let crash_events trace =
  List.filter_map
    (function Trace.Node_crashed { node; kind; at } -> Some (node, kind, at) | _ -> None)
    (Trace.events trace)

let crash_event = Alcotest.(list (triple int string int))

let test_sync_crash_window_run () =
  let plan = Fault_plan.create ~drop:0.1 ~crashes:crash_windows ~seed:13 () in
  let trace = Trace.create () in
  let got = ref 0 in
  let eng =
    Sync_engine.create ~n:6 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun eng ~dst:_ ~src:_ m ->
        incr got;
        relay Sync_engine.send eng m)
      ()
  in
  for c = 0 to 29 do
    let src, dst = channel_of c in
    Sync_engine.send eng ~src ~dst c
  done;
  checki "rounds" 128 (Sync_engine.run_to_quiescence eng);
  checki "delivered" 300 !got;
  Alcotest.(check string)
    "stats"
    "drops=97 dups=0 spikes=0 crash_drops=167 retransmits=264 acks=468 suppressed=168 dead=0"
    (stats_line plan);
  Alcotest.check crash_event "node_crash events"
    [
      (1, "down", 1);
      (1, "up", 3);
      (2, "down", 4);
      (5, "down", 5);
      (3, "down", 7);
      (2, "up", 12);
      (0, "down", 14);
      (3, "up", 14);
      (5, "up", 14);
      (0, "up", 15);
      (4, "down", 20);
      (4, "up", 31);
    ]
    (crash_events trace);
  Alcotest.(check string) "digest" "9792698b051161be" (trace_digest trace)

(* The same windows stretched 20x for the asynchronous engine, which
   ticks once per event, with delay spikes on. *)
let test_async_crash_window_run () =
  let crashes =
    List.map
      (fun (w : Fault_plan.crash_window) ->
        { w with from_tick = 20 * w.from_tick; until_tick = 20 * w.until_tick })
      crash_windows
  in
  let plan = Fault_plan.create ~drop:0.1 ~delay_spike:0.1 ~crashes ~seed:13 () in
  let trace = Trace.create () in
  let got = ref 0 in
  let eng =
    Async_engine.create ~n:6 ~seed:9 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun eng ~dst:_ ~src:_ m ->
        incr got;
        relay Async_engine.send eng m)
      ()
  in
  for c = 0 to 29 do
    let src, dst = channel_of c in
    Async_engine.send eng ~src ~dst c
  done;
  checki "events" 1353 (Async_engine.run_to_quiescence eng);
  checki "delivered" 300 !got;
  Alcotest.(check string)
    "stats"
    "drops=148 dups=0 spikes=142 crash_drops=127 retransmits=527 acks=674 suppressed=374 dead=0"
    (stats_line plan);
  Alcotest.check crash_event "node_crash events"
    [
      (1, "down", 1);
      (1, "up", 60);
      (2, "down", 80);
      (5, "down", 100);
      (3, "down", 140);
      (2, "up", 240);
      (0, "down", 280);
      (3, "up", 280);
      (5, "up", 280);
      (0, "up", 300);
      (4, "down", 400);
      (4, "up", 620);
    ]
    (crash_events trace);
  Alcotest.(check string) "digest" "794aada6b94f5708" (trace_digest trace)

(* A tick between two window edges does no work: 1000 of them allocate
   exactly what an empty loop does. *)
let test_non_edge_tick_allocation () =
  let plan = Fault_plan.create ~crashes:crash_windows ~seed:1 () in
  let trace = Some (Trace.create ()) in
  for _ = 1 to 31 do
    Fault_plan.tick plan trace
  done;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty () =
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity plan)
    done
  in
  let ticks () =
    for _ = 1 to 1000 do
      Fault_plan.tick plan trace
    done
  in
  let base = words empty in
  Alcotest.(check (float 0.0)) "minor words of 1000 non-edge ticks" base (words ticks);
  checkb "still nobody down" false (Fault_plan.is_down plan ~node:4)

(* Reaping runs only after a kill is committed or a packet is registered
   on a channel with a killed endpoint.  This is the second trigger: the
   kill has already been reaped (an idle round ran after it) when a packet
   is sent to the dead node. *)
let test_reap_send_to_killed () =
  let plan = Fault_plan.create ~kills:[ { node = 1; at_tick = 0 } ] ~seed:3 () in
  let trace = Trace.create () in
  let got = ref 0 in
  let eng =
    Sync_engine.create ~n:3 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun _ ~dst:_ ~src:_ _ -> incr got)
      ()
  in
  Fault_plan.commit_kill plan (Some trace) ~node:1;
  Sync_engine.step eng;
  Sync_engine.send eng ~src:0 ~dst:1 "to the dead node";
  Sync_engine.send eng ~src:0 ~dst:2 "to a live node";
  Sync_engine.step eng;
  let stats = Fault_plan.stats plan in
  checki "one dead letter at the next round" 1 stats.Fault_plan.dead_letters;
  checki "only the live node's packet outstanding" 1 (Sync_engine.unacked eng);
  ignore (Sync_engine.run_to_quiescence eng);
  checki "never retransmitted" 0 stats.Fault_plan.retransmits;
  checki "still one dead letter" 1 stats.Fault_plan.dead_letters;
  checki "the live node got its message" 1 !got;
  Alcotest.(check string) "digest" "072077f0e8e8435c" (trace_digest trace)

(* The first trigger: a kill committed between two rounds reaps every
   outstanding packet on the dead node's channels, and nothing else. *)
let test_reap_kill_between_rounds () =
  let plan = Fault_plan.create ~drop:1.0 ~kills:[ { node = 2; at_tick = 0 } ] ~seed:3 () in
  let trace = Trace.create () in
  let eng =
    Sync_engine.create ~n:4 ~size_bits:(fun _ -> 8) ~trace ~faults:plan
      ~handler:(fun _ ~dst:_ ~src:_ _ -> ())
      ()
  in
  for src = 0 to 3 do
    for dst = 0 to 3 do
      if src <> dst then
        for k = 0 to 2 do
          Sync_engine.send eng ~src ~dst ((10 * src) + dst + (100 * k))
        done
    done
  done;
  Sync_engine.step eng;
  checki "everything dropped, all outstanding" 36 (Sync_engine.unacked eng);
  Fault_plan.commit_kill plan (Some trace) ~node:2;
  Sync_engine.step eng;
  checki "node 2's 6 channels x 3 packets reaped" 18
    (Fault_plan.stats plan).Fault_plan.dead_letters;
  checki "the rest still outstanding" 18 (Sync_engine.unacked eng);
  List.iter
    (function
      | Trace.Fault_injected { kind = "dead_letter"; src; dst; _ } ->
          checkb "dead letter on a channel of node 2" true (src = 2 || dst = 2)
      | _ -> ())
    (Trace.events trace);
  Alcotest.(check string) "digest" "db94d8d56891ab63" (trace_digest trace)

(* Allocation guard: a bare engine under drop + dup, one send per node per
   round for 800 rounds.  The fault path allocates nothing per message or
   per round; a closure, a boxed float or a table cell back on it shows
   up here as words per delivered message (about 340 before the reliable
   layer's pool and buffers were made flat, 10.6 with a [Hashtbl] entry
   per packet, 1.2 with flat tables). *)
let test_fault_path_allocation () =
  let plan = Fault_plan.create ~drop:0.05 ~duplicate:0.02 ~seed:5 () in
  let delivered = ref 0 in
  let eng =
    Sync_engine.create ~n:16 ~size_bits:(fun _ -> 8) ~faults:plan
      ~handler:(fun _ ~dst:_ ~src:_ _ -> incr delivered)
      ()
  in
  let before = Gc.minor_words () in
  for r = 0 to 799 do
    for src = 0 to 15 do
      Sync_engine.send eng ~src ~dst:((src + 1 + (r mod 15)) mod 16) r
    done;
    Sync_engine.step eng
  done;
  ignore (Sync_engine.run_to_quiescence eng);
  let words = Gc.minor_words () -. before in
  checki "delivered" 12800 !delivered;
  checki "retransmits" 1339 (Fault_plan.stats plan).Fault_plan.retransmits;
  let per_msg = words /. float_of_int !delivered in
  checkb
    (Printf.sprintf "%.1f minor words per delivered message <= 4" per_msg)
    true (per_msg <= 4.0)

(* Allocation guard for the reliable layer alone: the relay of the
   retransmission-order test, untraced, on a warmed engine — run once,
   then again after [reset_clock], so every pool, table and buffer has
   already grown.  With a [Hashtbl] per channel for sequence numbers
   and out-of-order arrivals, the second run allocated 26.8 minor words
   per registered packet (300 packets); with the flat tables it
   allocates 3.7, the relay's own pairs and the engine's per-run
   bookkeeping. *)
let test_warm_relay_allocation () =
  let plan = Fault_plan.create ~drop:0.3 ~duplicate:0.1 ~seed:8 () in
  let got = ref 0 in
  let eng =
    Sync_engine.create ~n:6 ~size_bits:(fun _ -> 8) ~faults:plan
      ~handler:(fun eng ~dst:_ ~src:_ m ->
        incr got;
        relay Sync_engine.send eng m)
      ()
  in
  let run () =
    for c = 0 to 29 do
      let src, dst = channel_of c in
      Sync_engine.send eng ~src ~dst c
    done;
    ignore (Sync_engine.run_to_quiescence eng)
  in
  run ();
  Sync_engine.reset_clock eng;
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  checki "delivered" 600 !got;
  let per_packet = words /. 300.0 in
  checkb
    (Printf.sprintf "%.1f minor words per registered packet <= 6" per_packet)
    true (per_packet <= 6.0)

(* [Int_table] must visit its bindings exactly as the stdlib's
   [Hashtbl] does, because [due]'s visit order decides every
   retransmission's fault draw and delivery order.  Random replace/remove
   sequences grow both tables past 600 live keys (16 -> 512 buckets), with
   resets after growth; the orders must agree after every step.  A
   second table shares the store, so node ids interleave. *)
module Itbl = Hashtbl.Make (Int)
module It = Int_table

let test_int_table_order () =
  let rng = Dpq_util.Rng.create ~seed:11 in
  let st = It.store () in
  let t = It.create 8 and h = Itbl.create 8 and other = It.create 8 in
  let step = ref 0 and peak = ref 0 in
  let check () =
    incr step;
    let mine = It.fold st t (fun k v acc -> (k, v) :: acc) [] in
    let order = ref [] in
    Itbl.iter (fun k v -> order := (k, v) :: !order) h;
    if mine <> !order then Alcotest.failf "visit order differs from Hashtbl's after step %d" !step;
    if It.length t <> Itbl.length h then Alcotest.failf "length differs after step %d" !step;
    if It.length t > !peak then peak := It.length t
  in
  let op ~p_replace =
    let k = Dpq_util.Rng.int rng 2000 in
    if Dpq_util.Rng.bernoulli rng ~p:p_replace then begin
      let v = Dpq_util.Rng.int rng 1_000_000 in
      It.replace st t k v;
      Itbl.replace h k v
    end
    else begin
      let want = Option.value (Itbl.find_opt h k) ~default:(-1) in
      checki "remove returns the bound value" want (It.remove st t k);
      Itbl.remove h k
    end;
    checki "find" (Option.value (Itbl.find_opt h k) ~default:(-1)) (It.find st t k);
    if Dpq_util.Rng.int rng 4 = 0 then It.replace st other (Dpq_util.Rng.int rng 500) k;
    check ()
  in
  let grow_to n = while It.length t < n do op ~p_replace:0.8 done in
  for _ = 1 to 3 do
    grow_to 650;
    for _ = 1 to 400 do
      op ~p_replace:0.5
    done;
    It.reset st t;
    Itbl.reset h;
    check ();
    for _ = 1 to 200 do
      op ~p_replace:0.6
    done
  done;
  checkb "reached 600 live keys" true (!peak >= 600)

(* The channel table: keys [Hashtbl.hash (src, dst)] under the identity
   hash, fed only [add] and [reset], visit their values as a polymorphic
   [(src, dst)]-keyed [Hashtbl] visits its bindings (64 -> 512 buckets). *)
let test_int_table_pair_order () =
  let rng = Dpq_util.Rng.create ~seed:12 in
  let st = It.store () in
  let t = It.create ~hash:Fun.id 64 and h = Hashtbl.create 64 in
  for round = 1 to 3 do
    let seen = Hashtbl.create 16 in
    for i = 0 to 599 do
      let key = (Dpq_util.Rng.int rng 64, Dpq_util.Rng.int rng 64) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        It.add st t (Hashtbl.hash key) i;
        Hashtbl.replace h key i
      end;
      let mine = It.fold st t (fun _ v acc -> v :: acc) [] in
      let order = ref [] in
      Hashtbl.iter (fun _ v -> order := v :: !order) h;
      if mine <> !order then Alcotest.failf "channel order differs in round %d at step %d" round i
    done;
    checkb "grew past 512 channels" true (Hashtbl.length h > 512);
    It.reset st t;
    Hashtbl.reset h
  done

(* --------------------------------------------- full-protocol fault matrix *)

let mixed_workload h ~n ~ops ~num_prios ~seed =
  let rng = Dpq_util.Rng.create ~seed in
  for _ = 1 to ops do
    let node = Dpq_util.Rng.int rng n in
    if Dpq_util.Rng.bernoulli rng ~p:0.6 then
      ignore (Heap.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng num_prios))
    else Heap.delete_min h ~node
  done

(* The faults a traced run reports as [Fault_injected] events, one per
   counted drop, duplicate, delay spike, crash drop or dead letter. *)
let injected (s : Fault_plan.stats) =
  s.drops + s.duplicates + s.delay_spikes + s.crash_drops + s.dead_letters

(* The ISSUE's acceptance scenario: 20% drop + duplication + one mid-run
   crash/recover window; both protocols, both engines; verify = Ok; and the
   trace's fault/retransmit tallies equal the plan's own counters. *)
let run_acceptance backend ~dht_mode ~seed =
  let n = 8 in
  let trace = Trace.create () in
  let plan =
    Fault_plan.create ~drop:0.2 ~duplicate:0.1
      ~crashes:[ { node = 3; from_tick = 40; until_tick = 90 } ]
      ~seed ()
  in
  let h = Heap.create ~seed ~trace ~faults:plan ~n backend in
  mixed_workload h ~n ~ops:60 ~num_prios:4 ~seed:(seed + 1);
  let batches = ref 0 in
  while Heap.pending_ops h > 0 do
    ignore (Heap.process ?dht_mode:(Some dht_mode) h);
    incr batches
  done;
  (match Heap.verify h with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "%s under faults: %s" (Dpq_types.Types.backend_name (Heap.backend h)) e));
  let stats = Fault_plan.stats plan in
  checkb "faults actually fired" true (stats.Fault_plan.drops > 0);
  checkb "retransmissions happened" true (stats.Fault_plan.retransmits > 0);
  (* Cross-check: trace event tallies == the reliable layer's own counters. *)
  checki "Fault_injected events match plan" (injected stats)
    (List.length
       (List.filter (function Trace.Fault_injected _ -> true | _ -> false) (Trace.events trace)));
  checki "Retransmit events match plan" stats.Fault_plan.retransmits (Trace.retransmits trace)

let test_skeap_acceptance_sync () =
  run_acceptance (Heap.Skeap { num_prios = 4 }) ~dht_mode:Heap.Dht_sync ~seed:21

let test_skeap_acceptance_async () =
  run_acceptance
    (Heap.Skeap { num_prios = 4 })
    ~dht_mode:(Heap.Dht_async { seed = 5; policy = Async_engine.Uniform (1.0, 10.0) })
    ~seed:22

let test_seap_acceptance_sync () = run_acceptance Heap.Seap ~dht_mode:Heap.Dht_sync ~seed:23

let test_seap_acceptance_async () =
  run_acceptance Heap.Seap
    ~dht_mode:(Heap.Dht_async { seed = 6; policy = Async_engine.Uniform (1.0, 10.0) })
    ~seed:24

(* Drop matrix: 0 / 0.05 / 0.2 across both protocols and both engines. *)
let run_matrix_cell backend ~drop ~dht_mode ~seed =
  let n = 6 in
  let faults = if drop = 0.0 then None else Some (Fault_plan.create ~drop ~seed ()) in
  let h = Heap.create ~seed ?faults ~n backend in
  mixed_workload h ~n ~ops:40 ~num_prios:3 ~seed:(seed + 1);
  while Heap.pending_ops h > 0 do
    ignore (Heap.process ?dht_mode:(Some dht_mode) h)
  done;
  match Heap.verify h with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "%s drop=%g: %s" (Dpq_types.Types.backend_name (Heap.backend h)) drop e)

let test_faulty_matrix () =
  List.iter
    (fun drop ->
      List.iteri
        (fun i backend ->
          run_matrix_cell backend ~drop ~dht_mode:Heap.Dht_sync ~seed:(100 + i);
          run_matrix_cell backend ~drop
            ~dht_mode:(Heap.Dht_async { seed = 9 + i; policy = Async_engine.Uniform (1.0, 10.0) })
            ~seed:(200 + i))
        [ Heap.Skeap { num_prios = 3 }; Heap.Seap ])
    [ 0.0; 0.05; 0.2 ]

(* The baselines' single-point serialization assumes arrival order respects
   issue order, so they only survive faults because the reliable layer
   releases per-channel FIFO — a retransmission must not overtake a later
   send.  Regression for exactly that property. *)
let test_baselines_fifo_under_drop () =
  List.iter
    (fun drop ->
      List.iteri
        (fun i backend ->
          let faults = Fault_plan.create ~drop ~duplicate:0.05 ~seed:(400 + i) () in
          let h = Heap.create ~seed:(410 + i) ~faults ~n:6 backend in
          mixed_workload h ~n:6 ~ops:40 ~num_prios:3 ~seed:(420 + i);
          while Heap.pending_ops h > 0 do
            ignore (Heap.process h)
          done;
          match Heap.verify h with
          | Ok () -> ()
          | Error e ->
              Alcotest.fail
                (Printf.sprintf "%s drop=%g: %s" (Dpq_types.Types.backend_name (Heap.backend h)) drop e))
        [ Heap.Centralized; Heap.Unbatched { num_prios = 3 } ])
    [ 0.05; 0.2 ]

(* Adversarial LIFO reordering on the facade, with and without drops. *)
let test_adversarial_lifo_seap () =
  List.iter
    (fun drop ->
      let faults = if drop = 0.0 then None else Some (Fault_plan.create ~drop ~seed:31 ()) in
      let h = Heap.create ~seed:31 ?faults ~n:6 Heap.Seap in
      mixed_workload h ~n:6 ~ops:40 ~num_prios:5 ~seed:32;
      while Heap.pending_ops h > 0 do
        ignore
          (Heap.process
             ~dht_mode:(Heap.Dht_async { seed = 13; policy = Async_engine.Adversarial_lifo })
             h)
      done;
      match Heap.verify h with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "Seap lifo drop=%g: %s" drop e))
    [ 0.0; 0.1 ]

let test_adversarial_lifo_skeap () =
  let faults = Some (Fault_plan.create ~drop:0.1 ~duplicate:0.05 ~seed:41 ()) in
  let h = Heap.create ~seed:41 ?faults ~n:6 (Heap.Skeap { num_prios = 4 }) in
  mixed_workload h ~n:6 ~ops:40 ~num_prios:4 ~seed:42;
  while Heap.pending_ops h > 0 do
    ignore
      (Heap.process
         ~dht_mode:(Heap.Dht_async { seed = 17; policy = Async_engine.Adversarial_lifo })
         h)
  done;
  match Heap.verify h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("Skeap lifo under faults: " ^ e)

(* Fault-free runs with a plan of all-zero probabilities still go through
   the reliable layer; semantics and trace cross-checks must hold. *)
let test_zero_probability_plan () =
  let trace = Trace.create () in
  let plan = Fault_plan.create ~seed:51 () in
  let h = Heap.create ~seed:51 ~trace ~faults:plan ~n:5 (Heap.Skeap { num_prios = 3 }) in
  mixed_workload h ~n:5 ~ops:30 ~num_prios:3 ~seed:52;
  while Heap.pending_ops h > 0 do
    ignore (Heap.process h)
  done;
  checkb "verify ok" true (Heap.verify h = Ok ());
  checki "no faults injected" 0 (injected (Fault_plan.stats plan));
  checki "no retransmits" 0 (Trace.retransmits trace)

(* ------------------------------------------- plan spec round-trip (qcheck) *)

(* Generator over Fault_plan.create's whole knob space: probabilities mix
   the omitted-default 0 with arbitrary values in [0,1], the spike factor
   mixes the omitted default 8 with values in [1,16], and kills get
   distinct nodes (create rejects a node killed twice). *)
let plan_knobs_gen =
  let open QCheck.Gen in
  let prob = oneof [ return 0.0; float_bound_inclusive 1.0 ] in
  let factor = oneof [ return 8.0; float_range 1.0 16.0 ] in
  let window =
    map
      (fun (node, from_tick, len) ->
        Fault_plan.{ node; from_tick; until_tick = from_tick + len })
      (triple (int_bound 7) (int_bound 100) (int_range 1 50))
  in
  let kills =
    map
      (fun ticks -> List.mapi (fun node at_tick -> Fault_plan.{ node; at_tick }) ticks)
      (list_size (int_bound 4) (int_bound 200))
  in
  pair (triple prob prob prob) (triple factor (list_size (int_bound 4) window) kills)

let plan_knobs_print ((drop, dup, spike), (factor, windows, kills)) =
  Fault_plan.to_string
    (Fault_plan.create ~drop ~duplicate:dup ~delay_spike:spike ~delay_factor:factor
       ~crashes:windows ~kills ~seed:1 ())
  |> Printf.sprintf "%S"

let draws plan =
  List.init 64 (fun i ->
      let dst = 1 + (i mod 3) in
      ( Fault_plan.transmit_copies plan None ~src:0 ~dst,
        Fault_plan.delay_multiplier plan None ~src:0 ~dst ))

let plan_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_string |> of_string preserves every knob"
    (QCheck.make ~print:plan_knobs_print plan_knobs_gen)
    (fun ((drop, dup, spike), (factor, windows, kills)) ->
      let plan =
        Fault_plan.create ~drop ~duplicate:dup ~delay_spike:spike ~delay_factor:factor
          ~crashes:windows ~kills ~seed:3 ()
      in
      let s = Fault_plan.to_string plan in
      let p = Fault_plan.of_string ~seed:4 s in
      Fault_plan.drop p = drop
      && Fault_plan.duplicate p = dup
      (* the spike and its factor have no accessor: the plan read back must
         draw the same delays (and fates) as a fresh plan with the same seed *)
      && draws p
         = draws
             (Fault_plan.create ~drop ~duplicate:dup ~delay_spike:spike ~delay_factor:factor
                ~crashes:windows ~kills ~seed:4 ())
      && Fault_plan.crash_windows p = windows
      && Fault_plan.kills p = kills
      && Fault_plan.to_string p = s)

let expect_invalid spec expected =
  match Fault_plan.of_string ~seed:1 spec with
  | exception Invalid_argument m -> Alcotest.(check string) spec expected m
  | _ -> Alcotest.fail (Printf.sprintf "%S: accepted" spec)

let test_plan_error_messages () =
  expect_invalid "drop=bogus" "Fault_plan.of_string: bad item \"drop=bogus\" (expected a number)";
  expect_invalid "crash=1@5"
    "Fault_plan.of_string: bad item \"crash=1@5\" (expected crash=NODE@FROM-UNTIL)";
  expect_invalid "crash=x@5-9"
    "Fault_plan.of_string: bad item \"crash=x@5-9\" (expected an integer)";
  expect_invalid "kill=1" "Fault_plan.of_string: bad item \"kill=1\" (expected kill=NODE@TICK)";
  expect_invalid "nonsense" "Fault_plan.of_string: bad item \"nonsense\" (expected key=value)";
  expect_invalid "boom=1"
    "Fault_plan.of_string: bad item \"boom=1\" (unknown key (drop|dup|spike|crash|kill))";
  expect_invalid "kill=2@5,kill=2@9"
    "Fault_plan.of_string: \"kill=2@5,kill=2@9\" (Fault_plan: node 2 is killed twice)";
  expect_invalid "kill=1@-5"
    "Fault_plan.of_string: \"kill=1@-5\" (Fault_plan: kill names a negative tick)";
  expect_invalid "kill=-1@5"
    "Fault_plan.of_string: \"kill=-1@5\" (Fault_plan: kill names a negative node)";
  (* The node's own '-' was once taken for the window's, which hid the
     negative node behind a malformed-window message. *)
  expect_invalid "crash=-1@2-3"
    "Fault_plan.of_string: \"crash=-1@2-3\" (Fault_plan: crash window names a negative node)";
  expect_invalid "crash=3@20-10"
    "Fault_plan.of_string: \"crash=3@20-10\" (Fault_plan: crash window must satisfy from_tick < \
     until_tick)";
  expect_invalid "drop=1.5"
    "Fault_plan.of_string: \"drop=1.5\" (Fault_plan: drop probability 1.5 outside [0,1])";
  (* NaN passes a [p < 0 || p > 1] test, and a NaN or infinite spike
     factor would become a NaN or infinite event time in the asynchronous
     engine. *)
  expect_invalid "drop=nan"
    "Fault_plan.of_string: \"drop=nan\" (Fault_plan: drop probability nan outside [0,1])";
  expect_invalid "dup=nan"
    "Fault_plan.of_string: \"dup=nan\" (Fault_plan: duplicate probability nan outside [0,1])";
  expect_invalid "spike=nan"
    "Fault_plan.of_string: \"spike=nan\" (Fault_plan: delay_spike probability nan outside \
     [0,1])";
  expect_invalid "spike=0.1xnan"
    "Fault_plan.of_string: \"spike=0.1xnan\" (Fault_plan: delay_factor nan must be finite and \
     >= 1)";
  expect_invalid "spike=0.1xinf"
    "Fault_plan.of_string: \"spike=0.1xinf\" (Fault_plan: delay_factor inf must be finite and \
     >= 1)"

(* --------------------------------------- permanent loss, end to end (k=3) *)

(* ISSUE acceptance: a run that loses <= k-1 replicas per key completes
   with the same online-checker verdict as the fault-free run. *)
let test_kill_verdict_matches_fault_free backend () =
  let n = 6 and seed = 97 in
  let module W = Dpq_workloads.Workload in
  let spec =
    W.Gen.
      {
        n;
        rounds = 8;
        lambda = 5;
        insert_ratio = 0.5;
        dist = W.Constant_set 6;
        seed = 31;
        arrival = W.Closed;
      }
  in
  let run ?faults () =
    Dpq_workloads.Runner.run_gen ~seed ~replication:3 ?faults ~n backend (W.Gen.create spec)
  in
  let clean = run () in
  let killed = run ~faults:(Fault_plan.of_string ~seed:7 "kill=2@25") () in
  checkb "fault-free run verifies" true clean.Dpq_workloads.Runner.semantics_ok;
  checkb "killed run verifies" true killed.Dpq_workloads.Runner.semantics_ok;
  checkb "identical verdicts" true
    (clean.Dpq_workloads.Runner.violation = killed.Dpq_workloads.Runner.violation);
  checkb "the kill actually cost ops" true (killed.Dpq_workloads.Runner.lost_ops > 0);
  checki "fault-free run loses nothing" 0 clean.Dpq_workloads.Runner.lost_ops

(* Exploration cells with a kill, k = 3: node 1 and node 4 killed at tick
   8, with and without wire noise, on the sync engine under FIFO.  The
   loss is at most k - 1 replicas of every key, so each verdict must be
   clean. *)
let test_kill_cells_verdict_clean () =
  let module E = Dpq_explore.Explore in
  List.iter
    (fun (backend, spec) ->
      let combo =
        {
          E.backend;
          engine = E.Sync;
          faults = Some spec;
          replication = 3;
          adaptive = Dpq_gossip.Batch_ctl.Off;
          n_override = None;
        }
      in
      let o = E.run (E.config_of_combo ~n:6 ~rounds:3 ~lambda:2 ~seed:7 ~policy:Sched.Fifo combo) in
      Alcotest.(check string)
        (Printf.sprintf "%s %s: verdict" (Dpq_types.Types.backend_name backend) spec)
        "none"
        (Option.fold ~none:"none" ~some:Dpq_semantics.Checker.violation_to_string o.E.violation))
    [
      (Heap.Skeap { num_prios = 4 }, "kill=1@8");
      (Heap.Skeap { num_prios = 4 }, "kill=4@8");
      (Heap.Skeap { num_prios = 4 }, "drop=0.2,dup=0.05,kill=4@8");
      (Heap.Seap, "kill=4@8");
    ]

let () =
  Alcotest.run "dpq_faults"
    [
      ( "fault_plan",
        [
          Alcotest.test_case "of_string parses and validates" `Quick test_plan_of_string;
          Alcotest.test_case "seeded determinism" `Quick test_plan_determinism;
          Alcotest.test_case "pinned fault decisions" `Quick test_plan_pinned_decisions;
          Alcotest.test_case "crash windows tick open/closed" `Quick test_crash_window_ticks;
          QCheck_alcotest.to_alcotest plan_roundtrip;
          Alcotest.test_case "of_string error messages are precise" `Quick
            test_plan_error_messages;
          Alcotest.test_case "a non-edge tick allocates nothing" `Quick
            test_non_edge_tick_allocation;
          Alcotest.test_case "dense counters = (src, dst)-keyed reference" `Quick
            test_dense_counters_match_reference;
          Alcotest.test_case "channel indices are dense and fixed" `Quick test_channel_index_dense;
          Alcotest.test_case "kill set: pending order, commits, is_down" `Quick test_kill_set;
          Alcotest.test_case "wire tag limits name their field" `Quick test_wire_tag_limits;
          Alcotest.test_case "scatter spreads packed channel keys" `Quick
            test_scatter_spreads_channel_keys;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "sync exactly-once under drop+dup" `Quick
            test_sync_reliable_exactly_once;
          Alcotest.test_case "async exactly-once under drop+dup" `Quick
            test_async_reliable_exactly_once;
          Alcotest.test_case "crash stalls, does not lose" `Quick test_sync_crash_stall_and_recover;
          Alcotest.test_case "dead channel fails bounded" `Quick test_dead_channel_fails_bounded;
          Alcotest.test_case "quiescence failure diagnostics" `Quick test_quiescence_diagnostics;
          Alcotest.test_case "sync retransmission order pinned" `Quick test_sync_retransmit_order;
          Alcotest.test_case "async retransmission order pinned" `Quick
            test_async_retransmit_order;
          Alcotest.test_case "async next_deadline drives the clock" `Quick
            test_async_next_deadline_drives_clock;
          Alcotest.test_case "send to a killed node: one dead letter" `Quick
            test_reap_send_to_killed;
          Alcotest.test_case "kill between rounds reaps its channels" `Quick
            test_reap_kill_between_rounds;
          Alcotest.test_case "fault path allocation guard" `Quick test_fault_path_allocation;
          Alcotest.test_case "warmed relay allocation guard" `Quick test_warm_relay_allocation;
          Alcotest.test_case "Int_table visits as Hashtbl.Make (Int)" `Quick test_int_table_order;
          Alcotest.test_case "Int_table visits as a (src, dst) Hashtbl" `Quick
            test_int_table_pair_order;
          Alcotest.test_case "sync crash-window run pinned" `Quick test_sync_crash_window_run;
          Alcotest.test_case "async crash-window run pinned" `Quick test_async_crash_window_run;
        ] );
      ( "protocol_matrix",
        [
          Alcotest.test_case "skeap sync: 20% drop + dup + crash" `Quick test_skeap_acceptance_sync;
          Alcotest.test_case "skeap async: 20% drop + dup + crash" `Quick
            test_skeap_acceptance_async;
          Alcotest.test_case "seap sync: 20% drop + dup + crash" `Quick test_seap_acceptance_sync;
          Alcotest.test_case "seap async: 20% drop + dup + crash" `Quick test_seap_acceptance_async;
          Alcotest.test_case "drop matrix 0/0.05/0.2 x both x both" `Slow test_faulty_matrix;
          Alcotest.test_case "baselines need FIFO release under drop" `Slow
            test_baselines_fifo_under_drop;
          Alcotest.test_case "adversarial lifo seap" `Quick test_adversarial_lifo_seap;
          Alcotest.test_case "adversarial lifo skeap" `Quick test_adversarial_lifo_skeap;
          Alcotest.test_case "zero-probability plan is benign" `Quick test_zero_probability_plan;
          Alcotest.test_case "skeap k=3 kill: verdict = fault-free" `Quick
            (test_kill_verdict_matches_fault_free (Heap.Skeap { num_prios = 6 }));
          Alcotest.test_case "seap k=3 kill: verdict = fault-free" `Quick
            (test_kill_verdict_matches_fault_free Heap.Seap);
          Alcotest.test_case "k=3 kill cells: verdict clean" `Quick test_kill_cells_verdict_clean;
        ] );
    ]
