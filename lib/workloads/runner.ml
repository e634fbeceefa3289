module Phase = Dpq_aggtree.Phase
module Heap = Dpq.Dpq_heap
module Types = Dpq_types.Types
module Checker = Dpq_semantics.Checker
module Trace = Dpq_obs.Trace
module Gossip = Dpq_gossip.Gossip
module Batch_ctl = Dpq_gossip.Batch_ctl

type summary = {
  backend : Types.backend;
  n : int;
  ops : int;
  lost_ops : int;
  rounds : int;
  messages : int;
  max_congestion : int;
  hotspot_load : int;
  max_message_bits : int;
  total_bits : int;
  got : int;
  empty : int;
  inserted : int;
  semantics_ok : bool;
  violation : Checker.violation option;
  peak_live : int;
  p50_latency : int;
  p99_latency : int;
  p999_latency : int;
  makespan : int;
}

let protocol_name s = Types.backend_name s.backend

(* Completion-latency histogram: latencies are small integers (rounds), so
   a count per distinct value stays tiny no matter how many ops stream
   through. *)
module Lat = struct
  type t = { counts : (int, int) Hashtbl.t; mutable total : int }

  let create () = { counts = Hashtbl.create 64; total = 0 }

  let add t lat ~count =
    if count > 0 then begin
      (match Hashtbl.find t.counts lat with
      | c -> Hashtbl.replace t.counts lat (c + count)
      | exception Not_found -> Hashtbl.add t.counts lat count);
      t.total <- t.total + count
    end

  (* Nearest-rank percentile over the recorded latencies; 0 when empty. *)
  let percentile t p =
    if t.total = 0 then 0
    else begin
      let keys = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counts []) in
      let rank = max 1 (int_of_float (ceil (p *. float_of_int t.total))) in
      let rec go cum = function
        | [] -> 0
        | k :: rest ->
            let cum = cum + Hashtbl.find t.counts k in
            if cum >= rank then k else go cum rest
      in
      go 0 keys
    end
end

(* Mutable accumulator shared by the closed- and open-loop drivers. *)
type acc = {
  mutable a_ops : int;
  mutable a_lost : int;
  mutable a_rounds : int;
  mutable a_messages : int;
  mutable a_max_congestion : int;
  mutable a_hotspot : int;
  mutable a_max_bits : int;
  mutable a_total_bits : int;
  mutable a_got : int;
  mutable a_empty : int;
  mutable a_inserted : int;
  lat : Lat.t;
  mutable a_makespan : int;
}

let acc_create () =
  {
    a_ops = 0;
    a_lost = 0;
    a_rounds = 0;
    a_messages = 0;
    a_max_congestion = 0;
    a_hotspot = 0;
    a_max_bits = 0;
    a_total_bits = 0;
    a_got = 0;
    a_empty = 0;
    a_inserted = 0;
    lat = Lat.create ();
    a_makespan = 0;
  }

let acc_costs acc (r : Heap.result) =
  acc.a_rounds <- acc.a_rounds + r.Heap.rounds;
  acc.a_messages <- acc.a_messages + r.Heap.messages;
  acc.a_max_congestion <- max acc.a_max_congestion r.Heap.max_congestion;
  acc.a_hotspot <- acc.a_hotspot + r.Heap.hotspot_load;
  acc.a_max_bits <- max acc.a_max_bits r.Heap.max_message_bits;
  acc.a_total_bits <- acc.a_total_bits + r.Heap.total_bits

let acc_outcome acc (c : Heap.completion) =
  match c.outcome with
  | `Got _ -> acc.a_got <- acc.a_got + 1
  | `Empty -> acc.a_empty <- acc.a_empty + 1
  | `Inserted _ -> acc.a_inserted <- acc.a_inserted + 1

let acc_finish acc ~backend ~n checker =
  let verdict = Checker.Online.finish checker in
  {
    backend;
    n;
    ops = acc.a_ops;
    lost_ops = acc.a_lost;
    rounds = acc.a_rounds;
    messages = acc.a_messages;
    max_congestion = acc.a_max_congestion;
    hotspot_load = acc.a_hotspot;
    max_message_bits = acc.a_max_bits;
    total_bits = acc.a_total_bits;
    got = acc.a_got;
    empty = acc.a_empty;
    inserted = acc.a_inserted;
    semantics_ok = verdict = Ok ();
    violation = (match verdict with Ok () -> None | Error v -> Some v);
    peak_live = Checker.Online.peak_live checker;
    p50_latency = Lat.percentile acc.lat 0.50;
    p99_latency = Lat.percentile acc.lat 0.99;
    p999_latency = Lat.percentile acc.lat 0.999;
    makespan = acc.a_makespan;
  }

(* The streaming core every closed-loop entry point funnels into: pull one
   round at a time, inject it, process it, drain the completed records into
   the online checker, and keep only counters.  Nothing here retains the
   workload, the oplog or the outcome list, so memory is O(live elements) +
   one round.  Closed-loop latency: every op completes in the batch it was
   injected into, so its completion latency is that batch's round cost. *)
let run_stream ?(seed = 1) ?replication ?trace ?faults ?sched ?dht_mode ?sink ~n backend next =
  let h = Heap.create ~seed ?replication ?trace ?faults ?sched ~n backend in
  let checker = Heap.online_checker h in
  let acc = acc_create () in
  let rec loop () =
    match next () with
    | None -> ()
    | Some round ->
        List.iter
          (fun (op : Workload.op) ->
            acc.a_ops <- acc.a_ops + 1;
            (* A permanently killed node issues nothing: its share of the
               workload is counted as lost, not injected. *)
            if not (Heap.live h ~node:op.Workload.node) then acc.a_lost <- acc.a_lost + 1
            else
              match op.Workload.action with
              | `Ins p -> ignore (Heap.insert h ~node:op.Workload.node ~prio:p)
              | `Del -> Heap.delete_min h ~node:op.Workload.node)
          round;
        let r = Heap.process ?dht_mode h in
        acc_costs acc r;
        List.iter (acc_outcome acc) r.Heap.completions;
        Lat.add acc.lat r.Heap.rounds ~count:(List.length r.Heap.completions);
        let records = Heap.take_oplog h in
        Option.iter (fun f -> f records) sink;
        Checker.Online.feed_all checker records;
        loop ()
  in
  loop ();
  acc.a_makespan <- acc.a_rounds;
  acc_finish acc ~backend ~n checker

let run ?seed ?replication ?trace ?faults ?sched ?dht_mode ?sink ~n backend workload =
  let remaining = ref workload in
  run_stream ?seed ?replication ?trace ?faults ?sched ?dht_mode ?sink ~n backend (fun () ->
      match !remaining with
      | [] -> None
      | round :: rest ->
          remaining := rest;
          Some round)

let run_gen ?seed ?replication ?trace ?faults ?sched ?dht_mode ?sink ~n backend gen =
  run_stream ?seed ?replication ?trace ?faults ?sched ?dht_mode ?sink ~n backend (fun () ->
      Workload.Gen.next gen)

(* --------------------------------------------------------- open loop *)

type window = Fixed of int | Adaptive of Batch_ctl.config

(* Open-loop driver: each generator round is one tick of virtual time.
   Ops buffer at their arrival tick; a batch fires when a full window has
   elapsed since the last fire AND ops are pending (empty windows are
   free).  Service is serialized: a batch fired at tick t starts at
   max(t, busy_until) and runs for its reported round cost, so offered
   load beyond the service capacity shows up as queueing delay — exactly
   the Lemma 3.7/3.8 trade-off the adaptive controller navigates. *)
let run_open ?(seed = 1) ?replication ?trace ?faults ?sched ?dht_mode ?gossip ?sink
    ~window ~n backend gen =
  let ctl, gossip =
    match window with
    | Fixed w ->
        if w < 1 then invalid_arg "Runner.run_open: window must be >= 1";
        (None, gossip)
    | Adaptive cfg ->
        (* Adaptive control needs the load signal: default the estimator on. *)
        (Some (Batch_ctl.create cfg), Some (Option.value gossip ~default:Gossip.default_config))
  in
  let h = Heap.create ~seed ?replication ?trace ?faults ?sched ?gossip ~n backend in
  let checker = Heap.online_checker h in
  let acc = acc_create () in
  let arrival = Arrival_ticks.create ~n in
  let fixed_w = match window with Fixed w -> w | Adaptive _ -> 1 in
  let window_now () = match ctl with Some c -> Batch_ctl.window c | None -> fixed_w in
  let busy_until = ref 0 in
  let last_fire = ref 0 in
  let batches = ref 0 in
  let fire tick =
    let start = max tick !busy_until in
    (* ticks the just-fired batch actually accumulated over (>= the window
       when empty windows were skipped) — the Λ̂ conversion base *)
    let interval = float_of_int (max 1 (tick - !last_fire)) in
    let injected = Heap.pending_ops h in
    let r = Heap.process ?dht_mode h in
    acc_costs acc r;
    let done_at = start + max 1 r.Heap.rounds in
    busy_until := done_at;
    List.iter
      (fun (c : Heap.completion) ->
        acc_outcome acc c;
        let at = Arrival_ticks.take arrival ~node:c.node ~local_seq:c.local_seq in
        if at >= 0 then Lat.add acc.lat (done_at - at) ~count:1)
      r.Heap.completions;
    let records = Heap.take_oplog h in
    Option.iter (fun f -> f records) sink;
    Checker.Online.feed_all checker records;
    last_fire := tick;
    incr batches;
    (* Controller update: fit the batch-cost model on what just ran, read
       the gossip Λ̂ (per node per batch), convert to global ops/tick, and
       let hysteresis decide whether the window moves. *)
    match ctl with
    | None -> ()
    | Some c ->
        Batch_ctl.observe c ~ops:injected ~rounds:(max 1 r.Heap.rounds);
        let lambda_hat =
          match Heap.load_estimate h with
          | Some est -> est *. float_of_int n /. interval
          | None -> float_of_int injected /. interval
        in
        let w', changed = Batch_ctl.update c ~lambda_hat in
        if changed then begin
          let est_milli = int_of_float (Float.round (lambda_hat *. 1000.0)) in
          Trace.window_change trace ~at_batch:(!batches - 1) ~window:w' ~est_milli
        end
  in
  let tick = ref 0 in
  let rec loop () =
    match Workload.Gen.next gen with
    | None -> ()
    | Some round ->
        List.iter
          (fun (op : Workload.op) ->
            acc.a_ops <- acc.a_ops + 1;
            if not (Heap.live h ~node:op.Workload.node) then acc.a_lost <- acc.a_lost + 1
            else begin
              let node = op.Workload.node in
              Arrival_ticks.add arrival ~node ~tick:!tick;
              match op.Workload.action with
              | `Ins p -> ignore (Heap.insert h ~node ~prio:p)
              | `Del -> Heap.delete_min h ~node
            end)
          round;
        if !tick - !last_fire >= window_now () && Heap.pending_ops h > 0 then fire !tick;
        incr tick;
        loop ()
  in
  loop ();
  (* Final drain: everything still buffered goes out in one last batch. *)
  if Heap.pending_ops h > 0 then fire !tick;
  acc.a_makespan <- max !busy_until !tick;
  acc_finish acc ~backend ~n checker

let throughput s = if s.rounds = 0 then 0.0 else float_of_int s.ops /. float_of_int s.rounds

let effective_throughput s =
  let denom = max s.rounds s.hotspot_load in
  if denom = 0 then 0.0 else float_of_int s.ops /. float_of_int denom

let open_throughput s =
  if s.makespan = 0 then 0.0 else float_of_int (s.ops - s.lost_ops) /. float_of_int s.makespan
