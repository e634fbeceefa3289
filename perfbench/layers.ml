(* Per-layer counts folded from Dpq_obs.Trace events.  Drive.run folds the
   trace after every batch and then clears it, so a traced run holds one
   batch of events at a time however long it is. *)

module Trace = Dpq_obs.Trace

(* Costs of every span with one name ("up", "dht", "kselect-sort", ...). *)
type span_cost = {
  mutable msgs : int;
  mutable bits : int;
  mutable rounds : int;
  mutable congestion : int; (* max deliveries into one (span, round, node) cell *)
}

type t = {
  by_name : (string, span_cost) Hashtbl.t;
  mutable unattributed : int; (* deliveries outside every span *)
  mutable dht_requests : int;
  mutable selections : int;
  mutable p1_iters : int;
  mutable p2_iters : int;
  mutable p1_msgs : int;
  mutable p2_msgs : int;
  mutable p3_candidates : int;
  mutable hint_hits : int;
  mutable sel_msgs : int; (* cumulative messages of the selection in progress *)
  mutable anchor_ops : int;
  mutable anchor_batches : int;
  mutable retransmits : int;
  mutable faults : int;
  mutable repair_keys : int;
  mutable gossip_exchanges : int;
  mutable window_changes : int;
  mutable last_window : int option;
}

let create () =
  {
    by_name = Hashtbl.create 16;
    unattributed = 0;
    dht_requests = 0;
    selections = 0;
    p1_iters = 0;
    p2_iters = 0;
    p1_msgs = 0;
    p2_msgs = 0;
    p3_candidates = 0;
    hint_hits = 0;
    sel_msgs = 0;
    anchor_ops = 0;
    anchor_batches = 0;
    retransmits = 0;
    faults = 0;
    repair_keys = 0;
    gossip_exchanges = 0;
    window_changes = 0;
    last_window = None;
  }

let cost t name =
  match Hashtbl.find_opt t.by_name name with
  | Some c -> c
  | None ->
      let c = { msgs = 0; bits = 0; rounds = 0; congestion = 0 } in
      Hashtbl.replace t.by_name name c;
      c

let span_rounds t = Hashtbl.fold (fun _ c acc -> acc + c.rounds) t.by_name 0

(* Messages in spans, to compare with the count the heap reports.  The
   anti-entropy repair a kill triggers runs before the batch and is left
   out of the batch's reported cost, so "repair" spans are left out here
   too and reported on their own. *)
let batch_messages t =
  Hashtbl.fold (fun name c acc -> if name = "repair" then acc else acc + c.msgs) t.by_name 0

(* Fold every event of [trace] into [t], then clear the trace.  Must run
   between batches, when no span is open: span ids restart at 0 after a
   clear.  Congestion cells are kept for "dht" spans only, the one layer
   whose congestion is reported. *)
let fold t trace =
  let names = Hashtbl.create 64 in
  let cells = Hashtbl.create 1024 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev with
      | Phase_start { span; name } -> Hashtbl.replace names span (name, cost t name)
      | Phase_end { name; rounds; _ } ->
          let c = cost t name in
          c.rounds <- c.rounds + rounds
      | Msg_delivered { span; round; dst; bits; _ } -> (
          match Hashtbl.find_opt names span with
          | None -> t.unattributed <- t.unattributed + 1
          | Some (name, c) ->
              c.msgs <- c.msgs + 1;
              c.bits <- c.bits + bits;
              if name = "dht" then begin
                let key = (span, round, dst) in
                let k = 1 + Option.value ~default:0 (Hashtbl.find_opt cells key) in
                Hashtbl.replace cells key k;
                if k > c.congestion then c.congestion <- k
              end)
      | Dht_put _ | Dht_get _ -> t.dht_requests <- t.dht_requests + 1
      | Kselect_round { stage; candidates; messages; _ } -> (
          (* [messages] is cumulative within one selection; a selection ends
             with its single phase-3 event. *)
          let delta = messages - t.sel_msgs in
          match stage with
          | "phase1" | "phase1-hint" ->
              if stage = "phase1" then t.p1_iters <- t.p1_iters + 1
              else t.hint_hits <- t.hint_hits + 1;
              t.p1_msgs <- t.p1_msgs + delta;
              t.sel_msgs <- messages
          | "phase2" ->
              t.p2_iters <- t.p2_iters + 1;
              t.p2_msgs <- t.p2_msgs + delta;
              t.sel_msgs <- messages
          | _ ->
              t.selections <- t.selections + 1;
              t.p3_candidates <- t.p3_candidates + candidates;
              t.sel_msgs <- 0)
      | Anchor_assign { batch_inserts; batch_deletes; _ } ->
          t.anchor_ops <- t.anchor_ops + batch_inserts + batch_deletes;
          t.anchor_batches <- t.anchor_batches + 1
      | Retransmit _ -> t.retransmits <- t.retransmits + 1
      | Fault_injected _ -> t.faults <- t.faults + 1
      | Repair_end { keys_pulled; _ } -> t.repair_keys <- t.repair_keys + keys_pulled
      | Gossip_round _ -> t.gossip_exchanges <- t.gossip_exchanges + 1
      | Window_change { window; _ } ->
          t.window_changes <- t.window_changes + 1;
          t.last_window <- Some window
      | Churn _ | Node_crashed _ | Sched_perturbed _ | Repair_start _ | Repair_session _ ->
          ())
    (Trace.events trace);
  Trace.clear trace
