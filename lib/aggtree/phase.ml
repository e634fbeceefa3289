module Ldb = Dpq_overlay.Ldb
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics

type report = {
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  local_deliveries : int;
  busiest_node_load : int;
}

let empty_report =
  {
    rounds = 0;
    messages = 0;
    max_congestion = 0;
    max_message_bits = 0;
    total_bits = 0;
    local_deliveries = 0;
    busiest_node_load = 0;
  }

let add_report a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    max_congestion = max a.max_congestion b.max_congestion;
    max_message_bits = max a.max_message_bits b.max_message_bits;
    total_bits = a.total_bits + b.total_bits;
    local_deliveries = a.local_deliveries + b.local_deliveries;
    busiest_node_load = a.busiest_node_load + b.busiest_node_load;
  }

module Trace = Dpq_obs.Trace

(* Close a trace span with the exact numbers the phase reports — the
   equality the trace-vs-report cross-check in the test suite relies on. *)
let trace_phase_end trace span name r =
  Trace.phase_end trace ~span ~name ~rounds:r.rounds ~messages:r.messages
    ~max_congestion:r.max_congestion ~max_message_bits:r.max_message_bits
    ~total_bits:r.total_bits

let report_of_metrics m rounds =
  {
    rounds;
    messages = Metrics.total_messages m;
    max_congestion = Metrics.max_congestion m;
    max_message_bits = Metrics.max_message_bits m;
    total_bits = Metrics.total_bits m;
    local_deliveries = Metrics.local_deliveries m;
    busiest_node_load = Array.fold_left max 0 (Metrics.node_load m);
  }

let header_bits tree =
  2 * Dpq_util.Bitsize.bits_of_nat_bound (max 1 ((3 * Aggtree.n tree) - 1))

(* [parts.(v)] is filled when [v] completes; vnodes outside the tree never
   complete and have only their own value. *)
type 'a memo = { own : 'a array; parts : 'a list array }

let memo_parts memo v = match memo.parts.(v) with [] -> [ memo.own.(v) ] | parts -> parts

type 'a tree_msg = { to_v : Ldb.vnode; from_v : Ldb.vnode; value : 'a }

let up ?trace ?faults ?sched ~tree ~local ~combine ~size_bits () =
  let span = Trace.phase_start trace "up" in
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  let nv = 3 * n in
  let header = header_bits tree in
  let own = Array.init nv (fun v -> local v) in
  (* Every vnode has one parent, so a child's sub-aggregate has a slot of
     its own, indexed by the child. *)
  let child_agg = Array.make nv own.(0) in
  let received = Array.make nv 0 in
  let parts = Array.make nv [] in
  let result = ref None in
  let rec child_aggs = function [] -> [] | c :: cs -> child_agg.(c) :: child_aggs cs in
  let on_complete eng v =
    (* All child sub-aggregates are in: combine in deterministic order
       (own value first, then children by label) and pass upward. *)
    let aggs = child_aggs (Aggtree.children tree v) in
    parts.(v) <- own.(v) :: aggs;
    let total = List.fold_left combine own.(v) aggs in
    match Aggtree.parent tree v with
    | None -> result := Some total
    | Some p ->
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner p)
          { to_v = p; from_v = v; value = total }
  in
  let handler eng ~dst:_ ~src:_ msg =
    let v = msg.to_v in
    child_agg.(msg.from_v) <- msg.value;
    received.(v) <- received.(v) + 1;
    if received.(v) = List.length (Aggtree.children tree v) then on_complete eng v
  in
  let eng =
    Sync.create ~n
      ~size_bits:(fun m -> header + size_bits m.value)
      ~handler ?trace ?faults ?sched ()
  in
  (* Kick off: leaves complete immediately.  Vnodes of removed nodes also
     have no children but are not in the tree — skipping them keeps the
     root's result the only one written. *)
  for v = 0 to nv - 1 do
    if Aggtree.is_leaf tree v && Aggtree.in_tree tree v then on_complete eng v
  done;
  let rounds = Sync.run_to_quiescence eng in
  let value =
    match !result with
    | Some v -> v
    | None -> failwith "Phase.up: aggregation did not reach the anchor"
  in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "up" report;
  (value, { own; parts }, report)

let down ?trace ?faults ?sched ~tree ~memo ~root_payload ~split ~size_bits () =
  let span = Trace.phase_start trace "down" in
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  let nv = 3 * n in
  let header = header_bits tree in
  let retained = Array.make nv None in
  let rec forward eng v children pieces =
    match (children, pieces) with
    | [], [] -> ()
    | c :: children, piece :: pieces ->
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c) { to_v = c; from_v = v; value = piece };
        forward eng v children pieces
    | _ -> failwith "Phase.down: split returned wrong arity"
  in
  let handle eng v payload =
    match split ~parts:(memo_parts memo v) payload with
    | [] -> failwith "Phase.down: split returned wrong arity"
    | mine :: rest ->
        retained.(v) <- Some mine;
        forward eng v (Aggtree.children tree v) rest
  in
  let handler eng ~dst:_ ~src:_ msg = handle eng msg.to_v msg.value in
  let eng =
    Sync.create ~n
      ~size_bits:(fun m -> header + size_bits m.value)
      ~handler ?trace ?faults ?sched ()
  in
  handle eng (Aggtree.root tree) root_payload;
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "down" report;
  (retained, report)

let broadcast ?trace ?faults ?sched ~tree ~payload ~size_bits () =
  let span = Trace.phase_start trace "broadcast" in
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  let header = header_bits tree in
  let rec handle eng v payload =
    List.iter
      (fun c ->
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c)
          { to_v = c; from_v = v; value = payload })
      (Aggtree.children tree v)
  and handler eng ~dst:_ ~src:_ msg = handle eng msg.to_v msg.value in
  let eng =
    Sync.create ~n
      ~size_bits:(fun m -> header + size_bits m.value)
      ~handler ?trace ?faults ?sched ()
  in
  handle eng (Aggtree.root tree) payload;
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "broadcast" report;
  report
