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

type 'a memo = { own : 'a array; child_aggs : (Ldb.vnode * 'a) list array }

let memo_parts memo v =
  memo.own.(v) :: List.map snd memo.child_aggs.(v)

type 'a tree_msg = { to_v : Ldb.vnode; from_v : Ldb.vnode; value : 'a }

let up ?trace ?faults ?sched ?par ~tree ~local ~combine ~size_bits () =
  let span = Trace.phase_start trace "up" in
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  let nv = 3 * n in
  let header = header_bits tree in
  let own = Array.init nv (fun v -> local v) in
  let expected = Array.init nv (fun v -> List.length (Aggtree.children tree v)) in
  let received = Array.make nv [] in
  let result = ref None in
  let complete = Array.make nv false in
  let rec on_complete eng v =
    (* All child sub-aggregates are in: combine in deterministic order
       (own value first, then children by label) and pass upward. *)
    complete.(v) <- true;
    let ordered =
      List.map
        (fun c ->
          match List.assoc_opt c received.(v) with
          | Some x -> x
          | None -> failwith "Phase.up: missing child aggregate")
        (Aggtree.children tree v)
    in
    let total = List.fold_left combine own.(v) ordered in
    match Aggtree.parent tree v with
    | None -> result := Some total
    | Some p ->
        Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner p)
          { to_v = p; from_v = v; value = total }
  and handler eng ~dst:_ ~src:_ msg =
    let v = msg.to_v in
    received.(v) <- (msg.from_v, msg.value) :: received.(v);
    if (not complete.(v)) && List.length received.(v) = expected.(v) then
      on_complete eng v
  in
  let eng =
    Sync.create ~n
      ~size_bits:(fun m -> header + size_bits m.value)
      ~handler ?trace ?faults ?sched ?par ()
  in
  (* Kick off: leaves complete immediately.  Vnodes of removed nodes also
     have no children but are not in the tree — skipping them keeps the
     root's result the only one written. *)
  for v = 0 to nv - 1 do
    if expected.(v) = 0 && Aggtree.in_tree tree v then on_complete eng v
  done;
  let rounds = Sync.run_to_quiescence eng in
  let value =
    match !result with
    | Some v -> v
    | None -> failwith "Phase.up: aggregation did not reach the anchor"
  in
  let memo = { own; child_aggs = Array.init nv (fun v ->
      List.map (fun c -> (c, List.assoc c received.(v))) (Aggtree.children tree v)) }
  in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "up" report;
  (value, memo, report)

let down ?trace ?faults ?sched ?par ~tree ~memo ~root_payload ~split ~size_bits () =
  let span = Trace.phase_start trace "down" in
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  let nv = 3 * n in
  let header = header_bits tree in
  let retained = Array.make nv None in
  let rec handle eng v payload =
    let children = Aggtree.children tree v in
    let parts = memo_parts memo v in
    let pieces = split ~parts payload in
    if List.length pieces <> List.length parts then
      failwith "Phase.down: split returned wrong arity";
    (match pieces with
    | [] -> failwith "Phase.down: empty split"
    | mine :: rest ->
        retained.(v) <- Some mine;
        List.iter2
          (fun c piece ->
            Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c)
              { to_v = c; from_v = v; value = piece })
          children rest)
  and handler eng ~dst:_ ~src:_ msg = handle eng msg.to_v msg.value in
  let eng =
    Sync.create ~n
      ~size_bits:(fun m -> header + size_bits m.value)
      ~handler ?trace ?faults ?sched ?par ()
  in
  handle eng (Aggtree.root tree) root_payload;
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "down" report;
  (retained, report)

let broadcast ?trace ?faults ?sched ?par ~tree ~payload ~size_bits () =
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
      ~handler ?trace ?faults ?sched ?par ()
  in
  handle eng (Aggtree.root tree) payload;
  let rounds = Sync.run_to_quiescence eng in
  let report = report_of_metrics (Sync.metrics eng) rounds in
  trace_phase_end trace span "broadcast" report;
  report
