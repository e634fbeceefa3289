module Element = Dpq_util.Element
module Ldb = Dpq_overlay.Ldb
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics
module Phase = Dpq_aggtree.Phase
module Oplog = Dpq_semantics.Oplog

module Clients = Dpq_types.Clients

type t = {
  ldb : Ldb.t;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  clients : Clients.t;
  mutable heap : Element.t Pairing_heap.t;
}

let create ?(seed = 1) ?trace ?faults ?sched ~n () =
  if n < 1 then invalid_arg "Centralized.create: need n >= 1";
  {
    ldb = Ldb.build ~n ~seed;
    trace;
    faults;
    sched;
    clients = Clients.create ~name:"Centralized" ~n ();
    heap = Pairing_heap.empty ~cmp:Element.compare;
  }

let clients t = t.clients

include Clients.Make (struct
  type nonrec t = t

  let clients = clients
end)

let heap_size t = Pairing_heap.size t.heap
let trace t = t.trace

let stored_per_node t =
  (* The whole heap lives at the coordinator. *)
  let a = Array.make (n t) 0 in
  a.(0) <- Pairing_heap.size t.heap;
  a

type result = {
  completions : completion list;
  report : Phase.report;
  coordinator_load : int;
}

type payload =
  | Request of { origin : int; local_seq : int; kind : [ `Ins of Element.t | `Del ] }
  | Reply of { origin : int; local_seq : int; outcome : [ `Inserted of Element.t | `Got of Element.t | `Empty ] }

type msg = { path : Ldb.vnode list; payload : payload }

let payload_bits = function
  | Request { kind = `Ins e; _ } -> 64 + Element.encoded_bits e
  | Request _ -> 64
  | Reply { outcome = `Got e; _ } | Reply { outcome = `Inserted e; _ } ->
      64 + Element.encoded_bits e
  | Reply _ -> 64

let process t =
  let span = Dpq_obs.Trace.phase_start t.trace "centralized" in
  let coordinator = 0 in
  let coord_point = Ldb.label t.ldb (Ldb.vnode ~owner:coordinator Ldb.Middle) in
  let completions = ref [] in
  let send_along eng path payload =
    match path with
    | [] -> assert false
    | [ only ] ->
        Sync.send eng ~src:(Ldb.owner only) ~dst:(Ldb.owner only) { path = [ only ]; payload }
    | first :: (next :: _ as rest) ->
        Sync.send eng ~src:(Ldb.owner first) ~dst:(Ldb.owner next) { path = rest; payload }
  in
  let route eng ~from ~point payload =
    send_along eng
      (fst (Ldb.route t.ldb ~src:(Ldb.vnode ~owner:from Ldb.Middle) ~point))
      payload
  in
  let handle eng final payload =
    match payload with
    | Request { origin; local_seq; kind } ->
        assert (Ldb.owner final = coordinator || true);
        (* The coordinator executes the operation immediately on its local
           sequential heap: the whole data structure lives here. *)
        let outcome, result, okind =
          match kind with
          | `Ins elt ->
              t.heap <- Pairing_heap.insert t.heap elt;
              (`Inserted elt, None, Oplog.Insert elt)
          | `Del -> (
              match Pairing_heap.delete_min t.heap with
              | Some (e, rest) ->
                  t.heap <- rest;
                  (`Got e, Some e, Oplog.Delete_min)
              | None -> (`Empty, None, Oplog.Delete_min))
        in
        Clients.serialize t.clients ~node:origin ~local_seq okind result;
        route eng ~from:(Ldb.owner final)
          ~point:(Ldb.label t.ldb (Ldb.vnode ~owner:origin Ldb.Middle))
          (Reply { origin; local_seq; outcome })
    | Reply { origin; local_seq; outcome } ->
        completions := { node = origin; local_seq; outcome } :: !completions
  in
  let handler eng ~dst:_ ~src:_ msg =
    match msg.path with
    | [] -> assert false
    | [ final ] -> handle eng final msg.payload
    | cur :: (next :: _ as rest) ->
        Sync.send eng ~src:(Ldb.owner cur) ~dst:(Ldb.owner next)
          { path = rest; payload = msg.payload }
  in
  let eng =
    Sync.create ~n:(n t)
      ~size_bits:(fun m -> 64 + payload_bits m.payload)
      ~handler ?trace:t.trace ?faults:t.faults ?sched:t.sched ()
  in
  Array.iteri
    (fun node ops ->
      List.iter
        (fun (p : Clients.pending) ->
          route eng ~from:node ~point:coord_point
            (Request { origin = node; local_seq = p.local_seq; kind = p.kind }))
        ops)
    (Clients.snapshot t.clients All);
  let rounds = Sync.run_to_quiescence eng in
  let m = Sync.metrics eng in
  let load = (Metrics.node_load m).(coordinator) in
  let report = Phase.report_of_metrics m rounds in
  Phase.trace_phase_end t.trace span "centralized" report;
  { completions = Clients.sort_completions !completions; report; coordinator_load = load }
