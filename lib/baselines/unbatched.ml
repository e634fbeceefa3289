module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics
module Dht = Dpq_dht.Dht
module Anchor = Dpq_skeap.Anchor
module Batch = Dpq_skeap.Batch
module Oplog = Dpq_semantics.Oplog

module Clients = Dpq_types.Clients

type t = {
  num_prios : int;
  ldb : Ldb.t;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  tree : Aggtree.t;
  dht : Dht.t;
  key_hash : Dpq_util.Hashing.t;
  clients : Clients.t;
  anchor : Anchor.t;
}

let create ?(seed = 1) ?trace ?faults ?sched ~n ~num_prios () =
  if n < 1 then invalid_arg "Unbatched.create: need n >= 1";
  let ldb = Ldb.build ~n ~seed in
  {
    num_prios;
    ldb;
    trace;
    faults;
    sched;
    tree = Aggtree.of_ldb ldb;
    dht = Dht.create ~ldb ~seed:(seed + 7919) ();
    key_hash = Dpq_util.Hashing.create ~seed:(seed + 104729);
    clients = Clients.create ~name:"Unbatched" ~max_prio:num_prios ~n ();
    anchor = Anchor.create ~num_prios;
  }

let clients t = t.clients

include Clients.Make (struct
  type nonrec t = t

  let clients = clients
end)

let heap_size t = Anchor.total_occupied t.anchor
let trace t = t.trace
let stored_per_node t = Dht.stored_counts t.dht

type result = {
  completions : completion list;
  report : Phase.report;
  anchor_load : int;
}

(* Tree-climbing request / routed assignment reply. *)
type payload =
  | Climb of { origin : int; local_seq : int; kind : [ `Ins of Element.t | `Del ]; at : Ldb.vnode }
  | Assign of {
      origin : int;
      local_seq : int;
      kind : [ `Ins of Element.t | `Del ];
      slot : (int * int) option; (* (priority, position); None = ⊥ *)
    }

type msg = { path : Ldb.vnode list; payload : payload }

let payload_bits = function
  | Climb { kind = `Ins e; _ } -> 64 + Element.encoded_bits e
  | Climb _ -> 64
  | Assign { kind = `Ins e; _ } -> 80 + Element.encoded_bits e
  | Assign _ -> 80

let dht_key t prio pos = Dpq_util.Hashing.pair t.key_hash prio pos

let process t =
  let span = Dpq_obs.Trace.phase_start t.trace "unbatched" in
  let root = Aggtree.root t.tree in
  let dht_ops = ref [] in
  let get_index = Hashtbl.create 64 in
  let completions = ref [] in
  let send_along eng path payload =
    match path with
    | [] -> assert false
    | [ only ] ->
        Sync.send eng ~src:(Ldb.owner only) ~dst:(Ldb.owner only) { path = [ only ]; payload }
    | first :: (next :: _ as rest) ->
        Sync.send eng ~src:(Ldb.owner first) ~dst:(Ldb.owner next) { path = rest; payload }
  in
  let at_anchor eng origin local_seq kind =
    (* One-operation batch through the real anchor logic. *)
    let ops = match kind with `Ins e -> [ Batch.Ins (Element.prio e) ] | `Del -> [ Batch.Del ] in
    let assignment = Anchor.assign t.anchor (Batch.of_ops ~num_prios:t.num_prios ops) in
    let ea = List.hd assignment in
    let slot, result, okind =
      match kind with
      | `Ins e ->
          let prio = Element.prio e in
          let iv = ea.Anchor.ins.(prio - 1) in
          (Some (prio, Interval.lo iv), None, Oplog.Insert e)
      | `Del -> (
          match ea.Anchor.dels with
          | (prio, iv) :: _ -> (Some (prio, Interval.lo iv), None, Oplog.Delete_min)
          | [] -> (None, None, Oplog.Delete_min))
    in
    let w = Clients.next_witness t.clients in
    (* matched delete results are filled in after the DHT round; record the
       insert/⊥ cases now *)
    (match (kind, slot) with
    | `Ins _, _ | `Del, None ->
        Clients.record t.clients { Oplog.node = origin; local_seq; witness = w; kind = okind; result }
    | `Del, Some _ -> ());
    let reply = Assign { origin; local_seq; kind; slot } in
    send_along eng
      (fst
         (Ldb.route t.ldb ~src:root
            ~point:(Ldb.label t.ldb (Ldb.vnode ~owner:origin Ldb.Middle))))
      reply;
    w
  in
  let del_witness = Hashtbl.create 64 in
  let handle eng final payload =
    match payload with
    | Climb { origin; local_seq; kind; at } -> (
        match Aggtree.parent t.tree at with
        | None ->
            let w = at_anchor eng origin local_seq kind in
            if kind = `Del then Hashtbl.replace del_witness (origin, local_seq) w
        | Some p ->
            ignore final;
            Sync.send eng ~src:(Ldb.owner at) ~dst:(Ldb.owner p)
              { path = [ p ]; payload = Climb { origin; local_seq; kind; at = p } })
    | Assign { origin; local_seq; kind; slot } -> (
        match (kind, slot) with
        | `Ins elt, Some (prio, pos) ->
            dht_ops :=
              Dht.Put { origin; key = dht_key t prio pos; elt; confirm = false } :: !dht_ops;
            completions := { node = origin; local_seq; outcome = `Inserted elt } :: !completions
        | `Ins _, None -> assert false
        | `Del, Some (prio, pos) ->
            let key = dht_key t prio pos in
            Hashtbl.replace get_index (origin, key) local_seq;
            dht_ops := Dht.Get { origin; key } :: !dht_ops
        | `Del, None ->
            completions := { node = origin; local_seq; outcome = `Empty } :: !completions)
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
          let at = Ldb.vnode ~owner:node Ldb.Middle in
          Sync.send eng ~src:node ~dst:node
            { path = [ at ]; payload = Climb { origin = node; local_seq = p.local_seq; kind = p.kind; at } })
        ops)
    (Clients.snapshot t.clients All);
  let rounds = Sync.run_to_quiescence eng in
  let m = Sync.metrics eng in
  let anchor_load = (Metrics.node_load m).(Ldb.owner root) in
  (* Close the climb span before the DHT batch opens its own ["dht"] span;
     the DHT report is added separately below. *)
  let climb_report = Phase.report_of_metrics m rounds in
  Phase.trace_phase_end t.trace span "unbatched" climb_report;
  (* Phase 4: the DHT rendezvous. *)
  let dht_cs, dht_report = Dht.run_batch_sync ?trace:t.trace ?faults:t.faults ?sched:t.sched t.dht (List.rev !dht_ops) in
  List.iter
    (fun c ->
      match c with
      | Dht.Got { origin; key; elt } -> (
          match Hashtbl.find_opt get_index (origin, key) with
          | None -> failwith "Unbatched: unexpected DHT result"
          | Some local_seq ->
              Hashtbl.remove get_index (origin, key);
              completions := { node = origin; local_seq; outcome = `Got elt } :: !completions;
              let witness = Hashtbl.find del_witness (origin, local_seq) in
              Clients.record t.clients
                { Oplog.node = origin; local_seq; witness; kind = Oplog.Delete_min; result = Some elt })
      | Dht.Put_confirmed _ -> ())
    dht_cs;
  if Hashtbl.length get_index > 0 then failwith "Unbatched: unmatched DeleteMin";
  {
    completions = Clients.sort_completions !completions;
    report = Phase.add_report dht_report climb_report;
    anchor_load;
  }
