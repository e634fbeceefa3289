module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Dht = Dpq_dht.Dht
module Oplog = Dpq_semantics.Oplog
module Clients = Dpq_types.Clients
module Host = Dpq_dht.Host

type t = {
  host : Host.t;
  num_prios : int;
  par : Dpq_simrt.Domain_pool.par option;
      (* domain-parallel tree phases (DESIGN.md §9); DHT stays sequential *)
  key_hash : Dpq_util.Hashing.t; (* (prio, pos) -> DHT key *)
  anchor : Anchor.t;
  mutable preorder_rank : int array; (* per middle-vnode owner: traversal rank *)
}

let compute_preorder_ranks tree =
  (* DFS pre-order: own first, then children in label order — the exact
     order up-combine folds and down-split decomposes.  Killed nodes are
     not in the tree and keep rank -1; they never issue operations. *)
  let ldb = Aggtree.ldb tree in
  let rank = Array.make (Ldb.n ldb) (-1) in
  let counter = ref 0 in
  let rec dfs v =
    let r = !counter in
    incr counter;
    (match Ldb.kind v with Ldb.Middle -> rank.(Ldb.owner v) <- r | _ -> ());
    List.iter dfs (Aggtree.children tree v)
  in
  dfs (Aggtree.root tree);
  Array.iteri
    (fun i r ->
      if r < 0 && Ldb.is_present ldb ~id:i then
        failwith (Printf.sprintf "node %d missing preorder rank" i))
    rank;
  rank

let create ?(seed = 1) ?(replication = 1) ?(domains = 1) ?trace ?faults ?sched ?gossip ~n ~num_prios () =
  if n < 1 then invalid_arg "Skeap.create: need n >= 1";
  if num_prios < 1 then invalid_arg "Skeap.create: need num_prios >= 1";
  if domains < 1 then invalid_arg "Skeap.create: need domains >= 1";
  let host =
    Host.create ~name:"Skeap" ~max_prio:num_prios ?trace ?faults ?sched ?gossip ~seed ~replication ~n ()
  in
  {
    host;
    num_prios;
    par =
      (if domains > 1 then
         Some
           {
             Dpq_simrt.Domain_pool.pool = Dpq_simrt.Domain_pool.get ~domains;
             shards = domains;
           }
       else None);
    key_hash = Dpq_util.Hashing.create ~seed:(seed + 104729);
    anchor = Anchor.create ~num_prios;
    preorder_rank = compute_preorder_ranks host.tree;
  }

let clients t = t.host.clients

include Clients.Make (struct
  type nonrec t = t

  let clients = clients
end)

let num_prios t = t.num_prios
let tree t = t.host.tree
let replication t = Dht.replication t.host.dht
let heap_size t = Anchor.total_occupied t.anchor
let trace t = t.host.trace
let load_estimate t = Host.load_estimate t.host

type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type batch_result = {
  completions : completion list;
  report : Phase.report;
  batch : Batch.t;
  assignment : Anchor.assignment;
}

let dht_key t prio pos = Dpq_util.Hashing.pair t.key_hash prio pos

(* A witness sort key; ordered lexicographically.  Layout:
   (entry_j, phase, a, b) with phase 0 = inserts (ordered by traversal rank
   then local issue order), 1 = matched deletes (ordered by draw order:
   ascending priority then position), 2 = ⊥ deletes (node, local order). *)
type wkey = int * int * int * int

(* Traversal ranks follow the tree, so every topology change recomputes
   them. *)
let rerank t () = t.preorder_rank <- compute_preorder_ranks t.host.tree

let batch_op (p : Clients.pending) =
  match p.kind with `Ins e -> Batch.Ins (Element.prio e) | `Del -> Batch.Del

let process_batch ?(dht_mode = Dht_sync) t =
  let h = t.host in
  Host.commit_kills h ~step:(rerank t);
  let trace = h.trace and faults = h.faults and sched = h.sched and tree = h.tree in
  (* ---- snapshot buffers ---------------------------------------------- *)
  let node_ops = Clients.snapshot h.clients All in
  let node_bops = Array.map (List.map batch_op) node_ops in
  let node_batches = Array.map (Batch.of_ops ~num_prios:t.num_prios) node_bops in
  (* ---- Phase 1: aggregate batches to the anchor ----------------------- *)
  let local v =
    match Ldb.kind v with
    | Ldb.Middle -> node_batches.(Ldb.owner v)
    | _ -> Batch.empty ~num_prios:t.num_prios
  in
  let combined, memo, up_report =
    Phase.up ?trace ?faults ?sched ?par:t.par ~tree ~local ~combine:Batch.combine
      ~size_bits:Batch.encoded_bits ()
  in
  (* ---- Phase 2: anchor assigns position intervals (local) ------------- *)
  let assignment = Anchor.assign t.anchor combined in
  Dpq_obs.Trace.anchor_assign trace ~batch_inserts:(Batch.total_inserts combined)
    ~batch_deletes:(Batch.total_deletes combined)
    ~heap_size:(Anchor.total_occupied t.anchor);
  (* ---- Phase 3: decompose intervals down the tree --------------------- *)
  let retained, down_report =
    Phase.down ?trace ?faults ?sched ?par:t.par ~tree ~memo ~root_payload:assignment
      ~split:(fun ~parts a -> Anchor.split ~num_prios:t.num_prios a ~parts)
      ~size_bits:Anchor.assignment_bits ()
  in
  (* Announce the phase switch (anchor-driven broadcast). *)
  let announce_report =
    Phase.broadcast ?trace ?faults ?sched ?par:t.par ~tree ~payload:()
      ~size_bits:(fun () -> 1) ()
  in
  (* ---- Phase 4: map positions to ops, run the DHT --------------------- *)
  let dht_ops = ref [] in
  (* (origin, key) -> (local_seq, wkey) for deletes in flight *)
  let get_index : (int * int, int * wkey) Hashtbl.t = Hashtbl.create 64 in
  let records : (wkey * Oplog.record) list ref = ref [] in
  let completions = ref [] in
  (* Log a completed operation under its sort key (its witness is set once
     the batch is sorted) and report its outcome. *)
  let complete wkey node local_seq kind result outcome =
    records := (wkey, { Oplog.node; local_seq; witness = 0; kind; result }) :: !records;
    completions := { node; local_seq; outcome } :: !completions
  in
  for node = 0 to Clients.n h.clients - 1 do
    let mv = Ldb.vnode ~owner:node Ldb.Middle in
    match retained.(mv) with
    | None ->
        if node_ops.(node) <> [] then failwith "Skeap: node with ops received no assignment"
    | Some (entry_assigns : Anchor.assignment) ->
        let groups = Batch.group_ops node_bops.(node) in
        let pendings = ref node_ops.(node) in
        let next_pending () =
          match !pendings with
          | [] -> failwith "Skeap: assignment/ops length mismatch"
          | p :: tl ->
              pendings := tl;
              p
        in
        List.iteri
          (fun j group ->
            let ea = List.nth entry_assigns j in
            (* cursors over this entry's per-priority insert intervals *)
            let ins_cursor = Array.map (fun iv -> ref (Interval.positions iv)) ea.Anchor.ins in
            let del_cursor =
              ref
                (List.concat_map
                   (fun (p, iv) -> List.map (fun pos -> (p, pos)) (Interval.positions iv))
                   ea.Anchor.dels)
            in
            List.iter
              (fun _ ->
                let pending = next_pending () in
                match pending.kind with
                | `Ins elt ->
                    let prio = Element.prio elt in
                    let pos =
                      match !(ins_cursor.(prio - 1)) with
                      | [] -> failwith "Skeap: insert positions exhausted"
                      | p :: tl ->
                          ins_cursor.(prio - 1) := tl;
                          p
                    in
                    let key = dht_key t prio pos in
                    dht_ops := Dht.Put { origin = node; key; elt; confirm = false } :: !dht_ops;
                    complete
                      (j, 0, t.preorder_rank.(node), pending.local_seq)
                      node pending.local_seq (Oplog.Insert elt) None (`Inserted elt)
                | `Del -> (
                    match !del_cursor with
                    | (prio, pos) :: tl ->
                        del_cursor := tl;
                        let key = dht_key t prio pos in
                        dht_ops := Dht.Get { origin = node; key } :: !dht_ops;
                        let wkey = (j, 1, prio, pos) in
                        Hashtbl.replace get_index (node, key) (pending.local_seq, wkey)
                    | [] ->
                        (* ⊥: the heap ran dry for this entry. *)
                        complete (j, 2, node, pending.local_seq) node pending.local_seq
                          Oplog.Delete_min None `Empty))
              group)
          groups
  done;
  let dht_ops = List.rev !dht_ops in
  let dht_completions, dht_report = Host.run_dht h ~dht_mode dht_ops in
  List.iter
    (fun c ->
      match c with
      | Dht.Got { origin; key; elt } -> (
          match Hashtbl.find_opt get_index (origin, key) with
          | None -> failwith "Skeap: DHT returned an element nobody asked for"
          | Some (local_seq, wkey) ->
              Hashtbl.remove get_index (origin, key);
              complete wkey origin local_seq Oplog.Delete_min (Some elt) (`Got elt))
      | Dht.Put_confirmed _ -> ())
    dht_completions;
  if Hashtbl.length get_index > 0 then
    failwith "Skeap: some DeleteMin requests never met their element";
  (* ---- assign witness positions in anchor processing order ------------ *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !records) in
  List.iter
    (fun (_, r) -> Clients.record h.clients { r with Oplog.witness = Clients.next_witness h.clients })
    sorted;
  (* ---- gossip exchange: load estimation rides the batch boundary ------- *)
  let gossip_report = Host.exchange_gossip ?par:t.par h in
  let report =
    List.fold_left Phase.add_report Phase.empty_report
      [ up_report; down_report; announce_report; dht_report; gossip_report ]
  in
  { completions = Clients.sort_completions !completions; report; batch = combined; assignment }

let drain ?(dht_mode = Dht_sync) t = Clients.drain t.host.clients (fun () -> process_batch ~dht_mode t)

let stored_per_node t = Dht.stored_counts t.host.dht

(* ------------------------------------------------- membership changes *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

let add_node t = Host.add_node t.host ~step:(rerank t)
let remove_last_node t = Host.remove_last_node t.host ~step:(rerank t)
