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

let create ?(seed = 1) ?(replication = 1) ?trace ?faults ?sched ?gossip ~n ~num_prios () =
  if n < 1 then invalid_arg "Skeap.create: need n >= 1";
  if num_prios < 1 then invalid_arg "Skeap.create: need num_prios >= 1";
  let host =
    Host.create ~name:"Skeap" ~max_prio:num_prios ?trace ?faults ?sched ?gossip ~seed ~replication ~n ()
  in
  {
    host;
    num_prios;
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

(* Traversal ranks follow the tree, so every topology change recomputes
   them. *)
let rerank t () = t.preorder_rank <- compute_preorder_ranks t.host.tree

module Itbl = Hashtbl.Make (Int)

let batch_op (p : Clients.pending) =
  match p.kind with `Ins e -> Batch.Ins (Element.prio e) | `Del -> Batch.Del

(* Phase 4 keeps one slot per operation of the batch, numbered in
   (node, local_seq) order.  A slot's witness sort key is
   (entry * 3 + phase, a, b), ordered lexicographically: phase 0 = inserts
   (a = traversal rank, b = local issue order), 1 = matched deletes (draw
   order: a = priority, b = position), 2 = ⊥ deletes (a = node, b = local
   order).  The phase also says which outcome the slot gets. *)
type slots = {
  s_node : int array;
  s_seq : int array;
  s_key : int array;  (* DHT key; unused for ⊥ *)
  s_elt : Element.t array;  (* inserted or returned element; unused for ⊥ *)
  k_jp : int array;
  k_a : int array;
  k_b : int array;
}

let no_element = Element.make ~prio:0 ~origin:(-1) ~seq:(-1) ()

let create_slots total =
  {
    s_node = Array.make total 0;
    s_seq = Array.make total 0;
    s_key = Array.make total 0;
    s_elt = Array.make total no_element;
    k_jp = Array.make total 0;
    k_a = Array.make total 0;
    k_b = Array.make total 0;
  }

(* Fill the slots from [first] on with [node]'s ops, walking them in step
   with its entry assignments: a new entry starts with the first op and
   with every insert that follows a delete ([Batch.group_ops]).  Per entry,
   [ins_used] counts the insert positions taken per priority and
   [dels]/[del_off] point at the next delete position.  Returns the next
   free slot. *)
let map_positions t sl ~first ~node ~ins_used (ops : Clients.pending list)
    (entry_assigns : Anchor.assignment) =
  let entries = ref entry_assigns and j = ref (-1) in
  let ins = ref [||] and dels = ref [] and del_off = ref 0 in
  let in_dels = ref true in
  let ops = ref ops and slot = ref first and more = ref true in
  while !more do
    match !ops with
    | [] -> more := false
    | pending :: rest ->
        ops := rest;
        let s = !slot in
        incr slot;
        let is_ins = match pending.kind with `Ins _ -> true | `Del -> false in
        if !j < 0 || (is_ins && !in_dels) then begin
          match !entries with
          | [] -> failwith "Skeap: assignment/ops length mismatch"
          | ea :: tl ->
              entries := tl;
              incr j;
              ins := ea.Anchor.ins;
              dels := ea.Anchor.dels;
              del_off := 0;
              Array.fill ins_used 0 t.num_prios 0
        end;
        in_dels := not is_ins;
        sl.s_node.(s) <- node;
        sl.s_seq.(s) <- pending.local_seq;
        match pending.kind with
        | `Ins elt ->
            let prio = Element.prio elt in
            let iv = !ins.(prio - 1) in
            let used = ins_used.(prio - 1) in
            if used >= Interval.cardinality iv then failwith "Skeap: insert positions exhausted";
            ins_used.(prio - 1) <- used + 1;
            sl.s_key.(s) <- dht_key t prio (Interval.lo iv + used);
            sl.s_elt.(s) <- elt;
            sl.k_jp.(s) <- 3 * !j;
            sl.k_a.(s) <- t.preorder_rank.(node);
            sl.k_b.(s) <- pending.local_seq
        | `Del -> (
            match !dels with
            | (prio, iv) :: tl ->
                let pos = Interval.lo iv + !del_off in
                if pos = Interval.hi iv then begin
                  dels := tl;
                  del_off := 0
                end
                else incr del_off;
                sl.s_key.(s) <- dht_key t prio pos;
                sl.k_jp.(s) <- (3 * !j) + 1;
                sl.k_a.(s) <- prio;
                sl.k_b.(s) <- pos
            | [] ->
                (* ⊥: the heap ran dry for this entry. *)
                sl.k_jp.(s) <- (3 * !j) + 2;
                sl.k_a.(s) <- node;
                sl.k_b.(s) <- pending.local_seq)
  done;
  !slot

(* Log every slot's operation in witness order.  Sort keys are distinct,
   so any sort gives the one order. *)
let record_witnesses clients sl =
  let order = Array.init (Array.length sl.k_jp) (fun s -> s) in
  Array.sort
    (fun x y ->
      let c = Int.compare sl.k_jp.(x) sl.k_jp.(y) in
      if c <> 0 then c
      else
        let c = Int.compare sl.k_a.(x) sl.k_a.(y) in
        if c <> 0 then c else Int.compare sl.k_b.(x) sl.k_b.(y))
    order;
  Array.iter
    (fun s ->
      let node = sl.s_node.(s) and local_seq = sl.s_seq.(s) in
      let witness = Clients.next_witness clients in
      Clients.record clients
        (match sl.k_jp.(s) mod 3 with
        | 0 -> { Oplog.node; local_seq; witness; kind = Insert sl.s_elt.(s); result = None }
        | 1 -> { node; local_seq; witness; kind = Delete_min; result = Some sl.s_elt.(s) }
        | _ -> { node; local_seq; witness; kind = Delete_min; result = None }))
    order

(* Slots are in (node, local_seq) order, the order completions report. *)
let completions_of sl =
  let acc = ref [] in
  for s = Array.length sl.k_jp - 1 downto 0 do
    let outcome =
      match sl.k_jp.(s) mod 3 with 0 -> `Inserted sl.s_elt.(s) | 1 -> `Got sl.s_elt.(s) | _ -> `Empty
    in
    acc := { node = sl.s_node.(s); local_seq = sl.s_seq.(s); outcome } :: !acc
  done;
  !acc

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
    Phase.up ?trace ?faults ?sched ~tree ~local ~combine:Batch.combine
      ~size_bits:Batch.encoded_bits ()
  in
  (* ---- Phase 2: anchor assigns position intervals (local) ------------- *)
  let assignment = Anchor.assign t.anchor combined in
  Dpq_obs.Trace.anchor_assign trace ~batch_inserts:(Batch.total_inserts combined)
    ~batch_deletes:(Batch.total_deletes combined)
    ~heap_size:(Anchor.total_occupied t.anchor);
  (* ---- Phase 3: decompose intervals down the tree --------------------- *)
  let retained, down_report =
    Phase.down ?trace ?faults ?sched ~tree ~memo ~root_payload:assignment
      ~split:(fun ~parts a -> Anchor.split ~num_prios:t.num_prios a ~parts)
      ~size_bits:Anchor.assignment_bits ()
  in
  (* Announce the phase switch (anchor-driven broadcast). *)
  let announce_report =
    Phase.broadcast ?trace ?faults ?sched ~tree ~payload:()
      ~size_bits:(fun () -> 1) ()
  in
  (* ---- Phase 4: map positions to ops, run the DHT --------------------- *)
  let sl = create_slots (Array.fold_left (fun acc ops -> acc + List.length ops) 0 node_ops) in
  let ins_used = Array.make t.num_prios 0 in
  let next = ref 0 in
  for node = 0 to Clients.n h.clients - 1 do
    match retained.(Ldb.vnode ~owner:node Ldb.Middle) with
    | None ->
        if node_ops.(node) <> [] then failwith "Skeap: node with ops received no assignment"
    | Some entry_assigns ->
        next := map_positions t sl ~first:!next ~node ~ins_used node_ops.(node) entry_assigns
  done;
  (* The DHT requests in slot order; deletes in flight are indexed by key
     and answer only to the node that asked. *)
  let get_index = Itbl.create 64 in
  let dht_ops = ref [] in
  for s = !next - 1 downto 0 do
    let origin = sl.s_node.(s) and key = sl.s_key.(s) in
    match sl.k_jp.(s) mod 3 with
    | 0 -> dht_ops := Dht.Put { origin; key; elt = sl.s_elt.(s); confirm = false } :: !dht_ops
    | 1 ->
        if Itbl.mem get_index key then failwith "Skeap: two DeleteMin requests share a DHT key";
        Itbl.add get_index key s;
        dht_ops := Dht.Get { origin; key } :: !dht_ops
    | _ -> ()
  done;
  let dht_completions, dht_report = Host.run_dht h ~dht_mode !dht_ops in
  List.iter
    (fun c ->
      match c with
      | Dht.Got { origin; key; elt } -> (
          match Itbl.find get_index key with
          | s when sl.s_node.(s) = origin ->
              Itbl.remove get_index key;
              sl.s_elt.(s) <- elt
          | _ | (exception Not_found) -> failwith "Skeap: DHT returned an element nobody asked for")
      | Dht.Put_confirmed _ -> ())
    dht_completions;
  if Itbl.length get_index > 0 then
    failwith "Skeap: some DeleteMin requests never met their element";
  (* ---- assign witness positions in anchor processing order ------------ *)
  record_witnesses h.clients sl;
  (* ---- gossip exchange: load estimation rides the batch boundary ------- *)
  let gossip_report = Host.exchange_gossip h in
  let report =
    List.fold_left Phase.add_report Phase.empty_report
      [ up_report; down_report; announce_report; dht_report; gossip_report ]
  in
  { completions = completions_of sl; report; batch = combined; assignment }

let drain ?(dht_mode = Dht_sync) t = Clients.drain t.host.clients (fun () -> process_batch ~dht_mode t)

let stored_per_node t = Dht.stored_counts t.host.dht

(* ------------------------------------------------- membership changes *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

let add_node t = Host.add_node t.host ~step:(rerank t)
let remove_last_node t = Host.remove_last_node t.host ~step:(rerank t)
