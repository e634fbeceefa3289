module Ldb = Dpq_overlay.Ldb
module Sync = Dpq_simrt.Sync_engine
module Async = Dpq_simrt.Async_engine
module Phase = Dpq_aggtree.Phase
module Element = Dpq_util.Element
module Bitsize = Dpq_util.Bitsize

type t = {
  mutable ldb : Ldb.t;
  mutable header_bits : int; (* routing header for the current n, cached *)
  hash : Dpq_util.Hashing.t;
  k : int; (* replication degree; 1 = no replication *)
  (* Replica r's copy of the key space: replica 0 is the primary copy every
     rendezvous decision is made on; copies r >= 1 are maintained by the
     primary with P_bset/P_brm/P_bpark/P_bunpark messages and only read by
     anti-entropy repair. *)
  stores : (int, Element.t Queue.t) Hashtbl.t array; (* key -> stored elements *)
  parkeds : (int, int Queue.t) Hashtbl.t array; (* key -> waiting requesters *)
  (* Transient tombstones: a backup removal that overtook its matching
     insertion (routes differ, so ordering across messages is arbitrary).
     Provably empty whenever a batch has quiesced. *)
  neg_elts : (int, Element.t list ref) Hashtbl.t array;
  neg_parks : (int, int list ref) Hashtbl.t array;
}

let compute_header_bits ldb =
  (* target point (≈ 2 log n bits at the needed resolution) + hop counter *)
  let n = max 2 (Ldb.n ldb) in
  (2 * Bitsize.log2_ceil n) + Bitsize.log2_ceil n

let create ?(k = 1) ~ldb ~seed () =
  if k < 1 then invalid_arg "Dht.create: replication degree must be >= 1";
  {
    ldb;
    header_bits = compute_header_bits ldb;
    hash = Dpq_util.Hashing.create ~seed;
    k;
    stores = Array.init k (fun _ -> Hashtbl.create 64);
    parkeds = Array.init k (fun _ -> Hashtbl.create 16);
    neg_elts = Array.init k (fun _ -> Hashtbl.create 4);
    neg_parks = Array.init k (fun _ -> Hashtbl.create 4);
  }

let ldb t = t.ldb
let replication t = t.k
let key_point t k = Dpq_util.Hashing.to_unit_interval t.hash k

(* Successor points: replica r of a key starts at h(x) + r/k (mod 1), then
   walks forward one managed arc at a time past every node that already
   holds a lower replica of the same key.  The walk is what makes the
   guarantee "any k - 1 copies of a key can be lost" literal rather than
   probabilistic: a real node's three virtual arcs are scattered around the
   circle, so with fixed offsets alone all k points can land on arcs of ONE
   node — a single kill then destroys every copy and anti-entropy has
   nothing left to pull from (seen in the wild at n = 5, k = 3).  Placement
   is recomputed against the current overlay on every use, so copies
   re-spread automatically after a kill re-homes the circle.  Replica 0 is
   exactly the unreplicated placement, so k = 1 runs are bit-identical to
   the historical behavior.  [replica_points t r key] places replicas
   0..r in order, each walk checking the owners of the ones before it. *)
let replica_points t r key =
  let owner_at p = Ldb.owner (Ldb.manager_of_point t.ldb p) in
  let points = Array.make (r + 1) (key_point t key) in
  let owners = Array.make (r + 1) (owner_at points.(0)) in
  for r' = 1 to r do
    let p = points.(0) +. (float_of_int r' /. float_of_int t.k) in
    let p = if p >= 1.0 then p -. 1.0 else p in
    let used o =
      let rec scan j = j < r' && (owners.(j) = o || scan (j + 1)) in
      scan 0
    in
    (* Cap the walk at one full lap: with fewer live nodes than replicas a
       fresh owner does not exist, and the base point is the honest answer. *)
    let rec walk p steps =
      let m = Ldb.manager_of_point t.ldb p in
      if steps > 3 * Ldb.n t.ldb || not (used (Ldb.owner m)) then p
      else walk (Ldb.label t.ldb (Ldb.succ t.ldb m)) (steps + 1)
    in
    points.(r') <- walk p 0;
    owners.(r') <- owner_at points.(r')
  done;
  points

let replica_point t r key = (replica_points t r key).(r)
let manager_of_key t k = Ldb.manager_of_point t.ldb (key_point t k)
let replica_owner t r key = Ldb.owner (Ldb.manager_of_point t.ldb (replica_point t r key))

type op =
  | Put of { origin : int; key : int; elt : Element.t; confirm : bool }
  | Get of { origin : int; key : int }

type completion =
  | Put_confirmed of { origin : int; key : int }
  | Got of { origin : int; key : int; elt : Element.t }

(* In-flight wire format: an immediate integer [(rid lsl 16) lor idx]
   naming a route in the batch's route table and the hop position of the
   message's current holder on that route's vnode path.  The modelled wire
   cost is the O(log n)-bit target point + hop counter of de Bruijn routing
   (a fixed routing header) plus the payload's encoded size, computed once
   at launch; the table keeps both.  Forwarding a hop is then [w + 1] — no
   allocation at all on the per-hop fast path, which carries ~99% of a
   priority-queue run's messages. *)
type payload =
  | P_put of { origin : int; key : int; elt : Element.t; confirm : bool }
  | P_get of { origin : int; key : int }
  | P_reply of { origin : int; key : int; elt : Element.t }
  | P_confirm of { origin : int; key : int }
  (* Primary -> backup replica maintenance (never sent when k = 1). *)
  | P_bset of { key : int; elt : Element.t; r : int }
  | P_brm of { key : int; elt : Element.t; r : int }
  | P_bpark of { key : int; origin : int; r : int }
  | P_bunpark of { key : int; origin : int; r : int }

type batch = {
  mutable bpaths : Ldb.vnode array array; (* rid -> visited-vnode path *)
  mutable bpbits : int array; (* rid -> payload bits *)
  mutable bpay : payload array; (* rid -> payload *)
  mutable nroutes : int;
  brt : Route_table.t; (* per-batch route memo: reply/replica paths repeat *)
}

let dummy_payload = P_confirm { origin = 0; key = 0 }

let batch_create ~ldb () =
  {
    bpaths = Array.make 64 [||];
    bpbits = Array.make 64 0;
    bpay = Array.make 64 dummy_payload;
    nroutes = 0;
    brt = Route_table.create ldb;
  }

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let batch_add b path pbits payload =
  if Array.length path > 0x10000 then invalid_arg "Dht: route too long for the wire encoding";
  if b.nroutes = Array.length b.bpaths then begin
    b.bpaths <- grow b.bpaths [||];
    b.bpbits <- grow b.bpbits 0;
    b.bpay <- grow b.bpay dummy_payload
  end;
  let rid = b.nroutes in
  b.bpaths.(rid) <- path;
  b.bpbits.(rid) <- pbits;
  b.bpay.(rid) <- payload;
  b.nroutes <- rid + 1;
  rid

let payload_bits t = function
  | P_put p -> Bitsize.bits_of_int p.origin + Bitsize.bits_of_int p.key + Element.encoded_bits p.elt + 1
  | P_get g -> Bitsize.bits_of_int g.origin + Bitsize.bits_of_int g.key
  | P_reply r -> Bitsize.bits_of_int r.origin + Bitsize.bits_of_int r.key + Element.encoded_bits r.elt
  | P_confirm c -> Bitsize.bits_of_int c.origin + Bitsize.bits_of_int c.key
  | P_bset p -> Bitsize.bits_of_int p.key + Element.encoded_bits p.elt + Bitsize.bits_of_int p.r
  | P_brm p -> Bitsize.bits_of_int p.key + Element.encoded_bits p.elt + Bitsize.bits_of_int p.r
  | P_bpark p -> Bitsize.bits_of_int p.key + Bitsize.bits_of_int p.origin + Bitsize.bits_of_int p.r
  | P_bunpark p ->
      Bitsize.bits_of_int p.key + Bitsize.bits_of_int p.origin + Bitsize.bits_of_int p.r
  [@@warning "-27"]

let size_bits t b w = t.header_bits + b.bpbits.(w lsr 16)

(* ------------------------------------------------- per-replica table ops *)

let tbl_push tbl key v =
  let q =
    match Hashtbl.find_opt tbl key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tbl key q;
        q
  in
  Queue.push v q

let tbl_pop tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> None
  | Some q ->
      if Queue.is_empty q then None
      else
        let e = Queue.pop q in
        if Queue.is_empty q then Hashtbl.remove tbl key;
        Some e

(* Remove the first entry of [key]'s queue satisfying [eq]; false if none. *)
let tbl_remove tbl key eq =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some q ->
      let keep = Queue.create () in
      let found = ref false in
      Queue.iter
        (fun v -> if (not !found) && eq v then found := true else Queue.push v keep)
        q;
      if !found then
        if Queue.is_empty keep then Hashtbl.remove tbl key else Hashtbl.replace tbl key keep;
      !found

let neg_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace tbl key (ref [ v ])

(* Cancel one tombstone matching [eq]; false if none. *)
let neg_cancel tbl key eq =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some l -> (
      let rec take acc = function
        | [] -> None
        | v :: rest when eq v -> Some (List.rev_append acc rest)
        | v :: rest -> take (v :: acc) rest
      in
      match take [] !l with
      | None -> false
      | Some rest ->
          if rest = [] then Hashtbl.remove tbl key else l := rest;
          true)

let store_push t key elt = tbl_push t.stores.(0) key elt
let store_pop t key = tbl_pop t.stores.(0) key
let park t key requester = tbl_push t.parkeds.(0) key requester
let unpark t key = tbl_pop t.parkeds.(0) key

(* Backup apply: a set/park whose removal already arrived cancels against
   the tombstone instead of landing. *)
let backup_set t r key elt =
  if not (neg_cancel t.neg_elts.(r) key (Element.equal elt)) then tbl_push t.stores.(r) key elt

let backup_rm t r key elt =
  if not (tbl_remove t.stores.(r) key (Element.equal elt)) then neg_add t.neg_elts.(r) key elt

let backup_park t r key origin =
  if not (neg_cancel t.neg_parks.(r) key (Int.equal origin)) then
    tbl_push t.parkeds.(r) key origin

let backup_unpark t r key origin =
  if not (tbl_remove t.parkeds.(r) key (Int.equal origin)) then
    neg_add t.neg_parks.(r) key origin

(* ------------------------------------------------------------- routing *)

(* Route a payload from [src_vnode] to the manager of [point].  [send]
   abstracts over the engine. *)
let route_via t b ~send ~src_vnode ~point payload =
  let path = Route_table.path b.brt ~src:src_vnode ~point in
  let pbits = payload_bits t payload in
  let rid = batch_add b path pbits payload in
  if Array.length path <= 1 then
    (* Already at the manager: local handling via a self-send. *)
    send ~src:(Ldb.owner src_vnode) ~dst:(Ldb.owner src_vnode) (rid lsl 16)
  else send ~src:(Ldb.owner path.(0)) ~dst:(Ldb.owner path.(1)) ((rid lsl 16) lor 1)

let reply_point t origin = Ldb.label t.ldb (Ldb.vnode ~owner:origin Ldb.Middle)

(* Primary-side replica maintenance fan-out (no-ops at k = 1). *)
let backups_send t b ~send ~src_vnode ~key mk =
  if t.k > 1 then begin
    let points = replica_points t (t.k - 1) key in
    for r = 1 to t.k - 1 do
      route_via t b ~send ~src_vnode ~point:points.(r) (mk r)
    done
  end

(* Engine-agnostic message handler.  [send] enqueues a message; [complete]
   records a finished operation. *)
let handle t b ~send ~complete w =
  let rid = w lsr 16 in
  let idx = w land 0xffff in
  let path = b.bpaths.(rid) in
  let last = Array.length path - 1 in
  if idx < last then
    (* Still in transit: forward one hop. *)
    send ~src:(Ldb.owner path.(idx)) ~dst:(Ldb.owner path.(idx + 1)) (w + 1)
  else begin
    if last < 0 then failwith "Dht: empty routing path";
    let final = path.(last) in
    match b.bpay.(rid) with
    | P_put { origin; key; elt; confirm } ->
        (match unpark t key with
        | Some requester ->
            (* A Get was already waiting: rendezvous complete. *)
            backups_send t b ~send ~src_vnode:final ~key (fun r ->
                P_bunpark { key; origin = requester; r });
            route_via t b ~send ~src_vnode:final ~point:(reply_point t requester)
              (P_reply { origin = requester; key; elt })
        | None ->
            store_push t key elt;
            backups_send t b ~send ~src_vnode:final ~key (fun r -> P_bset { key; elt; r }));
        if confirm then
          route_via t b ~send ~src_vnode:final ~point:(reply_point t origin)
            (P_confirm { origin; key })
    | P_get { origin; key } -> (
        match store_pop t key with
        | Some elt ->
            backups_send t b ~send ~src_vnode:final ~key (fun r -> P_brm { key; elt; r });
            route_via t b ~send ~src_vnode:final ~point:(reply_point t origin)
              (P_reply { origin; key; elt })
        | None ->
            park t key origin;
            backups_send t b ~send ~src_vnode:final ~key (fun r -> P_bpark { key; origin; r }))
    | P_reply { origin; key; elt } -> complete (Got { origin; key; elt })
    | P_confirm { origin; key } -> complete (Put_confirmed { origin; key })
    | P_bset { key; elt; r } -> backup_set t r key elt
    | P_brm { key; elt; r } -> backup_rm t r key elt
    | P_bpark { key; origin; r } -> backup_park t r key origin
    | P_bunpark { key; origin; r } -> backup_unpark t r key origin
  end

let launch t b ~send op =
  match op with
  | Put { origin; key; elt; confirm } ->
      route_via t b ~send ~src_vnode:(Ldb.vnode ~owner:origin Ldb.Middle)
        ~point:(key_point t key)
        (P_put { origin; key; elt; confirm })
  | Get { origin; key } ->
      route_via t b ~send ~src_vnode:(Ldb.vnode ~owner:origin Ldb.Middle)
        ~point:(key_point t key)
        (P_get { origin; key })

(* One trace event per launched operation, tagged with the manager node the
   key rendezvouses at. *)
let trace_ops trace t ops =
  match trace with
  | None -> ()
  | Some _ ->
      List.iter
        (fun op ->
          match op with
          | Put { origin; key; _ } ->
              Dpq_obs.Trace.dht_put trace ~origin ~key ~manager:(Ldb.owner (manager_of_key t key))
          | Get { origin; key } ->
              Dpq_obs.Trace.dht_get trace ~origin ~key ~manager:(Ldb.owner (manager_of_key t key)))
        ops

let run_batch_sync ?trace ?faults ?sched t ops =
  let span = Dpq_obs.Trace.phase_start trace "dht" in
  trace_ops trace t ops;
  let completions = ref [] in
  let complete c = completions := c :: !completions in
  let b = batch_create ~ldb:t.ldb () in
  (* One [send] closure for the whole batch (routed through a ref to break
     the engine/handler cycle): the old per-delivery lambda was a
     measurable allocation on every forwarded hop. *)
  let send_ref = ref (fun ~src:_ ~dst:_ _ -> assert false) in
  let send ~src ~dst m = !send_ref ~src ~dst m in
  let handler _eng ~dst:_ ~src:_ w = handle t b ~send ~complete w in
  let eng = Sync.create ~n:(Ldb.n t.ldb) ~size_bits:(size_bits t b) ~handler ?trace ?faults ?sched () in
  send_ref := (fun ~src ~dst m -> Sync.send eng ~src ~dst m);
  List.iter (fun op -> launch t b ~send op) ops;
  let rounds = Sync.run_to_quiescence eng in
  let report = Phase.report_of_metrics (Sync.metrics eng) rounds in
  Phase.trace_phase_end trace span "dht" report;
  (List.rev !completions, report)

let run_batch_async ?trace ?faults ?sched t ~seed ?(policy = Dpq_simrt.Async_engine.Uniform (1.0, 10.0)) ops =
  (* The asynchronous model reports no synchronous cost, so the span closes
     with zeros even though delivery events are traced inside it. *)
  let span = Dpq_obs.Trace.phase_start trace "dht-async" in
  trace_ops trace t ops;
  let completions = ref [] in
  let complete c = completions := c :: !completions in
  let b = batch_create ~ldb:t.ldb () in
  let send_ref = ref (fun ~src:_ ~dst:_ _ -> assert false) in
  let send ~src ~dst m = !send_ref ~src ~dst m in
  let handler _eng ~dst:_ ~src:_ w = handle t b ~send ~complete w in
  let eng = Async.create ~n:(Ldb.n t.ldb) ~seed ~policy ?trace ?faults ?sched ~size_bits:(size_bits t b) ~handler () in
  send_ref := (fun ~src ~dst m -> Async.send eng ~src ~dst m);
  List.iter (fun op -> launch t b ~send op) ops;
  ignore (Async.run_to_quiescence eng);
  Phase.trace_phase_end trace span "dht-async" Phase.empty_report;
  List.rev !completions

let set_topology t ldb' =
  (* Count the elements (and parked requests) whose manager moved to a
     different real node: the data that a join/leave hands off. *)
  let moved = ref 0 in
  let owner_of ldb key = Ldb.owner (Ldb.manager_of_point ldb (key_point t key)) in
  Hashtbl.iter
    (fun key q -> if owner_of t.ldb key <> owner_of ldb' key then moved := !moved + Queue.length q)
    t.stores.(0);
  Hashtbl.iter
    (fun key q -> if owner_of t.ldb key <> owner_of ldb' key then moved := !moved + Queue.length q)
    t.parkeds.(0);
  t.ldb <- ldb';
  t.header_bits <- compute_header_bits ldb';
  !moved

let stored_counts t =
  let counts = Array.make (Ldb.n t.ldb) 0 in
  Hashtbl.iter
    (fun key q ->
      let owner = Ldb.owner (manager_of_key t key) in
      counts.(owner) <- counts.(owner) + Queue.length q)
    t.stores.(0);
  counts

let size t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.stores.(0) 0
let pending_gets t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.parkeds.(0) 0

let stored_elements t =
  Hashtbl.fold (fun _ q acc -> List.rev_append (List.of_seq (Queue.to_seq q)) acc) t.stores.(0) []

(* One pass over the primary store, bucketed by owner: O(m + n) per call
   instead of a scan of all m keys for each of the n nodes.  Each node's
   list comes out exactly as a per-node [Hashtbl.fold] built it (the
   table's iteration order, each queue reversed onto the accumulator) —
   KSelect's Bernoulli draws walk these lists in order. *)
let elements_by_node t =
  let by_node = Array.make (Ldb.n t.ldb) [] in
  Hashtbl.iter
    (fun key q ->
      let owner = Ldb.owner (manager_of_key t key) in
      by_node.(owner) <- Queue.fold (fun acc e -> e :: acc) by_node.(owner) q)
    t.stores.(0);
  by_node

let take_matching_by_node t ~f =
  let taken = Array.make (Ldb.n t.ldb) [] in
  let updates = ref [] in
  Hashtbl.iter
    (fun key q ->
      (* Most keys hold nothing to take: test first, allocate only on a hit. *)
      if Queue.fold (fun hit e -> hit || f e) false q then begin
        let keep = Queue.create () in
        let mine = ref [] in
        Queue.iter (fun e -> if f e then mine := e :: !mine else Queue.push e keep) q;
        let owner = Ldb.owner (manager_of_key t key) in
        taken.(owner) <- List.rev_append !mine taken.(owner);
        updates := (key, keep, !mine) :: !updates
      end)
    t.stores.(0);
  List.iter
    (fun (key, keep, removed) ->
      if Queue.is_empty keep then Hashtbl.remove t.stores.(0) key
      else Hashtbl.replace t.stores.(0) key keep;
      (* Replica copies drop the same identities, key by key; modelled as
         free local bookkeeping, like the take itself (Seap charges this
         phase's traffic elsewhere). *)
      for r = 1 to t.k - 1 do
        List.iter (fun e -> ignore (tbl_remove t.stores.(r) key (Element.equal e))) removed
      done)
    !updates;
  taken

(* ===================================================== anti-entropy repair

   Replica copies diverge only one way: a copy can MISS entries (its range
   was stored on a node that died, or a planted test divergence), never
   hold stale extras — removals are only issued by a primary that owns the
   entry, and tombstones absorb message races within a batch.  Union-merge
   is therefore the correct reconciliation, and one directed pull per
   replica pair suffices.

   The protocol is modeled on Scalaris's rr_recon: for every ordered
   replica pair (r_to pulls from r_from) and every pair of live nodes
   (w = the node owning the damaged range at r_to, v = the node owning the
   same keys at r_from), a session reconciles the two key sets with a
   compressed Merkle exchange.  Keys are placed in a binary hash trie over
   the top [max_depth] bits of a per-key integer hash u(x); a node's
   signature is the XOR over its keys of mix(u(x), content-sig(x)), which
   both sides compute from a sorted (u, sig) array with prefix-XOR range
   queries — no materialized tree.  w sends its frontier signatures
   top-down; v prunes equal subtrees, ships the entries of differing
   leaf-sized ranges, and asks w to descend otherwise.  Signatures travel
   truncated to 32 bits (Scalaris's trade-off: a collision only delays
   convergence by one repair pass).  Traffic is O(δ log m) for δ differing
   entries among m: one signature pair per differing node per level. *)

type repair_stats = {
  sessions : int;
  keys_pulled : int;
  elements_shipped : int;
  repair_messages : int;
  repair_bits : int;
}

let zero_repair_stats =
  { sessions = 0; keys_pulled = 0; elements_shipped = 0; repair_messages = 0; repair_bits = 0 }

(* Trie depth: u(x) keeps the top 52 bits of the key hash so shifted
   interval bounds stay well inside OCaml's 63-bit ints. *)
let max_depth = 52
let bucket_max = 4
let sig_bits = 32
let sig_mask = (1 lsl sig_bits) - 1

let key_u t key = Dpq_util.Hashing.int t.hash (key lxor 0x5bd1e995) land ((1 lsl max_depth) - 1)

(* Content signature of one key's replica copy: order-independent in the
   stored multiset (identities are unique), order-dependent in nothing. *)
let content_sig t elts parked =
  let h e =
    Dpq_util.Hashing.int t.hash
      (Dpq_util.Hashing.pair t.hash e.Element.prio (Dpq_util.Hashing.pair t.hash e.Element.origin e.Element.seq))
  in
  let acc = List.fold_left (fun acc e -> acc lxor h e) 0 elts in
  List.fold_left (fun acc o -> acc lxor Dpq_util.Hashing.int t.hash (o lxor 0x27d4eb2f)) acc parked
  land sig_mask

(* One side of a session: keys sorted by u, with per-key signatures, a
   prefix-XOR array for O(log) node signatures, and the full entries for
   shipping. *)
type side = {
  us : int array;
  skeys : int array;
  entries : (Element.t list * int list) array; (* elements, parked origins *)
  xor_pfx : int array; (* xor_pfx.(i) = xor of mix(u, sig) over [0, i) *)
}

let side_of_keys t r keys =
  let items =
    List.map
      (fun key ->
        let elts =
          match Hashtbl.find_opt t.stores.(r) key with
          | Some q -> List.of_seq (Queue.to_seq q)
          | None -> []
        in
        let parked =
          match Hashtbl.find_opt t.parkeds.(r) key with
          | Some q -> List.of_seq (Queue.to_seq q)
          | None -> []
        in
        (key_u t key, key, (elts, parked)))
      keys
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let n = List.length items in
  let us = Array.make n 0 and skeys = Array.make n 0 in
  let entries = Array.make n ([], []) in
  List.iteri
    (fun i (u, key, e) ->
      us.(i) <- u;
      skeys.(i) <- key;
      entries.(i) <- e)
    items;
  let xor_pfx = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let elts, parked = entries.(i) in
    let mix = Dpq_util.Hashing.pair t.hash us.(i) (content_sig t elts parked) in
    xor_pfx.(i + 1) <- xor_pfx.(i) lxor (mix land sig_mask)
  done;
  { us; skeys; entries; xor_pfx }

(* Index range [lo, hi) of u values under trie node (depth, prefix). *)
let side_range side ~depth ~prefix =
  let width = max_depth - depth in
  let lo_u = prefix lsl width in
  let hi_u = (prefix + 1) lsl width in
  let bsearch target =
    let lo = ref 0 and hi = ref (Array.length side.us) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if side.us.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (bsearch lo_u, bsearch hi_u)

let side_sig side ~lo ~hi = side.xor_pfx.(hi) lxor side.xor_pfx.(lo)

type rnode = { rdepth : int; rprefix : int; rsig : int; rleaf : bool }

type rmsg =
  | R_sigs of { sid : int; nodes : rnode list }
  | R_reply of {
      sid : int;
      descend : (int * int) list; (* (depth, prefix) pairs w should expand *)
      ship : (int * Element.t list * int list) list; (* key, elements, parked *)
    }

type session = {
  sid : int;
  sw : int; (* puller node *)
  sv : int; (* offerer node *)
  s_r_to : int;
  w_side : side;
  v_side : side;
  mutable outstanding : int;
  mutable s_keys_pulled : int;
  mutable s_elements_shipped : int;
  mutable s_done : bool;
      (* completion latch: co-located sessions deliver self-messages inline,
         so an outer R_reply frame can observe outstanding = 0 again after a
         nested frame already completed the session *)
}

let sid_bits = 16

let rmsg_bits = function
  | R_sigs { nodes; _ } ->
      List.fold_left (fun acc n -> acc + 6 + n.rdepth + sig_bits + 1) sid_bits nodes
  | R_reply { descend; ship; _ } ->
      let d = List.fold_left (fun acc (depth, _) -> acc + 6 + depth) 0 descend in
      List.fold_left
        (fun acc (key, elts, parked) ->
          acc + Bitsize.bits_of_int key
          + List.fold_left (fun a e -> a + Element.encoded_bits e) 0 elts
          + List.fold_left (fun a o -> a + Bitsize.bits_of_int o) 0 parked)
        (sid_bits + d) ship

let wnode_of w_side ~depth ~prefix =
  let lo, hi = side_range w_side ~depth ~prefix in
  {
    rdepth = depth;
    rprefix = prefix;
    rsig = side_sig w_side ~lo ~hi;
    rleaf = hi - lo <= bucket_max || depth >= max_depth;
  }

(* Merge entries shipped by the offerer into replica [r_to]'s copy: add
   elements missing by identity and parked requesters missing by count —
   strictly additive, per the one-sided divergence invariant. *)
let merge_shipped t s ship =
  List.iter
    (fun (key, elts, parked) ->
      let changed = ref false in
      let have_elts =
        match Hashtbl.find_opt t.stores.(s.s_r_to) key with
        | Some q -> List.of_seq (Queue.to_seq q)
        | None -> []
      in
      List.iter
        (fun e ->
          if not (List.exists (Element.equal e) have_elts) then begin
            tbl_push t.stores.(s.s_r_to) key e;
            changed := true;
            s.s_elements_shipped <- s.s_elements_shipped + 1
          end)
        elts;
      let have_parked =
        match Hashtbl.find_opt t.parkeds.(s.s_r_to) key with
        | Some q -> List.of_seq (Queue.to_seq q)
        | None -> []
      in
      let count x l = List.length (List.filter (Int.equal x) l) in
      List.sort_uniq Int.compare parked
      |> List.iter (fun o ->
             for _ = 1 to count o parked - count o have_parked do
               tbl_push t.parkeds.(s.s_r_to) key o;
               changed := true
             done);
      if !changed then s.s_keys_pulled <- s.s_keys_pulled + 1)
    ship

(* Run one directed reconciliation round: every replica pulls what it is
   missing from replica (r + stride) mod k.  All sessions share one
   synchronous engine; messages between co-located replicas are free local
   deliveries. *)
let repair_round ?trace t ~stride ~on_session =
  let live =
    List.filter (fun id -> Ldb.is_present t.ldb ~id) (List.init (Ldb.n t.ldb) Fun.id)
  in
  let sessions = Hashtbl.create 32 in
  let next_sid = ref 0 in
  (* Partition each replica's keys by (owner at r_to, owner at r_from). *)
  let keys_of r =
    let ks = Hashtbl.create 64 in
    Hashtbl.iter (fun key _ -> Hashtbl.replace ks key ()) t.stores.(r);
    Hashtbl.iter (fun key _ -> Hashtbl.replace ks key ()) t.parkeds.(r);
    Hashtbl.fold (fun key () acc -> key :: acc) ks [] |> List.sort Int.compare
  in
  let session_lists = Hashtbl.create 64 in
  (* (w, v, r_to) -> (w_keys ref, v_keys ref) *)
  let bucket w v r_to =
    match Hashtbl.find_opt session_lists (w, v, r_to) with
    | Some b -> b
    | None ->
        let b = (ref [], ref []) in
        Hashtbl.replace session_lists (w, v, r_to) b;
        b
  in
  for r_to = 0 to t.k - 1 do
    let r_from = (r_to + stride) mod t.k in
    List.iter
      (fun key ->
        let w = replica_owner t r_to key and v = replica_owner t r_from key in
        let wl, _ = bucket w v r_to in
        wl := key :: !wl)
      (keys_of r_to);
    List.iter
      (fun key ->
        let w = replica_owner t r_to key and v = replica_owner t r_from key in
        let _, vl = bucket w v r_to in
        vl := key :: !vl)
      (keys_of r_from)
  done;
  let send_ref = ref (fun ~src:_ ~dst:_ (_ : rmsg) -> assert false) in
  let send ~src ~dst m = !send_ref ~src ~dst m in
  let handler _eng ~dst:_ ~src:_ msg =
    match msg with
    | R_sigs { sid; nodes } ->
        (* Offerer side: prune equal subtrees, ship leaf-sized diffs, ask
           for a descent otherwise. *)
        let s = Hashtbl.find sessions sid in
        let descend = ref [] and ship = ref [] in
        List.iter
          (fun wn ->
            let lo, hi = side_range s.v_side ~depth:wn.rdepth ~prefix:wn.rprefix in
            let vsig = side_sig s.v_side ~lo ~hi in
            if vsig <> wn.rsig then
              if wn.rleaf || hi - lo <= bucket_max || wn.rdepth >= max_depth then begin
                for i = lo to hi - 1 do
                  let elts, parked = s.v_side.entries.(i) in
                  ship := (s.v_side.skeys.(i), elts, parked) :: !ship
                done
              end
              else descend := (wn.rdepth, wn.rprefix) :: !descend)
          nodes;
        send ~src:s.sv ~dst:s.sw (R_reply { sid; descend = List.rev !descend; ship = List.rev !ship })
    | R_reply { sid; descend; ship } ->
        let s = Hashtbl.find sessions sid in
        s.outstanding <- s.outstanding - 1;
        merge_shipped t s ship;
        let children =
          List.concat_map
            (fun (depth, prefix) ->
              [
                wnode_of s.w_side ~depth:(depth + 1) ~prefix:(2 * prefix);
                wnode_of s.w_side ~depth:(depth + 1) ~prefix:((2 * prefix) + 1);
              ])
            descend
        in
        if children <> [] then begin
          s.outstanding <- s.outstanding + 1;
          send ~src:s.sw ~dst:s.sv (R_sigs { sid; nodes = children })
        end;
        if s.outstanding = 0 && not s.s_done then begin
          s.s_done <- true;
          on_session s
        end
  in
  let eng =
    Sync.create ~n:(Ldb.n t.ldb) ~size_bits:rmsg_bits ~handler ?trace ()
  in
  send_ref := (fun ~src ~dst m -> Sync.send eng ~src ~dst m);
  (* Kick off every non-trivial session with the puller's root signature. *)
  Hashtbl.fold (fun key b acc -> (key, b) :: acc) session_lists []
  |> List.sort compare
  |> List.iter (fun ((w, v, r_to), (wl, vl)) ->
         if (!wl <> [] || !vl <> []) && List.mem w live && List.mem v live then begin
           let sid = !next_sid in
           incr next_sid;
           let s =
             {
               sid;
               sw = w;
               sv = v;
               s_r_to = r_to;
               w_side = side_of_keys t r_to !wl;
               v_side = side_of_keys t ((r_to + stride) mod t.k) !vl;
               outstanding = 1;
               s_keys_pulled = 0;
               s_elements_shipped = 0;
               s_done = false;
             }
           in
           Hashtbl.replace sessions sid s;
           send ~src:w ~dst:v (R_sigs { sid; nodes = [ wnode_of s.w_side ~depth:0 ~prefix:0 ] })
         end);
  let rounds = Sync.run_to_quiescence eng in
  let m = Sync.metrics eng in
  (!next_sid, rounds, Dpq_simrt.Metrics.total_messages m, Dpq_simrt.Metrics.total_bits m)

let repair ?trace t =
  if t.k = 1 then zero_repair_stats
  else begin
    let span = Dpq_obs.Trace.phase_start trace "repair" in
    let keys_pulled = ref 0 and elements_shipped = ref 0 in
    let sessions = ref 0 and messages = ref 0 and bits = ref 0 and rounds = ref 0 in
    let on_session s =
      if s.s_keys_pulled > 0 then begin
        keys_pulled := !keys_pulled + s.s_keys_pulled;
        elements_shipped := !elements_shipped + s.s_elements_shipped;
        Dpq_obs.Trace.repair_session trace ~src:s.sv ~dst:s.sw ~keys_pulled:s.s_keys_pulled
          ~elements_shipped:s.s_elements_shipped
      end
    in
    (* k - 1 directed strides propagate the union to every replica even
       when several copies of the same key were damaged. *)
    for stride = 1 to t.k - 1 do
      let ns, r, m, b = repair_round ?trace t ~stride ~on_session in
      sessions := !sessions + ns;
      rounds := !rounds + r;
      messages := !messages + m;
      bits := !bits + b
    done;
    Dpq_obs.Trace.repair_end trace ~sessions:!sessions ~keys_pulled:!keys_pulled
      ~elements_shipped:!elements_shipped;
    Dpq_obs.Trace.phase_end trace ~span ~name:"repair" ~rounds:!rounds ~messages:!messages
      ~max_congestion:0 ~max_message_bits:0 ~total_bits:!bits;
    {
      sessions = !sessions;
      keys_pulled = !keys_pulled;
      elements_shipped = !elements_shipped;
      repair_messages = !messages;
      repair_bits = !bits;
    }
  end

(* ------------------------------------------------------- permanent loss *)

type kill_report = { destroyed : int; repair : repair_stats }

let drop_replica_entries t ~r ~f =
  if r < 0 || r >= t.k then invalid_arg "Dht.drop_replica_entries: replica out of range";
  let dropped = ref 0 in
  let doomed tbl =
    Hashtbl.fold (fun key q acc -> if f ~key then (key, Queue.length q) :: acc else acc) tbl []
  in
  List.iter
    (fun (key, len) ->
      Hashtbl.remove t.stores.(r) key;
      dropped := !dropped + len)
    (doomed t.stores.(r));
  List.iter
    (fun (key, len) ->
      Hashtbl.remove t.parkeds.(r) key;
      dropped := !dropped + len)
    (doomed t.parkeds.(r));
  !dropped

let kill_node ?trace t ~node =
  if not (Ldb.is_present t.ldb ~id:node) then invalid_arg "Dht.kill_node: node already gone";
  (* 1. Destroy every replica copy the dead node stored (computed on the
     old overlay, where it still owns its ranges). *)
  let destroyed = ref 0 in
  for r = 0 to t.k - 1 do
    destroyed :=
      !destroyed + drop_replica_entries t ~r ~f:(fun ~key -> replica_owner t r key = node)
  done;
  (* 2. Re-home its key-range: survivors' cycle positions absorb it. *)
  t.ldb <- Ldb.remove t.ldb ~id:node;
  t.header_bits <- compute_header_bits t.ldb;
  Dpq_obs.Trace.repair_start trace ~node ~reason:"kill" ~entries_lost:!destroyed;
  (* 3. Anti-entropy repair rebuilds the lost copies from the survivors. *)
  let stats = repair ?trace t in
  { destroyed = !destroyed; repair = stats }
