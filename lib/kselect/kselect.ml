module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Bitsize = Dpq_util.Bitsize
module Hashing = Dpq_util.Hashing
module Rng = Dpq_util.Rng
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Sync = Dpq_simrt.Sync_engine
module Metrics = Dpq_simrt.Metrics

type diagnostics = {
  initial_candidates : int;
  phase1_iterations : int;
  phase1_skipped : bool;
  phase1_candidates : int list;
  phase2_candidates : int list;
  phase2_rep_counts : int list;
  mean_trees_per_node : float;
  phase3_candidates : int;
}

type impl = [ `Aggregated | `Pairwise ]

type result = {
  element : Element.t;
  report : Phase.report;
  diagnostics : diagnostics;
}

(* Test-only: corrupt the first vote of every multi-item aggregated message
   (smaller/larger swapped) — a planted wrong-aggregation bug the
   differential test layer must catch.  Never set outside tests. *)
let unsafe_misaggregate_votes = ref false

let select_seq elements ~k =
  let sorted = List.sort Element.compare elements in
  if k < 1 || k > List.length sorted then
    invalid_arg (Printf.sprintf "Kselect.select_seq: k=%d outside [1,%d]" k (List.length sorted));
  List.nth sorted (k - 1)

let kth_statistics elements ~k =
  let e = select_seq elements ~k in
  let below = List.length (List.filter (fun x -> Element.compare x e < 0) elements) in
  let above = List.length (List.filter (fun x -> Element.compare x e > 0) elements) in
  (e, below, above)

(* ------------------------------------------------------------------------ *)
(* The distributed sorting stage (Algorithm 3, Phase 2b).                    *)
(* ------------------------------------------------------------------------ *)

type spayload =
  | Disseminate of {
      i : int;  (** which representative / copy tree *)
      a : int;
      b : int;  (** interval of copy indices this subtree is responsible for *)
      x : int;  (** emulated de Bruijn bitstring (-1: derive at the root) *)
      point : float;  (** the point this tree node is addressed by *)
      parent_point : float;  (** -1.0 for the root *)
      parent_mid : int;
      elt : Element.t;
    }
  | Rendezvous of { i : int; j : int; elt : Element.t; return_point : float }
  | Vote of { i : int; j : int; smaller : int; larger : int }
  | Child_sum of { i : int; parent_mid : int; smaller : int; larger : int }

(* [pbits] caches [spayload_bits] of [payload], computed once when the
   message is launched: the engine charges [size_bits] on every hop, and
   re-walking the payload's bit-length per delivery was a measurable slice
   of the sorting storm. *)
type smsg = { path : Ldb.vnode list; pbits : int; payload : spayload }

type tnode = {
  t_i : int;
  t_mid : int;
  t_elt : Element.t;
  t_vnode : Ldb.vnode;
  t_point : float;
  t_parent_point : float;
  t_parent_mid : int;
  t_expected_children : int;
  mutable t_smaller : int;
  mutable t_larger : int;
  mutable t_has_own_vote : bool;
  mutable t_child_sums : int;
  mutable t_done : bool;
}

(* The billed bit-length of each payload kind, shared by both stages:
   [point_bits] is charged for every point field of the pairwise payload. *)
let disseminate_bits ~point_bits ~i ~a ~b ~x ~parent_mid ~elt =
  Bitsize.bits_of_int i + Bitsize.bits_of_int a + Bitsize.bits_of_int b
  + Bitsize.bits_of_int (abs x) + (2 * point_bits) + Bitsize.bits_of_int (abs parent_mid)
  + Element.encoded_bits elt

let rendezvous_bits ~point_bits ~i ~j ~elt =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + Element.encoded_bits elt + point_bits

let vote_bits ~i ~j ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + smaller + larger + 2

let child_sum_bits ~i ~parent_mid ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int parent_mid + Bitsize.bits_of_int smaller
  + Bitsize.bits_of_int larger

let spayload_bits ldb p =
  let point_bits = 2 * Bitsize.log2_ceil (max 2 (Ldb.n ldb)) in
  match p with
  | Disseminate d ->
      disseminate_bits ~point_bits ~i:d.i ~a:d.a ~b:d.b ~x:d.x ~parent_mid:d.parent_mid ~elt:d.elt
  | Rendezvous r -> rendezvous_bits ~point_bits ~i:r.i ~j:r.j ~elt:r.elt
  | Vote v -> vote_bits ~i:v.i ~j:v.j ~smaller:v.smaller ~larger:v.larger
  | Child_sum c ->
      child_sum_bits ~i:c.i ~parent_mid:c.parent_mid ~smaller:c.smaller ~larger:c.larger

(* Flat per-stage state.  Positions run 1..n', so per-position state is an
   array of length n' + 1 (slot 0 unused) and per-pair state a square of
   side n' + 1 indexed [i * (n' + 1) + j]. *)
let elts_by_position ~n' (reps : (int * Element.t) list array) =
  match Array.find_map (function (_, e) :: _ -> Some e | [] -> None) reps with
  | None -> invalid_arg "Kselect.sorting_stage: no representatives"
  | Some e0 ->
      let by_pos = Array.make (n' + 1) e0 in
      Array.iter (List.iter (fun (pos, elt) -> by_pos.(pos) <- elt)) reps;
      by_pos

(* [orders.(i)]: the order the root of T(v_i) computed, 0 while unknown. *)
let orders_to_array ~n' ~elt_of_pos orders =
  let got = Array.fold_left (fun acc o -> if o <> 0 then acc + 1 else acc) 0 orders in
  if got <> n' then
    failwith
      (Printf.sprintf "Kselect.sorting_stage: got %d orders for %d representatives" got n');
  let by_order = Array.make (n' + 1) None in
  for i = 1 to n' do
    let order = orders.(i) in
    if order < 1 || order > n' then failwith "Kselect.sorting_stage: order out of range";
    (match by_order.(order) with
    | Some _ -> failwith "Kselect.sorting_stage: duplicate order"
    | None -> ());
    by_order.(order) <- Some elt_of_pos.(i)
  done;
  Array.map Option.get (Array.sub by_order 1 n')

(* [reps]: for each real node, the (position, element) pairs it contributed.
   Returns the element of each order (index 1..n') plus the number of
   (node, tree) participations, and adds the engine costs to [reports].

   The pre-optimization protocol: every copy-tree edge is a de Bruijn hop,
   every rendezvous and vote is routed hop-by-hop to the hashed pair point,
   and every payload is its own wire message.  Kept executable as the
   reference the differential test layer runs the aggregated rewrite
   against. *)
let sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair
    ~(reps : (int * Element.t) list array) ~n' ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let point_of_bits x = float_of_int x /. float_of_int (1 lsl d') in
  let pos_point i = Hashing.to_unit_interval hash_pos i in
  let pair_point i j = Hashing.pair_to_unit_interval hash_pair (min i j) (max i j) in
  let tnodes : (int * int, tnode) Hashtbl.t = Hashtbl.create (4 * n') in
  let rendez : (int * int, int * Element.t * float) Hashtbl.t = Hashtbl.create (n' * n' / 2) in
  let orders = Array.make (n' + 1) 0 in
  let participations : (int * int, unit) Hashtbl.t = Hashtbl.create (4 * n') in
  let elt_of_pos = elts_by_position ~n' reps in
  let routing_header =
    let nn = max 2 n in
    (2 * Bitsize.log2_ceil nn) + Bitsize.log2_ceil nn
  in
  let size_bits m = routing_header + m.pbits in
  let send_along eng path payload =
    let pbits = spayload_bits ldb payload in
    match path with
    | [] -> assert false
    | [ only ] ->
        Sync.send eng ~src:(Ldb.owner only) ~dst:(Ldb.owner only) { path = [ only ]; pbits; payload }
    | first :: (next :: _ as rest) ->
        Sync.send eng ~src:(Ldb.owner first) ~dst:(Ldb.owner next) { path = rest; pbits; payload }
  in
  let route_from eng ~src_vnode ~point payload =
    send_along eng (Ldb.route_path ldb ~src:src_vnode ~point) payload
  in
  (* A single de Bruijn edge (copy-tree dissemination / vote aggregation):
     O(1) expected messages instead of a full O(log n) route. *)
  let hop_from eng ~src_vnode ~from_point ~bit ~point payload =
    send_along eng (fst (Ldb.debruijn_hop ldb ~src:src_vnode ~from_point ~bit ~point)) payload
  in
  let hop_back_from eng ~src_vnode ~from_point ~point payload =
    send_along eng (fst (Ldb.debruijn_hop_back ldb ~src:src_vnode ~from_point ~point)) payload
  in
  let try_complete eng tn =
    if
      (not tn.t_done) && tn.t_has_own_vote
      && tn.t_child_sums = tn.t_expected_children
    then begin
      tn.t_done <- true;
      if tn.t_parent_point < 0.0 then
        (* Root of T(v_i): the combined vote vector yields the order. *)
        orders.(tn.t_i) <- tn.t_smaller + 1
      else
        hop_back_from eng ~src_vnode:tn.t_vnode ~from_point:tn.t_point ~point:tn.t_parent_point
          (Child_sum
             {
               i = tn.t_i;
               parent_mid = tn.t_parent_mid;
               smaller = tn.t_smaller;
               larger = tn.t_larger;
             })
    end
  in
  let rec handle_payload eng final payload =
    match payload with
    | Disseminate d ->
        let x =
          if d.x >= 0 then d.x
          else
            min ((1 lsl d') - 1) (int_of_float (Ldb.label ldb final *. float_of_int (1 lsl d')))
        in
        let mid = (d.a + d.b) / 2 in
        let left = d.a <= mid - 1 and right = mid + 1 <= d.b in
        let tn =
          {
            t_i = d.i;
            t_mid = mid;
            t_elt = d.elt;
            t_vnode = final;
            t_point = d.point;
            t_parent_point = d.parent_point;
            t_parent_mid = d.parent_mid;
            t_expected_children = (if left then 1 else 0) + (if right then 1 else 0);
            t_smaller = 0;
            t_larger = 0;
            t_has_own_vote = false;
            t_child_sums = 0;
            t_done = false;
          }
        in
        Hashtbl.replace tnodes (d.i, mid) tn;
        Hashtbl.replace participations (Ldb.owner final, d.i) ();
        (* Spread the copies: prepend 0 / 1 to the bitstring (Phase 2b). *)
        let shifted = x lsr 1 in
        let hi = 1 lsl (d' - 1) in
        if left then begin
          let xl = shifted in
          hop_from eng ~src_vnode:final ~from_point:d.point ~bit:0 ~point:(point_of_bits xl)
            (Disseminate
               {
                 i = d.i;
                 a = d.a;
                 b = mid - 1;
                 x = xl;
                 point = point_of_bits xl;
                 parent_point = d.point;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        if right then begin
          let xr = shifted lor hi in
          hop_from eng ~src_vnode:final ~from_point:d.point ~bit:1 ~point:(point_of_bits xr)
            (Disseminate
               {
                 i = d.i;
                 a = mid + 1;
                 b = d.b;
                 x = xr;
                 point = point_of_bits xr;
                 parent_point = d.point;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        (* This node holds copy c_{i,mid}: rendezvous with c_{mid,i}. *)
        route_from eng ~src_vnode:final ~point:(pair_point d.i mid)
          (Rendezvous { i = d.i; j = mid; elt = d.elt; return_point = d.point })
    | Rendezvous r ->
        if r.i = r.j then
          (* A copy paired with itself contributes nothing to the order. *)
          route_from eng ~src_vnode:final ~point:r.return_point
            (Vote { i = r.i; j = r.j; smaller = 0; larger = 0 })
        else begin
          let key = (min r.i r.j, max r.i r.j) in
          match Hashtbl.find_opt rendez key with
          | None -> Hashtbl.replace rendez key (r.i, r.elt, r.return_point)
          | Some (i0, elt0, rp0) ->
              Hashtbl.remove rendez key;
              (* c_{i0,j0} and c_{r.i,r.j} meet here; compare priorities
                 (total order) and report who saw a smaller element. *)
              let first_smaller = Element.compare elt0 r.elt < 0 in
              let vote_to_first = if first_smaller then (0, 1) else (1, 0) in
              let vote_to_second = if first_smaller then (1, 0) else (0, 1) in
              let s0, l0 = vote_to_first and s1, l1 = vote_to_second in
              route_from eng ~src_vnode:final ~point:rp0
                (Vote { i = i0; j = r.i; smaller = s0; larger = l0 });
              route_from eng ~src_vnode:final ~point:r.return_point
                (Vote { i = r.i; j = i0; smaller = s1; larger = l1 })
        end
    | Vote v -> (
        match Hashtbl.find_opt tnodes (v.i, v.j) with
        | None -> failwith "Kselect.sorting_stage: vote for unknown tree node"
        | Some tn ->
            tn.t_smaller <- tn.t_smaller + v.smaller;
            tn.t_larger <- tn.t_larger + v.larger;
            tn.t_has_own_vote <- true;
            try_complete eng tn)
    | Child_sum c -> (
        match Hashtbl.find_opt tnodes (c.i, c.parent_mid) with
        | None -> failwith "Kselect.sorting_stage: child sum for unknown tree node"
        | Some tn ->
            tn.t_smaller <- tn.t_smaller + c.smaller;
            tn.t_larger <- tn.t_larger + c.larger;
            tn.t_child_sums <- tn.t_child_sums + 1;
            try_complete eng tn)
  and handler eng ~dst:_ ~src:_ msg =
    match msg.path with
    | [] -> failwith "Kselect.sorting_stage: empty path"
    | [ final ] -> handle_payload eng final msg.payload
    | cur :: (next :: _ as rest) ->
        ignore cur;
        Sync.send eng ~src:(Ldb.owner cur) ~dst:(Ldb.owner next)
          { path = rest; pbits = msg.pbits; payload = msg.payload }
  in
  let eng = Sync.create ~n ~size_bits ~handler ?trace ?faults ?sched () in
  (* Kick off: every chosen representative is routed to the node responsible
     for its position; that node becomes the root v_i of copy tree T(v_i). *)
  Array.iteri
    (fun node pairs ->
      List.iter
        (fun (pos, elt) ->
          let src_vnode = Ldb.vnode ~owner:node Ldb.Middle in
          route_from eng ~src_vnode ~point:(pos_point pos)
            (Disseminate
               {
                 i = pos;
                 a = 1;
                 b = n';
                 x = -1;
                 point = pos_point pos;
                 parent_point = -1.0;
                 parent_mid = -1;
                 elt;
               }))
        pairs)
    reps;
  let rounds = Sync.run_to_quiescence ~max_rounds:200_000 eng in
  let stage_report = Phase.report_of_metrics (Sync.metrics eng) rounds in
  add_report stage_report;
  Phase.trace_phase_end trace span "kselect-sort" stage_report;
  (orders_to_array ~n' ~elt_of_pos orders, Hashtbl.length participations)

(* Aggregated payloads name virtual nodes where the pairwise ones carry
   points: a copy's Disseminate carries the vnode of the tree node it
   creates and of that node's parent (-1 at a root), a Rendezvous the vnode
   its vote returns to.  Votes and child sums therefore go straight to a
   known vnode, and only copy and pair points need a manager lookup.  The
   billed bits still charge [point_bits] for every point field of the
   pairwise twin. *)
type apayload =
  | A_disseminate of {
      i : int;
      a : int;
      b : int;
      x : int;  (** -1 at a root: derived from the root's label *)
      vnode : Ldb.vnode;  (** the tree node this copy creates *)
      parent : Ldb.vnode;  (** -1 at a root *)
      parent_mid : int;
      elt : Element.t;
    }
  | A_rendezvous of { i : int; j : int; elt : Element.t; back : Ldb.vnode }
  | A_vote of { i : int; j : int; smaller : int; larger : int }
  | A_child_sum of { i : int; parent_mid : int; smaller : int; larger : int }

(* An item posted to its own sender is delivered at once as [Local] (free,
   never billed); every other busy (src, dst) edge carries one [Combined]
   message per activation, billed [bits]. *)
type amsg = Local of apayload | Combined of { items : apayload array; bits : int }

(* [spayload_bits] of the pairwise twin, plus the destination vnode address
   every aggregated item ships ([point_bits + 2]). *)
let apayload_bits ~point_bits p =
  (match p with
  | A_disseminate d ->
      disseminate_bits ~point_bits ~i:d.i ~a:d.a ~b:d.b ~x:d.x ~parent_mid:d.parent_mid ~elt:d.elt
  | A_rendezvous r -> rendezvous_bits ~point_bits ~i:r.i ~j:r.j ~elt:r.elt
  | A_vote v -> vote_bits ~i:v.i ~j:v.j ~smaller:v.smaller ~larger:v.larger
  | A_child_sum c ->
      child_sum_bits ~i:c.i ~parent_mid:c.parent_mid ~smaller:c.smaller ~larger:c.larger)
  + point_bits + 2

(* The stage's buffered items: one column store for the whole stage.  Each
   source's items are chained newest first from [head] through [next].
   [pending_take] walks one source's chain and pushes every item onto its
   destination's chain at [first], which reverses it back into post order:
   one stable pass groups the items by destination.  Outside a take every
   [first] is -1 and every [count] 0.  The columns grow on demand and
   rewind to empty whenever nothing is buffered. *)
type pending = {
  mutable dst : int array;
  mutable next : int array;
  mutable pay : apayload array;
  mutable len : int;
  mutable live : int;  (** items buffered and not yet taken *)
  head : int array;  (** per source *)
  first : int array;  (** per destination, during a take *)
  count : int array;
  mutable dsts : int array;  (** the running take's destinations, ascending *)
}

let pending_create ~n =
  {
    dst = [||];
    next = [||];
    pay = [||];
    len = 0;
    live = 0;
    head = Array.make n (-1);
    first = Array.make n (-1);
    count = Array.make n 0;
    dsts = Array.make 16 0;
  }

let grow a len fill =
  let a' = Array.make (max 64 (2 * len)) fill in
  Array.blit a 0 a' 0 len;
  a'

let pending_push pb ~src ~dst payload =
  if pb.live = 0 then pb.len <- 0;
  let q = pb.len in
  if q = Array.length pb.dst then begin
    pb.dst <- grow pb.dst q 0;
    pb.next <- grow pb.next q 0;
    pb.pay <- grow pb.pay q payload
  end;
  pb.dst.(q) <- dst;
  pb.pay.(q) <- payload;
  pb.next.(q) <- pb.head.(src);
  pb.head.(src) <- q;
  pb.len <- q + 1;
  pb.live <- pb.live + 1

(* Insertion sort: an activation's destinations are few (on seap-closed
   and seap-deep the median is 0, the 99th percentile about 20 and the
   maximum 162: 12.1M shifts over a whole seap-closed instance).  The
   [int array] annotation keeps the comparison off polymorphic [compare]. *)
let sort_prefix (a : int array) k =
  for i = 1 to k - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Unchain [src]'s items and group them by destination; returns the number
   of destinations, listed ascending in [pb.dsts]. *)
let pending_take pb ~src =
  let q = ref pb.head.(src) in
  pb.head.(src) <- -1;
  let ndst = ref 0 in
  while !q >= 0 do
    let i = !q in
    q := pb.next.(i);
    let d = pb.dst.(i) in
    if pb.first.(d) < 0 then begin
      if !ndst = Array.length pb.dsts then pb.dsts <- grow pb.dsts !ndst 0;
      pb.dsts.(!ndst) <- d;
      incr ndst
    end;
    pb.next.(i) <- pb.first.(d);
    pb.first.(d) <- i;
    pb.count.(d) <- pb.count.(d) + 1;
    pb.live <- pb.live - 1
  done;
  sort_prefix pb.dsts !ndst;
  !ndst

(* The running take's items for [dst], in post order; closes its group. *)
let pending_items pb ~dst =
  let q = ref pb.first.(dst) in
  let items = Array.make pb.count.(dst) pb.pay.(!q) in
  for slot = 0 to pb.count.(dst) - 1 do
    items.(slot) <- pb.pay.(!q);
    q := pb.next.(!q)
  done;
  pb.first.(dst) <- -1;
  pb.count.(dst) <- 0;
  items

(* The aggregated sorting stage: same copy trees, same hashed pair points,
   same vote algebra as the pairwise reference, but every payload goes
   directly to its destination's manager.  Items buffer in the stage's
   [pending] store; each node's activation sends ONE combined vector
   message per destination, in ascending destination order with items in
   post order, and an item posted to its own sender is delivered at once.
   Messages per stage drop from Θ(n'² log n) wire words to the number of
   busy (src, dst) edges per round, while every O(log n)-bit payload
   invariant survives: a combined message carries the per-node constant
   number of comparisons that previously travelled as separate words.

   All simulation state is flat and int-indexed: managers of copy points
   by bitstring x and of pair points by slot min·(n'+1) + max, each looked
   up once per stage; tree node c_{i,j} and the rendezvous of {i, j} in
   columns indexed i·(n'+1) + j. *)
let sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair
    ~(reps : (int * Element.t) list array) ~n' ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let side = n' + 1 in
  let cells = side * side in
  let elt_of_pos = elts_by_position ~n' reps in
  let point_bits = 2 * Bitsize.log2_ceil (max 2 n) in
  let routing_header = point_bits + Bitsize.log2_ceil (max 2 n) in
  let copy_vnode = Array.make (1 lsl d') (-1) in
  let copy_manager x =
    if copy_vnode.(x) < 0 then
      copy_vnode.(x) <- Ldb.manager_of_point ldb (float_of_int x /. float_of_int (1 lsl d'));
    copy_vnode.(x)
  in
  let pair_vnode = Array.make cells (-1) in
  let pair_manager i j =
    let lo = min i j and hi = max i j in
    let slot = (lo * side) + hi in
    if pair_vnode.(slot) < 0 then
      pair_vnode.(slot) <-
        Ldb.manager_of_point ldb (Hashing.pair_to_unit_interval hash_pair lo hi);
    pair_vnode.(slot)
  in
  (* Tree node c_{i,j}: its vnode (-1 until its copy arrives), its parent's
     vnode (-1 at a root) and mid, its vote sums, and how many of its own
     vote and child sums are still outstanding. *)
  let tn_vnode = Array.make cells (-1) in
  let tn_parent = Array.make cells (-1) in
  let tn_parent_mid = Array.make cells 0 in
  let tn_smaller = Array.make cells 0 in
  let tn_larger = Array.make cells 0 in
  let tn_waiting = Array.make cells 0 in
  (* Rendezvous of the pair {i, j}, i < j: the first copy to arrive parks
     its tree, element and return vnode; [rz_i = 0] means nobody waits. *)
  let rz_i = Array.make cells 0 in
  let rz_elt = Array.make cells elt_of_pos.(1) in
  let rz_back = Array.make cells 0 in
  let orders = Array.make side 0 in
  let pb = pending_create ~n in
  let post eng ~src dest payload =
    let dst = Ldb.owner dest in
    if dst = src then Sync.send eng ~src ~dst (Local payload)
    else pending_push pb ~src ~dst payload
  in
  let credit eng self ~what i s ~smaller ~larger =
    if tn_vnode.(s) < 0 then failwith ("Kselect.sorting_stage: " ^ what ^ " for unknown tree node");
    tn_smaller.(s) <- tn_smaller.(s) + smaller;
    tn_larger.(s) <- tn_larger.(s) + larger;
    tn_waiting.(s) <- tn_waiting.(s) - 1;
    if tn_waiting.(s) = 0 then
      if tn_parent.(s) < 0 then orders.(i) <- tn_smaller.(s) + 1
      else
        post eng ~src:self tn_parent.(s)
          (A_child_sum
             {
               i;
               parent_mid = tn_parent_mid.(s);
               smaller = tn_smaller.(s);
               larger = tn_larger.(s);
             })
  in
  let handle eng self = function
    | A_disseminate d ->
        let x =
          if d.x >= 0 then d.x
          else
            min ((1 lsl d') - 1) (int_of_float (Ldb.label ldb d.vnode *. float_of_int (1 lsl d')))
        in
        let mid = (d.a + d.b) / 2 in
        let left = d.a <= mid - 1 and right = mid + 1 <= d.b in
        let s = (d.i * side) + mid in
        tn_vnode.(s) <- d.vnode;
        tn_parent.(s) <- d.parent;
        tn_parent_mid.(s) <- d.parent_mid;
        tn_waiting.(s) <- 1 + Bool.to_int left + Bool.to_int right;
        (* Spread the copies: prepend 0 / 1 to the bitstring (Phase 2b). *)
        let shifted = x lsr 1 in
        if left then begin
          let dest = copy_manager shifted in
          post eng ~src:self dest
            (A_disseminate
               {
                 i = d.i;
                 a = d.a;
                 b = mid - 1;
                 x = shifted;
                 vnode = dest;
                 parent = d.vnode;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        if right then begin
          let xr = shifted lor (1 lsl (d' - 1)) in
          let dest = copy_manager xr in
          post eng ~src:self dest
            (A_disseminate
               {
                 i = d.i;
                 a = mid + 1;
                 b = d.b;
                 x = xr;
                 vnode = dest;
                 parent = d.vnode;
                 parent_mid = mid;
                 elt = d.elt;
               })
        end;
        (* This node holds copy c_{i,mid}: rendezvous with c_{mid,i}. *)
        post eng ~src:self (pair_manager d.i mid)
          (A_rendezvous { i = d.i; j = mid; elt = d.elt; back = d.vnode })
    | A_rendezvous r ->
        if r.i = r.j then
          (* A copy paired with itself contributes nothing to the order. *)
          post eng ~src:self r.back (A_vote { i = r.i; j = r.j; smaller = 0; larger = 0 })
        else begin
          let slot = (min r.i r.j * side) + max r.i r.j in
          let i0 = rz_i.(slot) in
          if i0 = 0 then begin
            rz_i.(slot) <- r.i;
            rz_elt.(slot) <- r.elt;
            rz_back.(slot) <- r.back
          end
          else begin
            rz_i.(slot) <- 0;
            (* [s0] = 1 iff the parked copy's element is the larger one. *)
            let s0 = Bool.to_int (Element.compare rz_elt.(slot) r.elt >= 0) in
            post eng ~src:self rz_back.(slot)
              (A_vote { i = i0; j = r.i; smaller = s0; larger = 1 - s0 });
            post eng ~src:self r.back (A_vote { i = r.i; j = i0; smaller = 1 - s0; larger = s0 })
          end
        end
    | A_vote v ->
        credit eng self ~what:"vote" v.i ((v.i * side) + v.j) ~smaller:v.smaller ~larger:v.larger
    | A_child_sum c ->
        credit eng self ~what:"child sum" c.i
          ((c.i * side) + c.parent_mid)
          ~smaller:c.smaller ~larger:c.larger
  in
  let handler eng ~dst ~src:_ = function
    | Local p -> handle eng dst p
    | Combined { items; _ } ->
        for k = 0 to Array.length items - 1 do
          handle eng dst items.(k)
        done
  in
  let activate eng node =
    for g = 0 to pending_take pb ~src:node - 1 do
      let dst = pb.dsts.(g) in
      let items = pending_items pb ~dst in
      let bits = ref routing_header in
      for k = 0 to Array.length items - 1 do
        bits := !bits + apayload_bits ~point_bits items.(k)
      done;
      (if !unsafe_misaggregate_votes && Array.length items >= 2 then
         match items.(0) with
         | A_vote v -> items.(0) <- A_vote { v with smaller = v.larger; larger = v.smaller }
         | _ -> ());
      Sync.send eng ~src:node ~dst (Combined { items; bits = !bits })
    done
  in
  let size_bits = function Combined c -> c.bits | Local _ -> 0 in
  let eng = Sync.create ~n ~size_bits ~handler ~activate ?trace ?faults ?sched () in
  (* Kick off: every chosen representative goes to the manager of its
     position, which becomes the root v_i of copy tree T(v_i). *)
  Array.iteri
    (fun node pairs ->
      List.iter
        (fun (pos, elt) ->
          let root = Ldb.manager_of_point ldb (Hashing.to_unit_interval hash_pos pos) in
          post eng ~src:node root
            (A_disseminate
               { i = pos; a = 1; b = n'; x = -1; vnode = root; parent = -1; parent_mid = -1; elt }))
        pairs)
    reps;
  (* [run_to_quiescence] would stop while items still sit in [pb] (they
     are not in flight until an activation sends them; a down node's
     skipped activation keeps them), so the stage drives rounds itself. *)
  let rounds = ref 0 in
  while pb.live > 0 || Sync.pending eng > 0 || Sync.unacked eng > 0 do
    if !rounds >= 200_000 then failwith "Kselect.sorting_stage: exceeded round budget";
    Sync.step eng;
    incr rounds
  done;
  let stage_report = Phase.report_of_metrics (Sync.metrics eng) !rounds in
  add_report stage_report;
  Phase.trace_phase_end trace span "kselect-sort" stage_report;
  (* (node, tree) participations: the distinct owners of each tree's
     nodes, counted with one stamp per real node. *)
  let participations = ref 0 in
  let stamp = Array.make n 0 in
  for i = 1 to n' do
    for j = 1 to n' do
      let v = tn_vnode.((i * side) + j) in
      if v >= 0 && stamp.(Ldb.owner v) <> i then begin
        stamp.(Ldb.owner v) <- i;
        incr participations
      end
    done
  done;
  (orders_to_array ~n' ~elt_of_pos orders, !participations)

(* ------------------------------------------------------------------------ *)
(* The full protocol.                                                        *)
(* ------------------------------------------------------------------------ *)

(* A Phase-2 prune the anchor has decided but not yet announced: prune at
   or below [c_l] (when [below]) and above [c_r] (when [above]).  The
   anchor derives what that removes from the exact ranks, and each node
   checks its local count against [removed_below] / [removed_above]. *)
type prune = {
  c_l : Element.t;
  c_r : Element.t;
  below : bool;
  above : bool;
  removed_below : int;
  removed_above : int;
}

type state = {
  tree : Aggtree.t;
  ldb : Ldb.t;
  cands : Element.t list array; (* v.C per real node *)
  mutable n_remaining : int; (* v0.N *)
  mutable k : int; (* v0.k *)
  mutable prune : prune option; (* decided, rides on the next broadcast *)
  mutable report : Phase.report;
  rng : Rng.t;
  hash_pos : Hashing.t;
  hash_pair : Hashing.t;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
}

let add_report st r = st.report <- Phase.add_report st.report r

let int_bits = Bitsize.bits_of_int

(* Aggregation-phase helpers, all charged to the report. *)
let bcast st payload_bits =
  add_report st
    (Phase.broadcast ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~payload:() ~size_bits:(fun () -> payload_bits) ())

let up st ~local ~combine ~size_bits =
  let v, memo, r = Phase.up ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~local ~combine ~size_bits () in
  add_report st r;
  (v, memo)

(* -------------------------------------------------------------- Phase 1 *)

(* A bound aggregated over the tree.  [Neutral] is the combine identity
   (virtual nodes and, where safe, candidate-poor real nodes); [Unbounded]
   poisons the bound (no pruning on that side this iteration); [B p] is an
   actual priority. *)
type bound = Neutral | Unbounded | B of int

let combine_bound pick a b =
  match (a, b) with
  | Unbounded, _ | _, Unbounded -> Unbounded
  | Neutral, x | x, Neutral -> x
  | B x, B y -> B (pick x y)

(* One Phase-1 iteration; returns [true] when it was void.  A void
   iteration can prune nothing, so the anchor skips its prune broadcast and
   count: P_max is unbounded, and P_min is unbounded or, with ⌊k/live⌋ = 1,
   the global minimum (pruning is strict). *)
let phase1_iteration st =
  let n = Ldb.n st.ldb in
  let k = st.k in
  bcast st (2 * int_bits (max n st.n_remaining));
  (* Local P_min / P_max: the ⌊k/n⌋-th and ⌈k/n⌉-th smallest local
     candidates.  A node with fewer than ⌊k/n⌋ candidates may safely stay
     Neutral for P_min (it holds at most ⌊k/n⌋−1 elements below anything, so
     the counting argument of Lemma 4.3 still applies), but a node with
     fewer than ⌈k/n⌉ candidates must poison P_max — without its report the
     other nodes' ⌈k/n⌉-th elements no longer account for k elements.

     Both quantile indices divide by the number of nodes that actually
     report a local bound — the LIVE count.  After a kill [Ldb.n] still
     counts the dead slot, and dividing by it inflates the per-node
     guarantee: with k = m, n = 6 but only 5 survivors, ⌈k/n⌉ = 1 lets
     every survivor vote its minimum for P_max, the five votes only
     account for 5 < k elements, and a top-k element gets pruned — k then
     exceeds the survivor count and Phase 3 indexes past its array. *)
  let live = Ldb.live_count st.ldb in
  let k_lo = k / live and k_hi = (k + live - 1) / live in
  let local_minmax node =
    let sorted = List.sort Element.compare st.cands.(node) in
    let len = List.length sorted in
    let pmin =
      if k_lo < 1 then Unbounded
      else if len >= k_lo then B (Element.prio (List.nth sorted (k_lo - 1)))
      else Neutral
    in
    let pmax =
      if len >= k_hi && k_hi >= 1 then B (Element.prio (List.nth sorted (k_hi - 1)))
      else Unbounded
    in
    (pmin, pmax)
  in
  let combine (min1, max1) (min2, max2) =
    (combine_bound min min1 min2, combine_bound max max1 max2)
  in
  let (pmin, pmax), _ =
    up st
      ~local:(fun v ->
        match Ldb.kind v with
        | Ldb.Middle -> local_minmax (Ldb.owner v)
        | _ -> (Neutral, Neutral))
      ~combine
      ~size_bits:(fun _ -> 2 * int_bits st.n_remaining)
  in
  let is_bound = function B _ -> true | Neutral | Unbounded -> false in
  if (not (is_bound pmax)) && ((not (is_bound pmin)) || k_lo <= 1) then true
  else begin
    bcast st (2 * int_bits st.n_remaining);
    (* Prune strictly outside [P_min, P_max]; count per side. *)
    let removed_below = ref 0 and removed_above = ref 0 in
    Array.iteri
      (fun node cs ->
        let keep =
          List.filter
            (fun e ->
              let p = Element.prio e in
              let below = match pmin with B b -> p < b | _ -> false in
              let above = match pmax with B b -> p > b | _ -> false in
              if below then incr removed_below;
              if above then incr removed_above;
              (not below) && not above)
            cs
        in
        st.cands.(node) <- keep)
      st.cands;
    (* Charge the (k', k'') count aggregation. *)
    let _, _ =
      up st
        ~local:(fun _ -> (0, 0))
        ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
        ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
    in
    st.k <- st.k - !removed_below;
    st.n_remaining <- st.n_remaining - !removed_below - !removed_above;
    false
  end

(* -------------------------------------------------------------- Phase 2 *)

(* Draw representatives, assign positions 1..n' via interval decomposition,
   and return them per node. *)
let draw_representatives st ~prob =
  let chosen = Array.map (fun cs -> List.filter (fun _ -> Rng.bernoulli st.rng ~p:prob) cs) st.cands in
  let counts v =
    match Ldb.kind v with Ldb.Middle -> List.length chosen.(Ldb.owner v) | _ -> 0
  in
  let (n' : int), memo =
    up st ~local:counts ~combine:( + ) ~size_bits:(fun _ -> int_bits (max 1 st.n_remaining))
  in
  if n' = 0 then (0, [||])
  else begin
    let retained, down_r =
      Phase.down ?trace:st.trace ?faults:st.faults ?sched:st.sched ~tree:st.tree ~memo ~root_payload:(Interval.make 1 n')
        ~split:(fun ~parts iv -> Interval.split_sizes iv parts)
        ~size_bits:(fun iv ->
          if Interval.is_empty iv then 2
          else Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv))
        ()
    in
    add_report st down_r;
    let reps =
      Array.init (Ldb.n st.ldb) (fun node ->
          let mv = Ldb.vnode ~owner:node Ldb.Middle in
          match retained.(mv) with
          | None -> []
          | Some iv -> List.combine (Interval.positions iv) chosen.(node) |> List.map (fun (p, e) -> (p, e)))
    in
    (n', reps)
  end

(* Exact ranks of [c_l] and [c_r] among all candidates via one aggregation:
   per node, the counts of candidates strictly below each. *)
let exact_ranks st c_l c_r =
  bcast st (2 * Element.encoded_bits c_l);
  let local node =
    let below_l = List.length (List.filter (fun e -> Element.compare e c_l < 0) st.cands.(node)) in
    let below_r = List.length (List.filter (fun e -> Element.compare e c_r < 0) st.cands.(node)) in
    (below_l, below_r)
  in
  let (bl, br), _ =
    up st
      ~local:(fun v -> match Ldb.kind v with Ldb.Middle -> local (Ldb.owner v) | _ -> (0, 0))
      ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
      ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
  in
  (bl + 1, br + 1)

(* The anchor's prune decision from the exact ranks, with no count
   convergecast: candidates are totally ordered, so pruning at or below c_l
   removes rank(c_l) of them and pruning above c_r removes N - rank(c_r).
   The nodes apply it when the next broadcast delivers it. *)
let decide_prune st ~c_l ~c_r ~rank_l ~rank_r =
  let below = rank_l < st.k and above = rank_r >= st.k in
  if below || above then begin
    let removed_below = if below then rank_l else 0 in
    let removed_above = if above then st.n_remaining - rank_r else 0 in
    st.prune <- Some { c_l; c_r; below; above; removed_below; removed_above };
    st.k <- st.k - removed_below;
    st.n_remaining <- st.n_remaining - removed_below - removed_above
  end

(* Broadcast [payload_bits] plus the pending prune decision, if any, and
   apply that decision at every node, which counts what it removed. *)
let bcast_with_prune st payload_bits =
  match st.prune with
  | None -> bcast st payload_bits
  | Some p ->
      st.prune <- None;
      bcast st (payload_bits + (2 * Element.encoded_bits p.c_r) + 2);
      let removed_below = ref 0 and removed_above = ref 0 in
      Array.iteri
        (fun node cs ->
          let keep =
            List.filter
              (fun e ->
                let below = p.below && Element.compare e p.c_l <= 0 in
                let above = p.above && Element.compare e p.c_r > 0 in
                if below then incr removed_below;
                if above && not below then incr removed_above;
                (not below) && not above)
              cs
          in
          st.cands.(node) <- keep)
        st.cands;
      if !removed_below <> p.removed_below || !removed_above <> p.removed_above then
        failwith
          (Printf.sprintf
             "Kselect: prune removed %d below and %d above, but the ranks predicted %d and %d"
             !removed_below !removed_above p.removed_below p.removed_above)

(* -------------------------------------------------------------- select  *)

let select ?(seed = 1) ?(rep_factor = 4.0) ?(impl : impl = `Aggregated)
    ?trace ?faults ?sched ~tree ~elements ~k () =
  let ldb = Aggtree.ldb tree in
  let n = Ldb.n ldb in
  if Array.length elements <> n then
    invalid_arg "Kselect.select: elements array length differs from node count";
  let m = Array.fold_left (fun acc l -> acc + List.length l) 0 elements in
  if k < 1 || k > m then
    invalid_arg (Printf.sprintf "Kselect.select: k=%d outside [1,%d]" k m);
  let st =
    {
      tree;
      ldb;
      cands = Array.map (fun l -> l) elements;
      n_remaining = m;
      k;
      prune = None;
      report = Phase.empty_report;
      rng = Rng.create ~seed;
      hash_pos = Hashing.create ~seed:(seed + 31337);
      hash_pair = Hashing.create ~seed:(seed + 65537);
      trace;
      faults;
      sched;
    }
  in
  let aggregated = impl = `Aggregated in
  let sorting_stage ~reps ~n' =
    if aggregated then
      sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
        ~hash_pair:st.hash_pair ~reps ~n' ~add_report:(add_report st)
    else
      sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
        ~hash_pair:st.hash_pair ~reps ~n' ~add_report:(add_report st)
  in
  let diag_p1 = ref [] and diag_p2 = ref [] and diag_reps = ref [] in
  let participations = ref 0 and stages = ref 0 in
  let msgs () = st.report.Phase.messages in
  (* Stop shrinking once everything fits into one exact sorting stage of
     the size Phase 2 would sample anyway (n' ≈ 4√n). *)
  let threshold = max (int_of_float (rep_factor *. sqrt (float_of_int n))) 32 in
  (* Small batches skip straight to the Phase 3 exact sort: the whole
     candidate set is no bigger than the sample Phase 2 would draw, so the
     sampling iterations could not reduce the sorting work they precede. *)
  let skip_direct = aggregated && m <= threshold in
  let iters1_run = ref 0 in
  if not skip_direct then begin
    (* ---------------- Phase 1: log(q)+1 sampling iterations ------------ *)
    let q =
      if n < 2 then 1
      else max 1 (int_of_float (ceil (log (float_of_int (max 2 m)) /. log (float_of_int n))))
    in
    let iters1 = Bitsize.log2_ceil (max 1 q) + 1 in
    (* A void iteration ends Phase 1: the remaining ones would see the same
       k, N and candidates and reach the same verdict. *)
    let rec phase1 i =
      if i <= iters1 then begin
        let void = phase1_iteration st in
        iters1_run := i;
        diag_p1 := st.n_remaining :: !diag_p1;
        Dpq_obs.Trace.kselect_round trace ~stage:"phase1" ~iteration:i
          ~candidates:st.n_remaining ~messages:(msgs ());
        if not void then phase1 (i + 1)
      end
    in
    phase1 1;
    (* ---------------- Phase 2: shrink to ~sqrt(n) candidates ----------- *)
    (* δ = Θ(√(log n) · n^{1/4}) (Lemma 4.6).  The constant is 1 rather than
       the proof's larger c: the exact-rank guards below make pruning safe
       unconditionally, so a tighter δ only trades a little failure
       probability for much faster shrinkage at moderate n. *)
    let delta =
      max 1
        (int_of_float
           (sqrt (log (float_of_int (max 2 n))) *. (float_of_int (max 2 n) ** 0.25)))
    in
    let no_progress = ref 0 in
    let iter2 = ref 0 in
    while st.n_remaining > threshold && !no_progress < 3 && !iter2 < 30 do
      incr iter2;
      let before = st.n_remaining in
      bcast_with_prune st (2 * int_bits (max n st.n_remaining));
      (* n' = Θ(√n) representatives; the constant 4 keeps n' comfortably above
         δ at practical n (the paper's asymptotics assume n' ≫ δ, which for
         √n vs n^{1/4}·√log n only holds at very large n). *)
      let prob = rep_factor *. sqrt (float_of_int n) /. float_of_int st.n_remaining in
      let prob = min 1.0 prob in
      let n', reps = draw_representatives st ~prob in
      if n' >= 2 then begin
        diag_reps := n' :: !diag_reps;
        let by_order, parts = sorting_stage ~reps ~n' in
        participations := !participations + parts;
        incr stages;
        let ideal = float_of_int st.k *. float_of_int n' /. float_of_int st.n_remaining in
        let l = max 1 (min n' (int_of_float (floor (ideal -. float_of_int delta)))) in
        let r = max 1 (min n' (int_of_float (ceil (ideal +. float_of_int delta)))) in
        let c_l = by_order.(l - 1) and c_r = by_order.(max l r - 1) in
        (* One aggregation for the exact ranks, then prune with the safety
           guards: below only if rank(c_l) < k, above only if rank(c_r) >= k.
           The decision rides on the next iteration's start broadcast. *)
        let rank_l, rank_r = exact_ranks st c_l c_r in
        decide_prune st ~c_l ~c_r ~rank_l ~rank_r
      end;
      diag_p2 := st.n_remaining :: !diag_p2;
      Dpq_obs.Trace.kselect_round trace ~stage:"phase2" ~iteration:!iter2
        ~candidates:st.n_remaining ~messages:(msgs ());
      if st.n_remaining >= before then incr no_progress else no_progress := 0
    done
  end;
  (* ---------------- Phase 3: exact computation ------------------------- *)
  (* Phase 2's last prune decision goes out in a broadcast of its own. *)
  if Option.is_some st.prune then bcast_with_prune st 0;
  let phase3_n = st.n_remaining in
  Dpq_obs.Trace.kselect_round trace ~stage:"phase3" ~iteration:0 ~candidates:phase3_n
    ~messages:(msgs ());
  let element =
    if phase3_n = 1 then (
      (* route the single survivor to the anchor *)
      let survivor = ref None in
      Array.iter (fun cs -> match cs with [] -> () | e :: _ -> survivor := Some e) st.cands;
      let (_ : int), _ =
        up st
          ~local:(fun _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> Element.encoded_bits (Option.get !survivor))
      in
      Option.get !survivor)
    else begin
      let n', reps = draw_representatives st ~prob:1.0 in
      assert (n' = phase3_n);
      let by_order, parts = sorting_stage ~reps ~n' in
      participations := !participations + parts;
      incr stages;
      (* the k-th smallest survivor is the answer; ship it to the anchor *)
      let answer = by_order.(st.k - 1) in
      let (_ : int), _ =
        up st
          ~local:(fun _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> Element.encoded_bits answer)
      in
      answer
    end
  in
  let diagnostics =
    {
      initial_candidates = m;
      phase1_iterations = !iters1_run;
      phase1_skipped = skip_direct;
      phase1_candidates = List.rev !diag_p1;
      phase2_candidates = List.rev !diag_p2;
      phase2_rep_counts = List.rev !diag_reps;
      mean_trees_per_node =
        (if !stages = 0 then 0.0
         else float_of_int !participations /. float_of_int (n * !stages));
      phase3_candidates = phase3_n;
    }
  in
  { element; report = st.report; diagnostics }
