module Element = Dpq_util.Element
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

(* ------------------------------------------------------------------------ *)
(* The distributed sorting stage (Algorithm 3, Phase 2b).                    *)
(* ------------------------------------------------------------------------ *)

(* One stage's representatives, flat: [elt_of_pos.(p)] is the element at
   position p (1..n'), and node v holds positions [pos_lo.(v)] ..
   [pos_lo.(v) + pos_count.(v) - 1].  [drawn] is the draw's scratch: the
   chosen candidates node by node, in candidate order.  One record serves
   every stage of a selection. *)
type reps = {
  elt_of_pos : Element.t array;
  drawn : Element.t array;
  pos_lo : int array;
  pos_count : int array;
}

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
   [point_bits] is charged for every point field of the pairwise payload,
   [elt_bits] is the carried element's [Element.encoded_bits]. *)
let disseminate_bits ~point_bits ~i ~a ~b ~x ~parent_mid ~elt_bits =
  Bitsize.bits_of_int i + Bitsize.bits_of_int a + Bitsize.bits_of_int b
  + Bitsize.bits_of_int (abs x) + (2 * point_bits) + Bitsize.bits_of_int (abs parent_mid)
  + elt_bits

let rendezvous_bits ~point_bits ~i ~j ~elt_bits =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + elt_bits + point_bits

let vote_bits ~i ~j ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int j + smaller + larger + 2

let child_sum_bits ~i ~parent_mid ~smaller ~larger =
  Bitsize.bits_of_int i + Bitsize.bits_of_int parent_mid + Bitsize.bits_of_int smaller
  + Bitsize.bits_of_int larger

let spayload_bits ldb p =
  let point_bits = 2 * Bitsize.log2_ceil (max 2 (Ldb.n ldb)) in
  match p with
  | Disseminate d ->
      disseminate_bits ~point_bits ~i:d.i ~a:d.a ~b:d.b ~x:d.x ~parent_mid:d.parent_mid
        ~elt_bits:(Element.encoded_bits d.elt)
  | Rendezvous r ->
      rendezvous_bits ~point_bits ~i:r.i ~j:r.j ~elt_bits:(Element.encoded_bits r.elt)
  | Vote v -> vote_bits ~i:v.i ~j:v.j ~smaller:v.smaller ~larger:v.larger
  | Child_sum c ->
      child_sum_bits ~i:c.i ~parent_mid:c.parent_mid ~smaller:c.smaller ~larger:c.larger

(* [orders.(i)]: the order the root of T(v_i) computed, 0 while unknown.
   Returns the position of each order 1..n' (slot 0 unused). *)
let positions_by_order ~n' orders =
  let got = Array.fold_left (fun acc o -> if o <> 0 then acc + 1 else acc) 0 orders in
  if got <> n' then
    failwith
      (Printf.sprintf "Kselect.sorting_stage: got %d orders for %d representatives" got n');
  let by_order = Array.make (n' + 1) 0 in
  for i = 1 to n' do
    let order = orders.(i) in
    if order < 1 || order > n' then failwith "Kselect.sorting_stage: order out of range";
    if by_order.(order) <> 0 then failwith "Kselect.sorting_stage: duplicate order";
    by_order.(order) <- i
  done;
  by_order

(* Returns the position of each order (index 1..n') plus the number of
   (node, tree) participations, and adds the engine costs to [reports].

   The pre-optimization protocol: every copy-tree edge is a de Bruijn hop,
   every rendezvous and vote is routed hop-by-hop to the hashed pair point,
   and every payload is its own wire message.  Kept executable as the
   reference the differential test layer runs the aggregated rewrite
   against. *)
let sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair ~(reps : reps) ~n'
    ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let point_of_bits x = float_of_int x /. float_of_int (1 lsl d') in
  let pos_point i = Ldb.point_of_mantissa (Hashing.point hash_pos i) in
  let pair_point i j = Ldb.point_of_mantissa (Hashing.pair_point hash_pair (min i j) (max i j)) in
  let tnodes : (int * int, tnode) Hashtbl.t = Hashtbl.create (4 * n') in
  let rendez : (int * int, int * Element.t * float) Hashtbl.t = Hashtbl.create (n' * n' / 2) in
  let orders = Array.make (n' + 1) 0 in
  let participations : (int * int, unit) Hashtbl.t = Hashtbl.create (4 * n') in
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
  for node = 0 to n - 1 do
    for pos = reps.pos_lo.(node) to reps.pos_lo.(node) + reps.pos_count.(node) - 1 do
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
             elt = reps.elt_of_pos.(pos);
           })
    done
  done;
  let rounds = Sync.run_to_quiescence ~max_rounds:200_000 eng in
  let stage_report = Phase.report_of_metrics (Sync.metrics eng) rounds in
  add_report stage_report;
  Phase.trace_phase_end trace span "kselect-sort" stage_report;
  (positions_by_order ~n' orders, Hashtbl.length participations)

(* The aggregated stage's items, one row each in int columns.  An item is
   one payload of the pairwise twin, with vnodes where the pairwise one
   carries points: a copy's disseminate names the vnode of the tree node
   it creates and of that node's parent (-1 at a root), a rendezvous the
   vnode its vote returns to.  Votes and child sums therefore go straight
   to a known vnode, and only copy and pair points need a manager lookup.
   No element is carried: every disseminate and rendezvous of copy tree i
   holds the element at position i.  Column use by kind:

     kind         i  a       b        x       v      parent  pmid
     disseminate  i  a       b        x       vnode  parent  parent_mid
     rendezvous   i  j       -        -       back   -       -
     vote         i  j       smaller  larger  -      -       -
     child sum    i  -       smaller  larger  -      -       parent_mid

   A disseminate's x is -1 at a root: derived from the root's label. *)
let k_disseminate = 0
let k_rendezvous = 1
let k_vote = 2
let k_child_sum = 3

(* The item and message store of one selection, reused by all its
   aggregated stages.  A live row is an item posted and not yet handled.
   While buffered, a row sits on its source's chain ([head], then [next],
   newest first) with its destination in [dst].  An activation's [take]
   walks one source's chain and pushes every row onto its destination's
   chain at [first], which reverses it back into post order: one stable
   pass groups the items by destination, summing each group's bits.  Each
   group becomes one message, named on the wire by its first row, an
   immediate int; that row's [m_count] and [m_bits] hold the message's
   item count and billed bits.  An item posted to its own sender travels
   as [lnot row] and is handled at once.  The rows of a handled message or
   local item go back on a free list ([free_row] through [next]), so no
   row is reused while an undelivered message (dropped, awaiting
   retransmission, deferred, or held by a down node) still names it; the
   columns grow on demand and rewind to empty whenever no row is live. *)
type store = {
  mutable kind : int array;
  mutable f_i : int array;
  mutable f_a : int array;
  mutable f_b : int array;
  mutable f_x : int array;
  mutable f_v : int array;
  mutable f_parent : int array;
  mutable f_pmid : int array;
  mutable dst : int array;
  mutable next : int array;
  mutable m_count : int array;
  mutable m_bits : int array;
  mutable rows : int;  (** rows in use since the last rewind *)
  mutable free_row : int;
  mutable live_rows : int;
  mutable buffered : int;  (** rows on a source chain *)
  head : int array;  (** per source *)
  first : int array;  (** per destination, during a take *)
  count : int array;
  bits : int array;
  mutable dsts : int array;  (** the running take's destinations, ascending *)
}

let store_create ~n =
  {
    kind = [||];
    f_i = [||];
    f_a = [||];
    f_b = [||];
    f_x = [||];
    f_v = [||];
    f_parent = [||];
    f_pmid = [||];
    dst = [||];
    next = [||];
    m_count = [||];
    m_bits = [||];
    rows = 0;
    free_row = -1;
    live_rows = 0;
    buffered = 0;
    head = Array.make n (-1);
    first = Array.make n (-1);
    count = Array.make n 0;
    bits = Array.make n 0;
    dsts = Array.make 16 0;
  }

let grow a len =
  let a' = Array.make (max 64 (2 * len)) 0 in
  Array.blit a 0 a' 0 len;
  a'

let alloc_row s =
  if s.live_rows = 0 then begin
    s.rows <- 0;
    s.free_row <- -1
  end;
  s.live_rows <- s.live_rows + 1;
  if s.free_row >= 0 then begin
    let q = s.free_row in
    s.free_row <- s.next.(q);
    q
  end
  else begin
    let q = s.rows in
    if q = Array.length s.kind then begin
      s.kind <- grow s.kind q;
      s.f_i <- grow s.f_i q;
      s.f_a <- grow s.f_a q;
      s.f_b <- grow s.f_b q;
      s.f_x <- grow s.f_x q;
      s.f_v <- grow s.f_v q;
      s.f_parent <- grow s.f_parent q;
      s.f_pmid <- grow s.f_pmid q;
      s.dst <- grow s.dst q;
      s.next <- grow s.next q;
      s.m_count <- grow s.m_count q;
      s.m_bits <- grow s.m_bits q
    end;
    s.rows <- q + 1;
    q
  end

(* Return the [len] rows chained from [first] to [last] through [next]. *)
let free_rows s ~first ~last ~len =
  s.next.(last) <- s.free_row;
  s.free_row <- first;
  s.live_rows <- s.live_rows - len

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

(* Unchain [src]'s items, group them by destination and sum each group's
   [item_bits]; returns the number of destinations, listed ascending in
   [s.dsts]. *)
let take s ~src ~item_bits =
  let q = ref s.head.(src) in
  s.head.(src) <- -1;
  let ndst = ref 0 in
  while !q >= 0 do
    let i = !q in
    q := s.next.(i);
    let d = s.dst.(i) in
    if s.first.(d) < 0 then begin
      if !ndst = Array.length s.dsts then s.dsts <- grow s.dsts !ndst;
      s.dsts.(!ndst) <- d;
      incr ndst
    end;
    s.next.(i) <- s.first.(d);
    s.first.(d) <- i;
    s.count.(d) <- s.count.(d) + 1;
    s.bits.(d) <- s.bits.(d) + item_bits i;
    s.buffered <- s.buffered - 1
  done;
  sort_prefix s.dsts !ndst;
  !ndst

(* The engine every aggregated stage of one selection runs on, created at
   its first stage and reset before each later one the way [Phase.net]
   reuses its engine: a stage delivers, costs and draws faults exactly as
   on a fresh engine, while the queue keeps the buffers it grew.  A
   message is a row id; the running stage installs what a delivery, an
   activation and a message's size mean, and between stages they fail. *)
type sort_net = {
  mutable eng : int Sync.t option;
  mutable handle : int Sync.t -> int -> int -> unit;  (** [handle eng dst w] *)
  mutable activate : int Sync.t -> int -> unit;
  mutable size : int -> int;
}

let idle_handle _ _ _ = failwith "Kselect: sorting message delivered outside a stage"
let idle_activate _ _ = failwith "Kselect: sorting activation outside a stage"
let idle_size _ = 0

let sort_net () = { eng = None; handle = idle_handle; activate = idle_activate; size = idle_size }

(* The aggregated sorting stage: same copy trees, same hashed pair points,
   same vote algebra as the pairwise reference, but every payload goes
   directly to its destination's manager.  Items buffer in the [store];
   each node's activation sends ONE combined vector message per
   destination, in ascending destination order with items in post order,
   and an item posted to its own sender is delivered at once.  Messages
   per stage drop from Θ(n'² log n) wire words to the number of busy
   (src, dst) edges per round, while every O(log n)-bit payload invariant
   survives: a combined message carries the per-node constant number of
   comparisons that previously travelled as separate words.

   All simulation state is flat and int-indexed: managers of copy points
   by bitstring x and of pair points by slot min·(n'+1) + max, each looked
   up once per stage; tree node c_{i,j} and the rendezvous of {i, j} in
   columns indexed i·(n'+1) + j. *)
let sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos ~hash_pair ~(net : sort_net)
    ~(store : store) ~(reps : reps) ~n' ~(add_report : Phase.report -> unit) =
  let span = Dpq_obs.Trace.phase_start trace "kselect-sort" in
  let s = store in
  let n = Ldb.n ldb in
  let d' = max 1 (Bitsize.log2_ceil (max 2 n')) in
  let side = n' + 1 in
  let cells = side * side in
  let elt_of_pos = reps.elt_of_pos in
  let elt_bits = Array.make side 0 in
  for p = 1 to n' do
    elt_bits.(p) <- Element.encoded_bits elt_of_pos.(p)
  done;
  let point_bits = 2 * Bitsize.log2_ceil (max 2 n) in
  let routing_header = point_bits + Bitsize.log2_ceil (max 2 n) in
  (* [apayload_bits]: the pairwise twin's bits plus the destination vnode
     address every aggregated item ships ([point_bits + 2]). *)
  let item_bits q =
    let i = s.f_i.(q) in
    let k = s.kind.(q) in
    (if k = k_disseminate then
       disseminate_bits ~point_bits ~i ~a:s.f_a.(q) ~b:s.f_b.(q) ~x:s.f_x.(q)
         ~parent_mid:s.f_pmid.(q) ~elt_bits:elt_bits.(i)
     else if k = k_rendezvous then rendezvous_bits ~point_bits ~i ~j:s.f_a.(q) ~elt_bits:elt_bits.(i)
     else if k = k_vote then vote_bits ~i ~j:s.f_a.(q) ~smaller:s.f_b.(q) ~larger:s.f_x.(q)
     else child_sum_bits ~i ~parent_mid:s.f_pmid.(q) ~smaller:s.f_b.(q) ~larger:s.f_x.(q))
    + point_bits + 2
  in
  (* Points reach [Ldb] as 53-bit mantissas, unboxed.  The copy point
     x/2^d' is the mantissa x·2^(53-d'), exactly: x < 2^d'. *)
  let copy_vnode = Array.make (1 lsl d') (-1) in
  let copy_manager x =
    if copy_vnode.(x) < 0 then copy_vnode.(x) <- Ldb.manager_of_mantissa ldb (x lsl (53 - d'));
    copy_vnode.(x)
  in
  let pair_vnode = Array.make cells (-1) in
  let pair_manager i j =
    let lo = min i j and hi = max i j in
    let slot = (lo * side) + hi in
    if pair_vnode.(slot) < 0 then
      pair_vnode.(slot) <- Ldb.manager_of_mantissa ldb (Hashing.pair_point hash_pair lo hi);
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
     its tree and return vnode; [rz_i = 0] means nobody waits. *)
  let rz_i = Array.make cells 0 in
  let rz_back = Array.make cells 0 in
  let orders = Array.make side 0 in
  let post eng ~src dest ~kind ~i ~a ~b ~x ~v ~parent ~pmid =
    let dst = Ldb.owner dest in
    let q = alloc_row s in
    s.kind.(q) <- kind;
    s.f_i.(q) <- i;
    s.f_a.(q) <- a;
    s.f_b.(q) <- b;
    s.f_x.(q) <- x;
    s.f_v.(q) <- v;
    s.f_parent.(q) <- parent;
    s.f_pmid.(q) <- pmid;
    if dst = src then Sync.send eng ~src ~dst (lnot q)
    else begin
      s.dst.(q) <- dst;
      s.next.(q) <- s.head.(src);
      s.head.(src) <- q;
      s.buffered <- s.buffered + 1
    end
  in
  let vote eng self dest ~i ~j ~smaller ~larger =
    post eng ~src:self dest ~kind:k_vote ~i ~a:j ~b:smaller ~x:larger ~v:0 ~parent:0 ~pmid:0
  in
  let credit eng self ~what i c ~smaller ~larger =
    if tn_vnode.(c) < 0 then failwith ("Kselect.sorting_stage: " ^ what ^ " for unknown tree node");
    tn_smaller.(c) <- tn_smaller.(c) + smaller;
    tn_larger.(c) <- tn_larger.(c) + larger;
    tn_waiting.(c) <- tn_waiting.(c) - 1;
    if tn_waiting.(c) = 0 then
      if tn_parent.(c) < 0 then orders.(i) <- tn_smaller.(c) + 1
      else
        post eng ~src:self tn_parent.(c) ~kind:k_child_sum ~i ~a:0 ~b:tn_smaller.(c)
          ~x:tn_larger.(c) ~v:0 ~parent:0 ~pmid:tn_parent_mid.(c)
  in
  (* Every field is read before the first post: a post may grow the
     columns. *)
  let handle eng self q =
    let kind = s.kind.(q) and i = s.f_i.(q) in
    if kind = k_disseminate then begin
      let a = s.f_a.(q) and b = s.f_b.(q) and vnode = s.f_v.(q) in
      let x =
        if s.f_x.(q) >= 0 then s.f_x.(q)
        else min ((1 lsl d') - 1) (int_of_float (Ldb.label ldb vnode *. float_of_int (1 lsl d')))
      in
      let mid = (a + b) / 2 in
      let left = a <= mid - 1 and right = mid + 1 <= b in
      let c = (i * side) + mid in
      tn_vnode.(c) <- vnode;
      tn_parent.(c) <- s.f_parent.(q);
      tn_parent_mid.(c) <- s.f_pmid.(q);
      tn_waiting.(c) <- 1 + Bool.to_int left + Bool.to_int right;
      (* Spread the copies: prepend 0 / 1 to the bitstring (Phase 2b). *)
      let shifted = x lsr 1 in
      if left then begin
        let dest = copy_manager shifted in
        post eng ~src:self dest ~kind:k_disseminate ~i ~a ~b:(mid - 1) ~x:shifted ~v:dest
          ~parent:vnode ~pmid:mid
      end;
      if right then begin
        let xr = shifted lor (1 lsl (d' - 1)) in
        let dest = copy_manager xr in
        post eng ~src:self dest ~kind:k_disseminate ~i ~a:(mid + 1) ~b ~x:xr ~v:dest
          ~parent:vnode ~pmid:mid
      end;
      (* This node holds copy c_{i,mid}: rendezvous with c_{mid,i}. *)
      post eng ~src:self (pair_manager i mid) ~kind:k_rendezvous ~i ~a:mid ~b:0 ~x:0 ~v:vnode
        ~parent:0 ~pmid:0
    end
    else if kind = k_rendezvous then begin
      let j = s.f_a.(q) and back = s.f_v.(q) in
      if i = j then
        (* A copy paired with itself contributes nothing to the order. *)
        vote eng self back ~i ~j ~smaller:0 ~larger:0
      else begin
        let slot = (min i j * side) + max i j in
        let i0 = rz_i.(slot) in
        if i0 = 0 then begin
          rz_i.(slot) <- i;
          rz_back.(slot) <- back
        end
        else begin
          rz_i.(slot) <- 0;
          (* [s0] = 1 iff the parked copy's element is the larger one. *)
          let s0 = Bool.to_int (Element.compare elt_of_pos.(i0) elt_of_pos.(i) >= 0) in
          vote eng self rz_back.(slot) ~i:i0 ~j:i ~smaller:s0 ~larger:(1 - s0);
          vote eng self back ~i ~j:i0 ~smaller:(1 - s0) ~larger:s0
        end
      end
    end
    else if kind = k_vote then
      credit eng self ~what:"vote" i ((i * side) + s.f_a.(q)) ~smaller:s.f_b.(q) ~larger:s.f_x.(q)
    else
      credit eng self ~what:"child sum" i
        ((i * side) + s.f_pmid.(q))
        ~smaller:s.f_b.(q) ~larger:s.f_x.(q)
  in
  let handler eng dst w =
    if w < 0 then begin
      let q = lnot w in
      handle eng dst q;
      free_rows s ~first:q ~last:q ~len:1
    end
    else begin
      let len = s.m_count.(w) in
      let q = ref w and last = ref w in
      for _ = 1 to len do
        handle eng dst !q;
        last := !q;
        q := s.next.(!q)
      done;
      free_rows s ~first:w ~last:!last ~len
    end
  in
  let activate eng node =
    for g = 0 to take s ~src:node ~item_bits - 1 do
      let d = s.dsts.(g) in
      let first = s.first.(d) in
      s.m_count.(first) <- s.count.(d);
      s.m_bits.(first) <- routing_header + s.bits.(d);
      s.first.(d) <- -1;
      s.count.(d) <- 0;
      s.bits.(d) <- 0;
      if !unsafe_misaggregate_votes && s.m_count.(first) >= 2 && s.kind.(first) = k_vote then begin
        let smaller = s.f_b.(first) in
        s.f_b.(first) <- s.f_x.(first);
        s.f_x.(first) <- smaller
      end;
      Sync.send eng ~src:node ~dst:d first
    done
  in
  let eng =
    match net.eng with
    | Some eng ->
        Sync.reset_clock eng;
        eng
    | None ->
        let eng =
          Sync.create ~n
            ~size_bits:(fun w -> net.size w)
            ~handler:(fun eng ~dst ~src:_ w -> net.handle eng dst w)
            ~activate:(fun eng node -> net.activate eng node)
            ?trace ?faults ?sched ()
        in
        net.eng <- Some eng;
        eng
  in
  net.handle <- handler;
  net.activate <- activate;
  net.size <- (fun w -> if w < 0 then 0 else s.m_bits.(w));
  (* Kick off: every chosen representative goes to the manager of its
     position, which becomes the root v_i of copy tree T(v_i). *)
  for node = 0 to n - 1 do
    for pos = reps.pos_lo.(node) to reps.pos_lo.(node) + reps.pos_count.(node) - 1 do
      let root = Ldb.manager_of_mantissa ldb (Hashing.point hash_pos pos) in
      post eng ~src:node root ~kind:k_disseminate ~i:pos ~a:1 ~b:n' ~x:(-1) ~v:root ~parent:(-1)
        ~pmid:(-1)
    done
  done;
  (* [run_to_quiescence] would stop while items still sit on source chains
     (they are not in flight until an activation sends them; a down node's
     skipped activation keeps them), so the stage drives rounds itself. *)
  let rounds = ref 0 in
  while s.buffered > 0 || Sync.pending eng > 0 || Sync.unacked eng > 0 do
    if !rounds >= 200_000 then failwith "Kselect.sorting_stage: exceeded round budget";
    Sync.step eng;
    incr rounds
  done;
  net.handle <- idle_handle;
  net.activate <- idle_activate;
  net.size <- idle_size;
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
  (positions_by_order ~n' orders, !participations)

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
  net : Phase.net;
  ldb : Ldb.t;
  cands : Element.t array array; (* v.C per real node: the first [cand_len] *)
  cand_len : int array;
  scratch : Element.t array; (* Phase 1's local selection *)
  reps : reps;
  store : store;
  sort_net : sort_net;
  mutable n_remaining : int; (* v0.N *)
  mutable k : int; (* v0.k *)
  mutable prune : prune option; (* decided, rides on the next broadcast *)
  mutable report : Phase.report;
  rng : Rng.t;
  hash_pos : Hashing.t;
  hash_pair : Hashing.t;
}

let add_report st r = st.report <- Phase.add_report st.report r

let int_bits = Bitsize.bits_of_int

(* Aggregation-phase helpers, all charged to the report. *)
let bcast st payload_bits = add_report st (Phase.broadcast st.net ~bits:payload_bits)

let up st ~local ~combine ~size_bits =
  let v, memo, r = Phase.up st.net ~local ~combine ~size_bits in
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

(* The [r]-th smallest (1-based) of [node]'s candidates, selected in
   [st.scratch] by Wirth's in-place quickselect, so the candidate order
   the representative draw depends on is left alone. *)
let local_kth st node r =
  let a = st.scratch in
  Array.blit st.cands.(node) 0 a 0 st.cand_len.(node);
  let r = r - 1 in
  let lo = ref 0 and hi = ref (st.cand_len.(node) - 1) in
  while !lo < !hi do
    let pivot = a.(r) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Element.compare a.(!i) pivot < 0 do
        incr i
      done;
      while Element.compare pivot a.(!j) < 0 do
        decr j
      done;
      if !i <= !j then begin
        let e = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- e;
        incr i;
        decr j
      end
    done;
    if !j < r then lo := !i;
    if r < !i then hi := !j
  done;
  a.(r)

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
    let len = st.cand_len.(node) in
    let pmin =
      if k_lo < 1 then Unbounded
      else if len >= k_lo then B (Element.prio (local_kth st node k_lo))
      else Neutral
    in
    let pmax =
      if len >= k_hi && k_hi >= 1 then B (Element.prio (local_kth st node k_hi)) else Unbounded
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
    let lo = match pmin with B b -> b | Neutral | Unbounded -> min_int in
    let hi = match pmax with B b -> b | Neutral | Unbounded -> max_int in
    let removed_below = ref 0 and removed_above = ref 0 in
    for node = 0 to Array.length st.cands - 1 do
      let cs = st.cands.(node) in
      let kept = ref 0 in
      for t = 0 to st.cand_len.(node) - 1 do
        let e = cs.(t) in
        let p = Element.prio e in
        if p < lo then incr removed_below
        else if p > hi then incr removed_above
        else begin
          cs.(!kept) <- e;
          incr kept
        end
      done;
      st.cand_len.(node) <- !kept
    done;
    (* Charge the (k', k'') count aggregation; the counts were taken
       above, so the pass carries empty packed pairs. *)
    let (_ : int), _ =
      up st
        ~local:(fun _ -> Phase.pack_counts 0 0)
        ~combine:( + )
        ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
    in
    st.k <- st.k - !removed_below;
    st.n_remaining <- st.n_remaining - !removed_below - !removed_above;
    false
  end

(* -------------------------------------------------------------- Phase 2 *)

(* Draw representatives (one Bernoulli trial per candidate, nodes
   ascending, each node's candidates in order), assign positions 1..n' by a
   positions pass, and lay them out in [st.reps]; returns n'. *)
let draw_representatives st ~prob =
  let r = st.reps in
  let ndrawn = ref 0 in
  for node = 0 to Array.length st.cands - 1 do
    let cs = st.cands.(node) in
    r.pos_lo.(node) <- !ndrawn;
    for t = 0 to st.cand_len.(node) - 1 do
      if Rng.bernoulli st.rng ~p:prob then begin
        r.drawn.(!ndrawn) <- cs.(t);
        incr ndrawn
      end
    done;
    r.pos_count.(node) <- !ndrawn - r.pos_lo.(node)
  done;
  let counts v = match Ldb.kind v with Ldb.Middle -> r.pos_count.(Ldb.owner v) | _ -> 0 in
  let (n' : int), memo =
    up st ~local:counts ~combine:( + ) ~size_bits:(fun _ -> int_bits (max 1 st.n_remaining))
  in
  if n' > 0 then begin
    let starts, down_r =
      Phase.positions st.net ~memo ~first:[| 1 |]
        ~size:(fun count _ -> count)
        ~bits:(fun _ start size -> Phase.cut_bits ~limit:n' start size)
        ~fixed_bits:0
    in
    add_report st down_r;
    (* [pos_lo] still holds each node's offset into [drawn].  A node's
       piece is [lo, lo + count - 1] unless the pass cut it at n'. *)
    for node = 0 to Array.length st.cands - 1 do
      let first = r.pos_lo.(node) and count = r.pos_count.(node) in
      let lo = starts.(Ldb.vnode ~owner:node Ldb.Middle) in
      if lo > 0 && count > 0 then begin
        if lo + count - 1 > n' then
          invalid_arg "Kselect: a node's positions differ from its representative count";
        Array.blit r.drawn first r.elt_of_pos lo count;
        r.pos_lo.(node) <- lo
      end
      else r.pos_count.(node) <- 0
    done
  end;
  n'

(* Exact ranks of [c_l] and [c_r] among all candidates via one aggregation:
   per node, the counts of candidates strictly below each. *)
let exact_ranks st c_l c_r =
  bcast st (2 * Element.encoded_bits c_l);
  let local node =
    let cs = st.cands.(node) in
    let below_l = ref 0 and below_r = ref 0 in
    for t = 0 to st.cand_len.(node) - 1 do
      if Element.compare cs.(t) c_l < 0 then incr below_l;
      if Element.compare cs.(t) c_r < 0 then incr below_r
    done;
    Phase.pack_counts !below_l !below_r
  in
  let below, _ =
    up st
      ~local:(fun v -> match Ldb.kind v with Ldb.Middle -> local (Ldb.owner v) | _ -> 0)
      ~combine:( + )
      ~size_bits:(fun _ -> 2 * int_bits (max 1 st.n_remaining))
  in
  (Phase.first_count below + 1, Phase.second_count below + 1)

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
      for node = 0 to Array.length st.cands - 1 do
        let cs = st.cands.(node) in
        let kept = ref 0 in
        for t = 0 to st.cand_len.(node) - 1 do
          let e = cs.(t) in
          if p.below && Element.compare e p.c_l <= 0 then incr removed_below
          else if p.above && Element.compare e p.c_r > 0 then incr removed_above
          else begin
            cs.(!kept) <- e;
            incr kept
          end
        done;
        st.cand_len.(node) <- !kept
      done;
      if !removed_below <> p.removed_below || !removed_above <> p.removed_above then
        failwith
          (Printf.sprintf
             "Kselect: prune removed %d below and %d above, but the ranks predicted %d and %d"
             !removed_below !removed_above p.removed_below p.removed_above)

(* -------------------------------------------------------------- select  *)

let select ?(seed = 1) ?(rep_factor = 4.0) ?(impl : impl = `Aggregated) ~net ~elements ~k () =
  let trace = Phase.trace net and faults = Phase.faults net and sched = Phase.sched net in
  let ldb = Aggtree.ldb (Phase.tree net) in
  let n = Ldb.n ldb in
  if Array.length elements <> n then
    invalid_arg "Kselect.select: elements array length differs from node count";
  let cands = Array.map Array.of_list elements in
  let m = Array.fold_left (fun acc cs -> acc + Array.length cs) 0 cands in
  if k < 1 || k > m then
    invalid_arg (Printf.sprintf "Kselect.select: k=%d outside [1,%d]" k m);
  let some_elt = (Option.get (Array.find_opt (fun cs -> cs <> [||]) cands)).(0) in
  let st =
    {
      net;
      ldb;
      cands;
      cand_len = Array.map Array.length cands;
      scratch = Array.make (Array.fold_left (fun acc cs -> max acc (Array.length cs)) 0 cands) some_elt;
      reps =
        {
          elt_of_pos = Array.make (m + 1) some_elt;
          drawn = Array.make m some_elt;
          pos_lo = Array.make n 0;
          pos_count = Array.make n 0;
        };
      store = store_create ~n;
      sort_net = sort_net ();
      n_remaining = m;
      k;
      prune = None;
      report = Phase.empty_report;
      rng = Rng.create ~seed;
      hash_pos = Hashing.create ~seed:(seed + 31337);
      hash_pair = Hashing.create ~seed:(seed + 65537);
    }
  in
  let aggregated = impl = `Aggregated in
  (* The element of each order 1..n' of the representatives just drawn. *)
  let sorting_stage ~n' =
    let by_order, parts =
      if aggregated then
        sorting_stage_aggregated ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
          ~hash_pair:st.hash_pair ~net:st.sort_net ~store:st.store ~reps:st.reps ~n'
          ~add_report:(add_report st)
      else
        sorting_stage_pairwise ~trace ~faults ~sched ~ldb ~hash_pos:st.hash_pos
          ~hash_pair:st.hash_pair ~reps:st.reps ~n' ~add_report:(add_report st)
    in
    ((fun order -> st.reps.elt_of_pos.(by_order.(order))), parts)
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
      let n' = draw_representatives st ~prob in
      if n' >= 2 then begin
        diag_reps := n' :: !diag_reps;
        let by_order, parts = sorting_stage ~n' in
        participations := !participations + parts;
        incr stages;
        let ideal = float_of_int st.k *. float_of_int n' /. float_of_int st.n_remaining in
        let l = max 1 (min n' (int_of_float (floor (ideal -. float_of_int delta)))) in
        let r = max 1 (min n' (int_of_float (ceil (ideal +. float_of_int delta)))) in
        let c_l = by_order l and c_r = by_order (max l r) in
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
      Array.iteri (fun node cs -> if st.cand_len.(node) > 0 then survivor := Some cs.(0)) st.cands;
      let (_ : int), _ =
        up st
          ~local:(fun _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> Element.encoded_bits (Option.get !survivor))
      in
      Option.get !survivor)
    else begin
      let n' = draw_representatives st ~prob:1.0 in
      assert (n' = phase3_n);
      let by_order, parts = sorting_stage ~n' in
      participations := !participations + parts;
      incr stages;
      (* the k-th smallest survivor is the answer; ship it to the anchor *)
      let answer = by_order st.k in
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
