module Element = Dpq_util.Element
module Bitsize = Dpq_util.Bitsize
module Hashing = Dpq_util.Hashing
module Rng = Dpq_util.Rng
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Sync = Dpq_simrt.Sync_engine

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

type impl = [ `Counting | `Pairwise ]

type result = {
  element : Element.t;
  report : Phase.report;
  diagnostics : diagnostics;
  le_counts : int array;
}

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

(* The billed bit-length of a payload: [point_bits] for every point field,
   an element's [Element.encoded_bits] for every element. *)
let spayload_bits ldb p =
  let point_bits = 2 * Bitsize.log2_ceil (max 2 (Ldb.n ldb)) in
  let bits = Bitsize.bits_of_int in
  match p with
  | Disseminate d ->
      bits d.i + bits d.a + bits d.b + bits (abs d.x) + (2 * point_bits) + bits (abs d.parent_mid)
      + Element.encoded_bits d.elt
  | Rendezvous r -> bits r.i + bits r.j + Element.encoded_bits r.elt + point_bits
  | Vote v -> bits v.i + bits v.j + v.smaller + v.larger + 2
  | Child_sum c -> bits c.i + bits c.parent_mid + bits c.smaller + bits c.larger

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

   The paper's protocol: every copy-tree edge is a de Bruijn hop, every
   rendezvous and vote is routed hop-by-hop to the hashed pair point, and
   every payload is its own wire message.  Kept executable as the
   reference the differential test layer runs the counting path
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

(* ------------------------------------------------------------------------ *)
(* Rank counting on the aggregation tree (the default path).                *)
(* ------------------------------------------------------------------------ *)

(* b = s = 5: pivots per sampled pass, and entries per bucket sample.  The
   sequential probe of EXPERIMENTS.md §S21 picked it: 10.9 tree passes per
   selection on seap-closed's sizes against 12.3 at 4 and 9.9 at 6, while a
   full message of 6 counts and 30 elements stays below 1 kbit at n=65536,
   where 6 would not. *)
let fanout = 5

(* The entries one message samples, (b+1)·s.  A pass without pivots has one
   bucket, and its sample takes all of them. *)
let sample_max = (fanout + 1) * fanout

(* Buckets of a priority-range pass: counts only, so its message stays below
   a sampled pass's.  16 gives a selection the same pass count on nearly
   every batch of the Seap workloads (EXPERIMENTS.md §S22). *)
let range_buckets = 16

(* A sample entry orders by (tag, element).  Equal tags fall to the smaller
   element, never to arrival order, so merging is exact: the bottom-s of a
   union is the bottom-s of its parts' bottom-s, whatever the merge order. *)
let[@inline] precedes (t1 : int) e1 (t2 : int) e2 = t1 < t2 || (t1 = t2 && Element.compare e1 e2 < 0)

(* The sub-aggregates of one up pass, in slots.  Slot q holds, per bucket j
   < [nb], the count [cnt.(q·range_buckets + j)] of the subtree's
   candidates in the bucket and their bottom-[cap] sample: [len] entries
   from [q·sample_max + j·cap], ascending by (tag, element).  In the first
   pass it also holds the subtree's smallest and largest candidate.  A vnode's
   value in the pass is its slot, or -1 when its subtree holds no candidate
   in range; a merge returns the child's slot to the free stack.  Only a
   node's middle vnode takes a slot of its own and a merge never takes
   one, so n slots suffice. *)
type pool = {
  mutable nb : int;  (** buckets this pass: pivots + 1 *)
  mutable cap : int;  (** sample entries per bucket this pass *)
  mutable extremes : bool;  (** this pass also carries the smallest and largest *)
  cnt : int array;
  len : int array;
  tags : int array;
  elts : Element.t array;
  smallest : Element.t array;
  largest : Element.t array;
  free : int array;
  mutable nfree : int;
  m_tags : int array;  (** merge scratch, [sample_max] entries *)
  m_elts : Element.t array;
}

let pool_create ~slots ~dummy =
  let cells = slots * range_buckets in
  {
    nb = 1;
    cap = fanout;
    extremes = false;
    cnt = Array.make cells 0;
    len = Array.make cells 0;
    tags = Array.make (slots * sample_max) 0;
    elts = Array.make (slots * sample_max) dummy;
    smallest = Array.make slots dummy;
    largest = Array.make slots dummy;
    free = Array.make slots 0;
    nfree = 0;
    m_tags = Array.make sample_max 0;
    m_elts = Array.make sample_max dummy;
  }

(* Where bucket [j]'s sample starts in slot [q]. *)
let[@inline] entries p q j = (q * sample_max) + (j * p.cap)

(* Every slot back on the free stack: the start of a pass. *)
let reset_slots p =
  let slots = Array.length p.free in
  for q = 0 to slots - 1 do
    p.free.(q) <- slots - 1 - q
  done;
  p.nfree <- slots

let alloc_slot p =
  if p.nfree = 0 then failwith "Kselect: counting pass ran out of slots";
  p.nfree <- p.nfree - 1;
  let q = p.free.(p.nfree) in
  let c = q * range_buckets in
  Array.fill p.cnt c p.nb 0;
  Array.fill p.len c p.nb 0;
  q

let free_slot p q =
  p.free.(p.nfree) <- q;
  p.nfree <- p.nfree + 1

(* Offer one entry to the sample of cell [c], whose entries start at
   [base], kept sorted by insertion. *)
let offer p c base tag e =
  let l = p.len.(c) in
  if l < p.cap || precedes tag e p.tags.(base + l - 1) p.elts.(base + l - 1) then begin
    let i = ref (if l < p.cap then l else l - 1) in
    while !i > 0 && precedes tag e p.tags.(base + !i - 1) p.elts.(base + !i - 1) do
      p.tags.(base + !i) <- p.tags.(base + !i - 1);
      p.elts.(base + !i) <- p.elts.(base + !i - 1);
      decr i
    done;
    p.tags.(base + !i) <- tag;
    p.elts.(base + !i) <- e;
    if l < p.cap then p.len.(c) <- l + 1
  end

(* Merge slot [src] into slot [dst], bucket by bucket: counts add, samples
   merge to their bottom [cap]. *)
let merge_slots p ~dst ~src =
  for j = 0 to p.nb - 1 do
    let cd = (dst * range_buckets) + j and cs = (src * range_buckets) + j in
    p.cnt.(cd) <- p.cnt.(cd) + p.cnt.(cs);
    let ld = p.len.(cd) and ls = p.len.(cs) in
    if ls > 0 then begin
      let bd = entries p dst j and bs = entries p src j in
      let i = ref 0 and t = ref 0 and o = ref 0 in
      while !o < p.cap && (!i < ld || !t < ls) do
        if
          !t >= ls
          || (!i < ld && precedes p.tags.(bd + !i) p.elts.(bd + !i) p.tags.(bs + !t) p.elts.(bs + !t))
        then begin
          p.m_tags.(!o) <- p.tags.(bd + !i);
          p.m_elts.(!o) <- p.elts.(bd + !i);
          incr i
        end
        else begin
          p.m_tags.(!o) <- p.tags.(bs + !t);
          p.m_elts.(!o) <- p.elts.(bs + !t);
          incr t
        end;
        incr o
      done;
      Array.blit p.m_tags 0 p.tags bd !o;
      Array.blit p.m_elts 0 p.elts bd !o;
      p.len.(cd) <- !o
    end
  done;
  if p.extremes then begin
    if Element.compare p.smallest.(src) p.smallest.(dst) < 0 then p.smallest.(dst) <- p.smallest.(src);
    if Element.compare p.largest.(src) p.largest.(dst) > 0 then p.largest.(dst) <- p.largest.(src)
  end

let combine_slots p a c =
  if a < 0 then c
  else if c < 0 then a
  else begin
    merge_slots p ~dst:a ~src:c;
    free_slot p c;
    a
  end

(* A subtree's message: one count per bucket plus its sample's elements
   (a tag is recomputed from its element, so it is not sent), and in the
   first pass its smallest and largest candidate. *)
let slot_bits p q =
  if q < 0 then p.nb
  else begin
    let bits = ref 0 in
    for j = 0 to p.nb - 1 do
      let c = (q * range_buckets) + j and base = entries p q j in
      bits := !bits + Bitsize.bits_of_int p.cnt.(c);
      for t = 0 to p.len.(c) - 1 do
        bits := !bits + Element.encoded_bits p.elts.(base + t)
      done
    done;
    if p.extremes then
      bits := !bits + Element.encoded_bits p.smallest.(q) + Element.encoded_bits p.largest.(q);
    !bits
  end

let bottom_s_merge a b =
  match a @ b with
  | [] -> []
  | (_, dummy) :: _ ->
      let p = pool_create ~slots:2 ~dummy in
      reset_slots p;
      let fill l =
        let q = alloc_slot p in
        List.iter (fun (tag, e) -> offer p (q * range_buckets) (entries p q 0) tag e) l;
        q
      in
      let qa = fill a in
      let q = combine_slots p qa (fill b) in
      let base = entries p q 0 in
      List.init p.len.(q * range_buckets) (fun t -> (p.tags.(base + t), p.elts.(base + t)))

(* The pivots of a priority-range pass into [pivots]: [plo, phi], at least
   [range_buckets] priorities wide, cut into [range_buckets] parts whose
   widths differ by at most one.  The pivot below a part that starts at
   priority a stands for "priority below a": the element of priority a at
   origin -1, below every real element of that priority.  Every node
   derives them from [plo] and [phi], so only those two travel.  Returns
   the pivot count. *)
let range_pivots pivots ~plo ~phi =
  let span = phi - plo + 1 in
  let width = span / range_buckets and extra = span mod range_buckets in
  for j = 1 to range_buckets - 1 do
    pivots.(j - 1) <- Element.make ~prio:(plo + (j * width) + min j extra) ~origin:(-1) ~seq:0 ()
  done;
  range_buckets - 1

(* The counting selection.  Iteration i is one broadcast and one up pass:
   the broadcast carries the bucket the anchor chose from iteration i-1
   (each node drops its candidates outside it) and the new pivots; the up
   pass carries, per bucket, the count of candidates in it and, on a
   sampled pass, their bottom-s sample under the seeded tag h(seed, i, e).
   The anchor keeps the bucket holding rank k and knows the priorities it
   can hold, [plo, phi].  Once the bucket's count is at most its sample's
   size, the sample is the whole bucket and the k-th element is read off
   it.  Otherwise the next pass is
   - a priority-range pass while the bucket exceeds one message and
     [plo, phi] spans at least [range_buckets] priorities: that many equal
     parts of it, counts only;
   - a collect (no pivots, a [sample_max] sample, so all of it) once the
     bucket fits one message, or, with no sample in hand, a pass of the
     same shape that draws one;
   - a sampled pass otherwise: the sorted sample, or [fanout] of it evenly
     spaced, as pivots.
   Iteration 0 has no pivots: one bucket, the whole set, with its smallest
   and largest element for the first [plo, phi] and a sample two entries
   short, so that its message holds no more elements than a sampled
   pass's.  Given a [bound] [blo, bhi] instead, iteration 0 is the pass
   the loop would pick for a bucket of m candidates spanning those
   priorities: a range pass over it, a collect when m fits one message,
   or a collect-shaped pass that draws a sample when the span is under
   [range_buckets].  The bound is taken as the first [plo, phi] and never
   checked: a candidate outside it lands in an edge bucket, the counts
   stay exact, and a wrong bound costs passes, not the answer.  Range
   passes narrow [plo, phi] 16-fold each and sampled ones
   shrink the bucket by about (s+2)/2, so a selection takes at most
   log_16 of the priority span plus O(log m) passes w.h.p.  On the Seap
   workloads' priorities it takes the same four on nearly every batch:
   extremes, two ranges, collect; with Seap's bound, two ranges and a
   collect.

   [below.(node)] counts the node's candidates at or below the answer,
   from what the passes told it: a candidate dropped below the kept
   bucket's range, and at the end one of the last range's up to the
   answer.  Summed over a subtree these are its counts in the buckets
   below every kept one plus its last-bucket entries up to the answer,
   which every vnode has seen in its children's messages. *)
let select_counting ~seed ~net ~ldb ~cands ~m ~k ~dummy ~bound =
  let trace = Phase.trace net and tree = Phase.tree net in
  let n = Ldb.n ldb in
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  let cand_len = Array.map Array.length cands in
  let p = pool_create ~slots:n ~dummy in
  let hash = Hashing.create ~seed:(seed + 7919) in
  (* The running range (lo, hi], the priorities it can hold [plo, phi], the
     pivots and what the broadcast announcing them costs, the sample size
     per bucket, and the anchor's last choice. *)
  let lo = ref None and hi = ref None in
  let plo = ref 0 and phi = ref 0 in
  let pivots = Array.make (range_buckets - 1) dummy and npiv = ref 0 in
  let pivot_bits = ref 0 and cap = ref (sample_max - 2) in
  (match bound with
  | None -> ()
  | Some (blo, bhi) ->
      plo := blo;
      phi := bhi;
      if m > sample_max && bhi - blo + 1 >= range_buckets then begin
        npiv := range_pivots pivots ~plo:blo ~phi:bhi;
        pivot_bits := Bitsize.bits_of_int blo + Bitsize.bits_of_int bhi;
        cap := 0
      end
      else cap := sample_max);
  let chosen = ref 0 in
  let k = ref k and c = ref m in
  let answer = ref None and iter = ref 0 and trail = ref [] in
  let below = Array.make n 0 in
  let above_lo e = match !lo with None -> true | Some l -> Element.compare l e < 0 in
  let below_hi e = match !hi with None -> true | Some h -> Element.compare e h <= 0 in
  while Option.is_none !answer do
    let i = !iter in
    add (Phase.broadcast net ~bits:(Bitsize.bits_of_int !chosen + !pivot_bits));
    (* Every node keeps its candidates in the chosen bucket only. *)
    if i > 0 then
      for node = 0 to n - 1 do
        let cs = cands.(node) in
        let kept = ref 0 in
        for t = 0 to cand_len.(node) - 1 do
          let e = cs.(t) in
          if not (above_lo e) then below.(node) <- below.(node) + 1
          else if below_hi e then begin
            cs.(!kept) <- e;
            incr kept
          end
        done;
        cand_len.(node) <- !kept
      done;
    p.nb <- !npiv + 1;
    p.cap <- !cap;
    p.extremes <- i = 0 && Option.is_none bound;
    reset_slots p;
    let local v =
      let node = Ldb.owner v in
      if Ldb.kind v <> Ldb.Middle || cand_len.(node) = 0 || not (Aggtree.in_tree tree v) then -1
      else begin
        let q = alloc_slot p in
        let cs = cands.(node) in
        if p.extremes then begin
          p.smallest.(q) <- cs.(0);
          p.largest.(q) <- cs.(0)
        end;
        for t = 0 to cand_len.(node) - 1 do
          let e = cs.(t) in
          let j = ref 0 in
          while !j < !npiv && Element.compare pivots.(!j) e < 0 do
            incr j
          done;
          let cell = (q * range_buckets) + !j in
          p.cnt.(cell) <- p.cnt.(cell) + 1;
          if p.cap > 0 then begin
            let tag =
              Hashing.pair hash (Hashing.pair hash (Hashing.pair hash i e.prio) e.origin) e.seq
            in
            offer p cell (entries p q !j) tag e
          end;
          if p.extremes then begin
            if Element.compare e p.smallest.(q) < 0 then p.smallest.(q) <- e;
            if Element.compare e p.largest.(q) > 0 then p.largest.(q) <- e
          end
        done;
        q
      end
    in
    let root, _, r = Phase.up net ~local ~combine:(combine_slots p) ~size_bits:(slot_bits p) in
    add r;
    (* Every candidate is counted once, in one of iteration 0's buckets. *)
    let base = root * range_buckets in
    if i = 0 then begin
      let counted = ref 0 in
      if root >= 0 then
        for j = 0 to p.nb - 1 do
          counted := !counted + p.cnt.(base + j)
        done;
      if !counted <> m then
        failwith (Printf.sprintf "Kselect: the tree counted %d of %d candidates" !counted m)
    end;
    (* The bucket holding rank k, and k's rank inside it. *)
    let j = ref 0 in
    while !k > p.cnt.(base + !j) do
      k := !k - p.cnt.(base + !j);
      incr j
    done;
    let cell = base + !j in
    c := p.cnt.(cell);
    let sample = Array.sub p.elts (entries p root !j) p.len.(cell) in
    Array.sort Element.compare sample;
    let len = Array.length sample in
    if !c <= len then begin
      let e_k = sample.(!k - 1) in
      answer := Some e_k;
      for node = 0 to n - 1 do
        let cs = cands.(node) in
        for t = 0 to cand_len.(node) - 1 do
          if Element.compare cs.(t) e_k <= 0 then below.(node) <- below.(node) + 1
        done
      done
    end
    else begin
      if p.extremes then begin
        plo := p.smallest.(root).prio;
        phi := p.largest.(root).prio
      end;
      (* A range pivot's priority starts the part above it; a sampled one
         is an element of the parts on both sides. *)
      if !j > 0 then begin
        lo := Some pivots.(!j - 1);
        plo := pivots.(!j - 1).prio
      end;
      if !j < !npiv then begin
        hi := Some pivots.(!j);
        phi := (if pivots.(!j).origin < 0 then pivots.(!j).prio - 1 else pivots.(!j).prio)
      end;
      chosen := !j;
      pivot_bits := 0;
      (* A span past max_int wraps negative and takes the sampled path. *)
      if !c > sample_max && !phi - !plo + 1 >= range_buckets then begin
        npiv := range_pivots pivots ~plo:!plo ~phi:!phi;
        pivot_bits := Bitsize.bits_of_int !plo + Bitsize.bits_of_int !phi;
        cap := 0
      end
      else if !c <= sample_max || len = 0 then begin
        npiv := 0;
        cap := sample_max
      end
      else begin
        let b = min fanout len in
        for t = 0 to b - 1 do
          pivots.(t) <- sample.((((t + 1) * (len + 1)) / (b + 1)) - 1);
          pivot_bits := !pivot_bits + Element.encoded_bits pivots.(t)
        done;
        npiv := b;
        cap := fanout
      end
    end;
    trail := !c :: !trail;
    Dpq_obs.Trace.kselect_round trace ~stage:"phase2" ~iteration:(i + 1) ~candidates:!c
      ~messages:!report.Phase.messages;
    incr iter
  done;
  Dpq_obs.Trace.kselect_round trace ~stage:"phase3" ~iteration:0 ~candidates:!c
    ~messages:!report.Phase.messages;
  let diagnostics =
    {
      initial_candidates = m;
      phase1_iterations = 0;
      phase1_skipped = true;
      phase1_candidates = [];
      phase2_candidates = List.rev !trail;
      phase2_rep_counts = [];
      mean_trees_per_node = 0.0;
      phase3_candidates = !c;
    }
  in
  { element = Option.get !answer; report = !report; diagnostics; le_counts = below }

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

(* The paper's Phases 1-3, with the pairwise sorting stage. *)
let select_pairwise ~seed ~rep_factor ~net ~ldb ~elements ~cands ~m ~k ~dummy =
  let trace = Phase.trace net and faults = Phase.faults net and sched = Phase.sched net in
  let n = Ldb.n ldb in
  let st =
    {
      net;
      ldb;
      cands;
      cand_len = Array.map Array.length cands;
      scratch = Array.make (Array.fold_left (fun acc cs -> max acc (Array.length cs)) 0 cands) dummy;
      reps =
        {
          elt_of_pos = Array.make (m + 1) dummy;
          drawn = Array.make m dummy;
          pos_lo = Array.make n 0;
          pos_count = Array.make n 0;
        };
      n_remaining = m;
      k;
      prune = None;
      report = Phase.empty_report;
      rng = Rng.create ~seed;
      hash_pos = Hashing.create ~seed:(seed + 31337);
      hash_pair = Hashing.create ~seed:(seed + 65537);
    }
  in
  (* The element of each order 1..n' of the representatives just drawn. *)
  let sorting_stage ~n' =
    let by_order, parts =
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
  let iters1_run = ref 0 in
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
  done;
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
      phase1_skipped = false;
      phase1_candidates = List.rev !diag_p1;
      phase2_candidates = List.rev !diag_p2;
      phase2_rep_counts = List.rev !diag_reps;
      mean_trees_per_node =
        (if !stages = 0 then 0.0
         else float_of_int !participations /. float_of_int (n * !stages));
      phase3_candidates = phase3_n;
    }
  in
  let le_counts =
    Array.map
      (List.fold_left (fun acc e -> if Element.compare e element <= 0 then acc + 1 else acc) 0)
      elements
  in
  { element; report = st.report; diagnostics; le_counts }

let select ?(seed = 1) ?(rep_factor = 4.0) ?(impl : impl = `Counting) ?bound ~net ~elements ~k () =
  let ldb = Aggtree.ldb (Phase.tree net) in
  if Array.length elements <> Ldb.n ldb then
    invalid_arg "Kselect.select: elements array length differs from node count";
  let cands = Array.map Array.of_list elements in
  let m = Array.fold_left (fun acc cs -> acc + Array.length cs) 0 cands in
  if k < 1 || k > m then
    invalid_arg (Printf.sprintf "Kselect.select: k=%d outside [1,%d]" k m);
  let dummy = (Option.get (Array.find_opt (fun cs -> cs <> [||]) cands)).(0) in
  match impl with
  | `Counting -> select_counting ~seed ~net ~ldb ~cands ~m ~k ~dummy ~bound
  | `Pairwise -> select_pairwise ~seed ~rep_factor ~net ~ldb ~elements ~cands ~m ~k ~dummy
