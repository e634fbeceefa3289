type vkind = Left | Middle | Right
type vnode = int

type t = {
  n : int;
  seed : int;
  present : bool array; (* indexed by node id; false once removed *)
  labels : float array; (* indexed by vnode id = owner*3 + kind *)
  cycle : vnode array; (* the present nodes' vnodes sorted by label *)
  cycle_pos : int array; (* inverse of [cycle]; -1 for absent vnodes *)
  d : int; (* emulated de Bruijn dimension *)
  clabels : float array; (* labels in cycle order: [labels.(cycle.(pos))] *)
  pidx : int array; (* bucket index for [manager_of_point], one bucket per
                       1/2^k of [0,1) where 2^k >= the cycle length:
                       greatest cycle position whose label <= b/2^k, or -1 *)
  mid_steps : int array; (* per cycle position, the steps to the nearest
                            middle vnode forward (low 31 bits) and
                            backward (high bits) *)
}

let kind_code = function Left -> 0 | Middle -> 1 | Right -> 2
let vnode ~owner k = (owner * 3) + kind_code k
let owner v = v / 3

let kind v =
  match v mod 3 with
  | 0 -> Left
  | 1 -> Middle
  | _ -> Right

let kind_to_string = function
  | Left -> "L"
  | Middle -> "M"
  | Right -> "R"

let n t = t.n
let label t v = t.labels.(v)

(* The present nodes' vnodes sorted by label.  m ↦ m/2 and m ↦ (m+1)/2
   keep order, so sorting the n middles sorts the left and the right
   labels too, and the cycle is the merge of the three runs: an n-element
   sort and a linear merge instead of a 3n-element sort.  Hashed labels
   never tie; were two equal, they would go in node-id order within a run
   and in left, middle, right order across runs. *)
let sorted_cycle labels present =
  let n = Array.length present in
  let ids = Array.of_list (List.filter (fun i -> present.(i)) (List.init n Fun.id)) in
  Array.stable_sort (fun a b -> Float.compare labels.((3 * a) + 1) labels.((3 * b) + 1)) ids;
  let k = Array.length ids in
  let cycle = Array.make (3 * k) 0 in
  (* [next.(j)]: the next id of run j (vnode code j: left, middle, right). *)
  let next = Array.make 3 0 in
  let[@inline] head j = labels.((3 * ids.(next.(j))) + j) in
  for o = 0 to (3 * k) - 1 do
    let best = ref (-1) in
    for j = 0 to 2 do
      if next.(j) < k && (!best < 0 || head j < head !best) then best := j
    done;
    let j = !best in
    cycle.(o) <- (3 * ids.(next.(j))) + j;
    next.(j) <- next.(j) + 1
  done;
  cycle

let build_from_middles ?present ~seed middles =
  let n = Array.length middles in
  let present =
    match present with
    | None -> Array.make n true
    | Some p ->
        if Array.length p <> n then
          invalid_arg "Ldb.build_from_middles: present mask length mismatch";
        if not (Array.exists Fun.id p) then
          invalid_arg "Ldb.build_from_middles: all nodes absent";
        Array.copy p
  in
  let labels = Array.make (3 * n) 0.0 in
  Array.iteri
    (fun i m ->
      labels.((i * 3) + 0) <- m /. 2.0;
      labels.((i * 3) + 1) <- m;
      labels.((i * 3) + 2) <- (m +. 1.0) /. 2.0)
    middles;
  (* Only present nodes contribute vnodes to the cycle; absent vnodes keep
     their labels (ids stay stable) but take no part in routing. *)
  let cycle = sorted_cycle labels present in
  let cycle_pos = Array.make (3 * n) (-1) in
  Array.iteri (fun pos v -> cycle_pos.(v) <- pos) cycle;
  let d = Dpq_util.Bitsize.log2_ceil (max 2 n) + 2 in
  let len = Array.length cycle in
  let clabels = Array.map (fun v -> labels.(v)) cycle in
  let buckets = 1 lsl Dpq_util.Bitsize.log2_ceil len in
  let pidx = Array.make buckets (-1) in
  let pos = ref (-1) in
  for b = 0 to buckets - 1 do
    let lim = float_of_int b /. float_of_int buckets in
    while !pos + 1 < len && clabels.(!pos + 1) <= lim do incr pos done;
    pidx.(b) <- !pos
  done;
  (* Steps to the nearest middle vnode in each direction, in one sweep
     each way around the cycle from a middle vnode (every present node has
     one, so some position is a middle). *)
  let is_middle pos = cycle.(pos) mod 3 = 1 in
  let m0 = ref 0 in
  while not (is_middle !m0) do incr m0 done;
  let mid_steps = Array.make len 0 in
  let f = ref 0 and b = ref 0 in
  for i = 1 to len - 1 do
    let pos = !m0 - i in
    let pos = if pos < 0 then pos + len else pos in
    f := if is_middle pos then 0 else !f + 1;
    mid_steps.(pos) <- !f
  done;
  for i = 1 to len - 1 do
    let pos = !m0 + i in
    let pos = if pos >= len then pos - len else pos in
    b := if is_middle pos then 0 else !b + 1;
    mid_steps.(pos) <- mid_steps.(pos) lor (!b lsl 31)
  done;
  { n; seed; present; labels; cycle; cycle_pos; d; clabels; pidx; mid_steps }

(* A hashed point's 53-bit mantissa [m] is the point [m·2^-53], exactly:
   [m] fits a double's mantissa and the scaling is a power of two. *)
let[@inline] point_of_mantissa m = float_of_int m *. 0x1p-53

let middle_label ~seed id =
  let h = Dpq_util.Hashing.create ~seed in
  point_of_mantissa (Dpq_util.Hashing.point h id)

let build ~n ~seed =
  if n < 1 then invalid_arg "Ldb.build: need n >= 1";
  build_from_middles ~seed (Array.init n (fun id -> middle_label ~seed id))

let vnodes_in_cycle_order t = Array.copy t.cycle

let succ t v =
  let pos = t.cycle_pos.(v) in
  t.cycle.((pos + 1) mod Array.length t.cycle)

let pred t v =
  let len = Array.length t.cycle in
  let pos = t.cycle_pos.(v) in
  t.cycle.((pos + len - 1) mod len)

(* The cycle position of the manager of [p]: the greatest label <= p,
   wrapping to the maximum label if p is below all labels.  The bucket
   index has at least as many buckets as the cycle has vnodes, so it jumps
   to the last position at or below p's bucket start and a forward scan of
   expected O(1) labels (they are hash-uniform) finishes the job, at every
   n.  This sits on every routing step, where it replaced a full binary
   search over the cycle; it is inlined, so the walk below never boxes its
   float argument, and neither does [manager_of_mantissa], whose int
   argument crosses the library boundary unboxed and becomes a float only
   here. *)
let[@inline] manager_pos t p =
  let len = Array.length t.cycle in
  if p < 0.0 then len - 1
  else begin
    let buckets = Array.length t.pidx in
    let b = int_of_float (p *. float_of_int buckets) in
    let b = if b >= buckets then buckets - 1 else b in
    let i = ref t.pidx.(b) in
    while !i + 1 < len && t.clabels.(!i + 1) <= p do incr i done;
    if !i < 0 then len - 1 else !i
  end

let manager_of_point t p = t.cycle.(manager_pos t p)
let manager_of_mantissa t m = t.cycle.(manager_pos t (point_of_mantissa m))

let min_vnode t = t.cycle.(0)

type hop = Linear of vnode * vnode | Virtual of vnode * vnode

(* Walk linear edges from [v] to the manager of [p], taking the shorter
   direction around the cycle. *)
let linear_walk t v p =
  let target = manager_of_point t p in
  let len = Array.length t.cycle in
  let pv = t.cycle_pos.(v) and pt = t.cycle_pos.(target) in
  let fwd = (pt - pv + len) mod len in
  let bwd = (pv - pt + len) mod len in
  let steps, dir = if fwd <= bwd then (fwd, 1) else (bwd, -1) in
  let rec go cur i acc =
    if i = steps then List.rev acc
    else
      let nxt = t.cycle.((t.cycle_pos.(cur) + dir + len) mod len) in
      go nxt (i + 1) (Linear (cur, nxt) :: acc)
  in
  go v 0 []

(* Walk linear edges from [v] to the middle virtual node whose label is
   closest to the real number [p] (no wrap-around: real distance, not
   circular).  The de Bruijn map x -> (x+c)/2 is discontinuous at the 0/1
   boundary, so hopping from a middle on the far side of the wrap would land
   the message half a circle away; the real-nearest middle is always within
   the maximum label gap of [p]. *)
let seek_kind_near t v p k =
  let scan step =
    let rec go cur acc n =
      if n > Array.length t.cycle then None
      else if kind cur = k then Some (cur, List.rev acc)
      else
        let nxt = step cur in
        go nxt (Linear (cur, nxt) :: acc) (n + 1)
    in
    go v [] 0
  in
  let fwd = scan (succ t) and bwd = scan (pred t) in
  let dist = function
    | None -> infinity
    | Some (m, _) -> abs_float (t.labels.(m) -. p)
  in
  let choice = if dist fwd <= dist bwd then fwd else bwd in
  match choice with
  | Some r -> r
  | None -> failwith "Ldb.seek_kind_near: no virtual node of the requested kind"

let seek_middle_near t v p = seek_kind_near t v p Middle

let[@inline] bit_of_point p i =
  (* i-th bit of the binary expansion of p in [0,1), 1-based, MSB first. *)
  let x = p *. Float.of_int (1 lsl i) in
  int_of_float (floor x) land 1

let route t ~src ~point =
  if point < 0.0 || point >= 1.0 then invalid_arg "Ldb.route: point must be in [0,1)";
  let hops = ref [] in
  let visited = ref [ src ] in
  let push h v =
    hops := h :: !hops;
    visited := v :: !visited
  in
  let cur = ref src in
  (* The message tracks the *ideal* point of the emulated de Bruijn walk:
     p_{j+1} = (p_j + c_j)/2 with c_j = bit b_{d-j+1} of the target (LSB of
     the d-bit prefix first), so p_d is within 2^-d of [point].  Each hop is
     realized with local edges only: a short linear walk to the real-nearest
     middle node, its left/right virtual edge, and a short linear correction
     walk to the manager of the new ideal point. *)
  let p = ref (label t src) in
  for j = 1 to t.d do
    let c = bit_of_point point (t.d - j + 1) in
    (* 1. linear-walk to the middle virtual node closest to the ideal point *)
    let m, seek_hops = seek_middle_near t !cur !p in
    List.iter (fun h -> match h with Linear (_, v) | Virtual (_, v) -> push h v) seek_hops;
    cur := m;
    (* 2. take the owner's left or right virtual edge according to the bit *)
    let dst_kind = if c = 0 then Left else Right in
    let dst = vnode ~owner:(owner m) dst_kind in
    push (Virtual (m, dst)) dst;
    cur := dst;
    (* 3. advance the ideal point and correct locally *)
    p := (!p +. Float.of_int c) /. 2.0;
    let corr = linear_walk t !cur !p in
    List.iter (fun h -> match h with Linear (_, v) | Virtual (_, v) -> push h v) corr;
    cur := manager_of_point t !p
  done;
  (* Final linear walk to the manager of the target point. *)
  let final = linear_walk t !cur point in
  List.iter (fun h -> match h with Linear (_, v) | Virtual (_, v) -> push h v) final;
  (List.rev !visited, List.rev !hops)

(* [route] above materializes every hop constructor for diagnostics; the
   DHT's forwarding loop only ever uses the visited-node path, so
   [walk_route] produces exactly the same node sequence — equal, bit for
   bit, to [fst (route t ~src ~point)] — with index arithmetic on the sorted
   cycle, appending to a caller-owned buffer.  Every helper below is a
   top-level function of ints, so a walk allocates no closure, no hop and
   no boxed float; only the buffer's growth allocates.  The buffer stores
   vnode ids as 32-bit ints: half the footprint of an int array, in bytes
   the major GC does not scan.  It grows by half its size, so its slack
   stays small. *)
type path_buf = { mutable nodes : Bytes.t; mutable len : int }

let path_buf () = { nodes = Bytes.empty; len = 0 }
let path_clear b = b.len <- 0
let path_length b = b.len
let[@inline] path_get b i = Int32.to_int (Bytes.get_int32_ne b.nodes (4 * i))

let path_push b v =
  let i = b.len in
  if 4 * i = Bytes.length b.nodes then begin
    let a = Bytes.create (4 * max 256 (i + (i / 2))) in
    Bytes.blit b.nodes 0 a 0 (4 * i);
    b.nodes <- a
  end;
  Bytes.set_int32_ne b.nodes (4 * i) (Int32.of_int v);
  b.len <- i + 1

(* Cycle position [pos] offset by [i] steps in direction [dir]; valid for
   [i <= len], so one conditional correction replaces the double mod. *)
let cycle_at t pos i dir =
  let len = Array.length t.cycle in
  let j = pos + (dir * i) in
  let j = if j >= len then j - len else if j < 0 then j + len else j in
  t.cycle.(j)

(* Append the [steps] nodes walked from cycle position [pos] in [dir]. *)
let walk_steps t b pos steps dir =
  for i = 1 to steps do
    path_push b (cycle_at t pos i dir)
  done

(* Linear walk from [v] to [target], shorter direction, forward on ties —
   the same choice [linear_walk] makes. *)
let walk_to t b v target =
  let len = Array.length t.cycle in
  let pv = t.cycle_pos.(v) and pt = t.cycle_pos.(target) in
  let fwd = pt - pv in
  let fwd = if fwd < 0 then fwd + len else fwd in
  let bwd = if fwd = 0 then 0 else len - fwd in
  if fwd <= bwd then walk_steps t b pv fwd 1 else walk_steps t b pv bwd (-1)

(* The walk itself, shared by both entry points below; inlined into each,
   so neither boxes the point. *)
let[@inline] walk t b src point =
  if point < 0.0 || point >= 1.0 then invalid_arg "Ldb.route: point must be in [0,1)";
  let start = b.len in
  path_push b src;
  let cur = ref src in
  let p = ref t.labels.(src) in
  for j = 1 to t.d do
    let c = bit_of_point point (t.d - j + 1) in
    (* The middle vnode real-nearest to the ideal point, preferring forward
       on distance ties, exactly like [seek_kind_near]. *)
    let pos = t.cycle_pos.(!cur) in
    let steps = t.mid_steps.(pos) in
    let f = steps land 0x7fff_ffff and bk = steps lsr 31 in
    let df = abs_float (t.labels.(cycle_at t pos f 1) -. !p) in
    let db = abs_float (t.labels.(cycle_at t pos bk (-1)) -. !p) in
    let fwd = df <= db in
    let steps = if fwd then f else bk and dir = if fwd then 1 else -1 in
    walk_steps t b pos steps dir;
    let m = cycle_at t pos steps dir in
    let dst = vnode ~owner:(owner m) (if c = 0 then Left else Right) in
    path_push b dst;
    p := (!p +. Float.of_int c) /. 2.0;
    let target = t.cycle.(manager_pos t !p) in
    walk_to t b dst target;
    cur := target
  done;
  walk_to t b !cur t.cycle.(manager_pos t point);
  b.len - start

let walk_route t b ~src ~point = walk t b src point
let walk_route_mantissa t b ~src ~mantissa = walk t b src (point_of_mantissa mantissa)

let route_path t ~src ~point =
  let b = path_buf () in
  let len = walk_route t b ~src ~point in
  List.init len (path_get b)

let collect_walk push hops =
  List.iter (fun h -> match h with Linear (_, v) | Virtual (_, v) -> push h v) hops

let debruijn_hop t ~src ~from_point ~bit ~point =
  if bit <> 0 && bit <> 1 then invalid_arg "Ldb.debruijn_hop: bit must be 0 or 1";
  let hops = ref [] in
  let visited = ref [ src ] in
  let push h v =
    hops := h :: !hops;
    visited := v :: !visited
  in
  (* [from_point] is the ideal point [src] stands for; it can differ from
     label(src) by a wrap-around (the manager of a point near 0 sits at the
     top of the cycle), and the de Bruijn arithmetic must use the ideal
     value. *)
  let m, seek = seek_middle_near t src from_point in
  collect_walk push seek;
  let dst = vnode ~owner:(owner m) (if bit = 0 then Left else Right) in
  push (Virtual (m, dst)) dst;
  collect_walk push (linear_walk t dst point);
  (List.rev !visited, List.rev !hops)

let debruijn_hop_back t ~src ~from_point ~point =
  (* Reverse edge: from a node managing p to the manager of 2p (mod 1).
     If p < 1/2 the nearby Left virtual node l(w) satisfies m(w) = 2 l(w);
     otherwise the nearby Right virtual node r(w) has m(w) = 2 r(w) - 1.
     One virtual edge to m(w) lands within twice the seek distance of the
     target, then a short linear walk corrects. *)
  let hops = ref [] in
  let visited = ref [ src ] in
  let push h v =
    hops := h :: !hops;
    visited := v :: !visited
  in
  let p = from_point in
  let k = if p < 0.5 then Left else Right in
  let gate, seek = seek_kind_near t src p k in
  collect_walk push seek;
  let dst = vnode ~owner:(owner gate) Middle in
  push (Virtual (gate, dst)) dst;
  collect_walk push (linear_walk t dst point);
  (List.rev !visited, List.rev !hops)

let route_message_hops t ~src ~point =
  let _, hops = route t ~src ~point in
  List.fold_left
    (fun acc h ->
      match h with
      | Linear (a, b) -> if owner a = owner b then acc else acc + 1
      | Virtual _ -> acc)
    0 hops

let middles t = Array.init t.n (fun id -> t.labels.((id * 3) + 1))

let is_present t ~id =
  if id < 0 || id >= t.n then invalid_arg "Ldb.is_present: id out of range";
  t.present.(id)

let live_count t = Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 t.present

let join t =
  let ms = middles t in
  let fresh = middle_label ~seed:t.seed t.n in
  build_from_middles
    ~present:(Array.append t.present [| true |])
    ~seed:t.seed
    (Array.append ms [| fresh |])

let leave t ~id =
  if t.n = 1 then invalid_arg "Ldb.leave: cannot empty the network";
  if id < 0 || id >= t.n then invalid_arg "Ldb.leave: id out of range";
  let ms = middles t in
  let keep i _ = i <> id in
  let remaining = Array.of_list (List.filteri keep (Array.to_list ms)) in
  let present = Array.of_list (List.filteri keep (Array.to_list t.present)) in
  build_from_middles ~present ~seed:t.seed remaining

(* Unlike [leave], which densely re-indexes the survivors, [remove] keeps
   every node id stable — required by the permanent-loss fault mode, where
   DHT state, trace events and fault plans all name nodes by id. *)
let remove t ~id =
  if id < 0 || id >= t.n then invalid_arg "Ldb.remove: id out of range";
  if not t.present.(id) then invalid_arg "Ldb.remove: node already removed";
  if live_count t = 1 then invalid_arg "Ldb.remove: cannot empty the network";
  let present = Array.copy t.present in
  present.(id) <- false;
  build_from_middles ~present ~seed:t.seed (middles t)

let join_cost_hops t =
  (* The joining node contacts an arbitrary gateway (node 0's middle node),
     routes to its own future label position, and relinks pred/succ for its
     three virtual nodes: O(log n) + O(1) messages. *)
  let gateway = vnode ~owner:0 Middle in
  let fresh = middle_label ~seed:t.seed t.n in
  let relink_cost = 6 in
  route_message_hops t ~src:gateway ~point:fresh + relink_cost

let check_invariants t =
  let len = Array.length t.cycle in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_sorted i =
    if i >= len - 1 then Ok ()
    else if t.labels.(t.cycle.(i)) > t.labels.(t.cycle.(i + 1)) then
      err "cycle not sorted at position %d" i
    else check_sorted (i + 1)
  in
  let check_node id =
    let m = t.labels.((id * 3) + 1) in
    let l = t.labels.((id * 3) + 0) in
    let r = t.labels.((id * 3) + 2) in
    if abs_float (l -. (m /. 2.0)) > 1e-12 then err "l(v) <> m(v)/2 for node %d" id
    else if abs_float (r -. ((m +. 1.0) /. 2.0)) > 1e-12 then
      err "r(v) <> (m(v)+1)/2 for node %d" id
    else Ok ()
  in
  let rec check_nodes id =
    if id >= t.n then Ok ()
    else match check_node id with Ok () -> check_nodes (id + 1) | e -> e
  in
  let rec check_cycle i =
    if i >= len then Ok ()
    else
      let v = t.cycle.(i) in
      if pred t (succ t v) <> v then err "pred(succ(v)) <> v for vnode %d" v
      else check_cycle (i + 1)
  in
  match check_sorted 0 with
  | Error _ as e -> e
  | Ok () -> (
      match check_nodes 0 with Error _ as e -> e | Ok () -> check_cycle 0)
