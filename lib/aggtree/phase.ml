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
    busiest_node_load = Metrics.max_node_load m;
  }

(* Wire overhead of a tree message: source and destination vnode ids. *)
let header_bits tree =
  2 * Dpq_util.Bitsize.bits_of_nat_bound (max 1 ((3 * Aggtree.n tree) - 1))

(* Every tree message is one vnode id; the pass running on the net says
   what its delivery does and what its payload costs on the wire. *)
type hooks = {
  mutable deliver : Ldb.vnode Sync.t -> Ldb.vnode -> unit;
  mutable bits : Ldb.vnode -> int;
}

type net = {
  tree : Aggtree.t;
  trace : Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  eng : Ldb.vnode Sync.t;
  hooks : hooks;
  received : int array; (* up-pass scratch: children heard from, per vnode *)
  mutable busy : bool;
}

let idle_deliver _ _ = failwith "Phase: tree message delivered outside a pass"
let idle_bits _ = 0

let net ?trace ?faults ?sched tree =
  let n = Aggtree.n tree in
  let header = header_bits tree in
  let hooks = { deliver = idle_deliver; bits = idle_bits } in
  let eng =
    Sync.create ~n
      ~size_bits:(fun v -> header + hooks.bits v)
      ~handler:(fun eng ~dst:_ ~src:_ v -> hooks.deliver eng v)
      ?trace ?faults ?sched ()
  in
  { tree; trace; faults; sched; eng; hooks; received = Array.make (3 * n) 0; busy = false }

let tree net = net.tree
let trace net = net.trace
let faults net = net.faults
let sched net = net.sched

(* Open a pass: the engine is quiescent between passes, and its reset
   makes this pass cost and draw faults exactly as on a fresh engine. *)
let start net name =
  if net.busy then
    invalid_arg "Phase: the net is running a pass (re-entered, or an earlier pass failed)";
  net.busy <- true;
  Sync.reset_clock net.eng;
  Trace.phase_start net.trace name

let install net ~deliver ~bits =
  net.hooks.deliver <- deliver;
  net.hooks.bits <- bits

let finish net span name =
  let rounds = Sync.run_to_quiescence net.eng in
  let report = report_of_metrics (Sync.metrics net.eng) rounds in
  trace_phase_end net.trace span name report;
  net.hooks.deliver <- idle_deliver;
  net.hooks.bits <- idle_bits;
  net.busy <- false;
  report

(* Send each of [v]'s children its own id, in label order. *)
let rec send_children eng v = function
  | [] -> ()
  | c :: cs ->
      Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner c) c;
      send_children eng v cs

(* [sub.(v)] is [v]'s sub-aggregate once [v] completes; vnodes outside the
   tree never complete and have only their own value. *)
type 'a memo = { mtree : Aggtree.t; own : 'a array; sub : 'a array }

let rec fold_subs combine sub acc = function
  | [] -> acc
  | c :: cs -> fold_subs combine sub (combine acc sub.(c)) cs

let up net ~local ~combine ~size_bits =
  let span = start net "up" in
  let tree = net.tree in
  let nv = Array.length net.received in
  let own = Array.init nv local in
  let sub = Array.make nv own.(0) in
  let received = net.received in
  Array.fill received 0 nv 0;
  let result = ref None in
  (* All child sub-aggregates are in: combine in deterministic order (own
     value first, then children by label), store the total and send the
     parent this vnode's id. *)
  let complete eng v =
    let total = fold_subs combine sub own.(v) (Aggtree.children tree v) in
    sub.(v) <- total;
    match Aggtree.parent tree v with
    | None -> result := Some total
    | Some p -> Sync.send eng ~src:(Ldb.owner v) ~dst:(Ldb.owner p) v
  in
  install net
    ~deliver:(fun eng c ->
      let v = Option.get (Aggtree.parent tree c) in
      received.(v) <- received.(v) + 1;
      if received.(v) = List.length (Aggtree.children tree v) then complete eng v)
    ~bits:(fun c -> size_bits sub.(c));
  (* Kick off: leaves complete immediately.  Vnodes of removed nodes also
     have no children but are not in the tree — skipping them keeps the
     root's result the only one written. *)
  for v = 0 to nv - 1 do
    if Aggtree.is_leaf tree v && Aggtree.in_tree tree v then complete net.eng v
  done;
  let report = finish net span "up" in
  match !result with
  | Some value -> (value, { mtree = tree; own; sub }, report)
  | None -> failwith "Phase.up: aggregation did not reach the anchor"

(* The recursion follows the tree: its depth is the tree's height. *)
let derive net ~local ~combine =
  let tree = net.tree in
  let nv = Array.length net.received in
  let own = Array.init nv local in
  let sub = Array.make nv own.(0) in
  let rec complete v =
    let children = Aggtree.children tree v in
    complete_all children;
    sub.(v) <- fold_subs combine sub own.(v) children
  and complete_all = function
    | [] -> ()
    | c :: cs ->
        complete c;
        complete_all cs
  in
  let root = Aggtree.root tree in
  complete root;
  (sub.(root), { mtree = tree; own; sub })

let memo_own memo v = memo.own.(v)
let memo_sub memo v = memo.sub.(v)

let count_bits = 31

let pack_counts a b =
  if a < 0 || b < 0 || a lsr count_bits <> 0 || b lsr count_bits <> 0 then
    invalid_arg (Printf.sprintf "Phase.pack_counts: %d or %d outside [0, 2^31)" a b);
  (a lsl count_bits) lor b

let first_count x = x lsr count_bits
let second_count x = x land ((1 lsl count_bits) - 1)

let check_memo net memo name =
  if memo.mtree != net.tree then invalid_arg (name ^ ": the memo is from another tree")

(* Vnode-major starts: [starts.(v * w + j)] is column [j]'s start at [v].
   A vnode's own piece comes first, then its children's in label order:
   each child starts where the previous part, [x] at [prev], ends. *)
let rec deal starts w size sub prev x = function
  | [] -> ()
  | c :: cs ->
      for j = 0 to w - 1 do
        starts.((c * w) + j) <- starts.(prev + j) + size x j
      done;
      deal starts w size sub (c * w) sub.(c) cs

let cut_bits ~limit start size =
  let hi = min (start + size - 1) limit in
  if hi < start then 2 else Dpq_util.Bitsize.interval_bits ~lo:start ~hi

let positions net ~memo ~first ~size ~bits ~fixed_bits =
  check_memo net memo "Phase.positions";
  let span = start net "down" in
  let tree = net.tree in
  let nv = Array.length net.received in
  let w = Array.length first in
  let starts = Array.make (nv * w) (-1) in
  (* Every child's starts are set before the first send: a send along a
     virtual edge delivers at once. *)
  let handle eng v =
    let children = Aggtree.children tree v in
    deal starts w size memo.sub (v * w) memo.own.(v) children;
    send_children eng v children
  in
  install net ~deliver:handle ~bits:(fun c ->
      let b = ref fixed_bits and sub = memo.sub.(c) in
      for j = 0 to w - 1 do
        b := !b + bits j starts.((c * w) + j) (size sub j)
      done;
      !b);
  let root = Aggtree.root tree in
  Array.blit first 0 starts (root * w) w;
  handle net.eng root;
  let report = finish net span "down" in
  (starts, report)

let broadcast net ~bits =
  let span = start net "broadcast" in
  let tree = net.tree in
  install net
    ~deliver:(fun eng c -> send_children eng c (Aggtree.children tree c))
    ~bits:(fun _ -> bits);
  let root = Aggtree.root tree in
  send_children net.eng root (Aggtree.children tree root);
  finish net span "broadcast"
