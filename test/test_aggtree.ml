open Dpq_aggtree
module Ldb = Dpq_overlay.Ldb
module Interval = Dpq_util.Interval
module Trace = Dpq_obs.Trace
module Fault_plan = Dpq_simrt.Fault_plan

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let tree_of ~n ~seed = Aggtree.of_ldb (Ldb.build ~n ~seed)

(* ------------------------------------------------------------- Aggtree *)

let test_invariants_many_sizes () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          match Aggtree.check_invariants (tree_of ~n ~seed) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "n=%d seed=%d: %s" n seed e)
        [ 1; 2; 3 ])
    [ 1; 2; 3; 4; 7; 16; 50; 128 ]

let test_root_is_min_label () =
  let ldb = Ldb.build ~n:20 ~seed:8 in
  let tree = Aggtree.of_ldb ldb in
  checki "root = min vnode" (Ldb.min_vnode ldb) (Aggtree.root tree)

let test_parent_rules () =
  (* Appendix A: parent(m(v)) = l(v); parent(r(v)) = m(v);
     parent(l(v)) = pred(l(v)). *)
  let ldb = Ldb.build ~n:15 ~seed:2 in
  let tree = Aggtree.of_ldb ldb in
  let root = Aggtree.root tree in
  for id = 0 to 14 do
    let l = Ldb.vnode ~owner:id Ldb.Left in
    let m = Ldb.vnode ~owner:id Ldb.Middle in
    let r = Ldb.vnode ~owner:id Ldb.Right in
    if m <> root then checki "parent(m)=l" l (Option.get (Aggtree.parent tree m));
    if r <> root then checki "parent(r)=m" m (Option.get (Aggtree.parent tree r));
    if l <> root then checki "parent(l)=pred(l)" (Ldb.pred ldb l) (Option.get (Aggtree.parent tree l))
  done

let test_parents_have_smaller_labels () =
  let ldb = Ldb.build ~n:40 ~seed:3 in
  let tree = Aggtree.of_ldb ldb in
  Array.iter
    (fun v ->
      match Aggtree.parent tree v with
      | None -> ()
      | Some p -> checkb "label decreases" true (Ldb.label ldb p < Ldb.label ldb v))
    (Aggtree.vnodes tree)

let test_height_logarithmic () =
  (* Corollary A.4: height = O(log n) w.h.p.  Empirically height ≈ 5.6 log2 n;
     going 64 -> 4096 multiplies n by 64 but the height only by ~3. *)
  let h n =
    let heights = List.map (fun seed -> Aggtree.height (tree_of ~n ~seed)) [ 1; 2; 3; 4; 5 ] in
    Dpq_util.Stats.mean (List.map float_of_int heights)
  in
  let h64 = h 64 and h4096 = h 4096 in
  checkb "height grows like log n" true (h4096 < h64 *. 3.5);
  checkb "height nontrivial" true (h64 >= 2.0);
  List.iter
    (fun n ->
      let bound = (8.0 *. (log (float_of_int n) /. log 2.0)) +. 16.0 in
      checkb "height within c*log2 n" true (h n < bound))
    [ 64; 256; 1024; 4096 ]

let test_figure2_structure () =
  (* Paper Figure 2: an LDB of 2 real nodes (6 virtual nodes).  With labels
     m(u) < m(v) the cycle is l(u) < l(v) < m(u) < m(v) < r(u) < r(v) iff
     the middle labels are such that m(u)/2 < m(v)/2 < m(u), i.e. m(v) < 2 m(u).
     Pick a seed that gives this configuration and check the exact tree. *)
  let rec find_seed s =
    if s > 5000 then Alcotest.fail "no suitable seed found"
    else
      let ldb = Ldb.build ~n:2 ~seed:s in
      let mu = Ldb.label ldb (Ldb.vnode ~owner:0 Ldb.Middle) in
      let mv = Ldb.label ldb (Ldb.vnode ~owner:1 Ldb.Middle) in
      (* exact Figure-2 cycle: l(u) < l(v) < m(u) < m(v) < r(u) < r(v) *)
      if mu < mv && mv /. 2.0 < mu && mv < (mu +. 1.0) /. 2.0 then (s, ldb)
      else find_seed (s + 1)
  in
  let _, ldb = find_seed 1 in
  let tree = Aggtree.of_ldb ldb in
  let l k o = Ldb.vnode ~owner:o k in
  (* Cycle: l(u), l(v), m(u), m(v), r(u), r(v).  Tree (Fig 2, bold edges):
     root = l(u); children(l(u)) = { m(u), l(v) };
     children(l(v)) = { m(v) }; children(m(u)) = { r(u) };
     children(m(v)) = { r(v) }; leaves r(u), r(v). *)
  checki "root" (l Ldb.Left 0) (Aggtree.root tree);
  Alcotest.(check (list int))
    "children of l(u)"
    (List.sort compare [ l Ldb.Left 1; l Ldb.Middle 0 ])
    (List.sort compare (Aggtree.children tree (l Ldb.Left 0)));
  Alcotest.(check (list int))
    "children of l(v)" [ l Ldb.Middle 1 ]
    (Aggtree.children tree (l Ldb.Left 1));
  Alcotest.(check (list int))
    "children of m(u)" [ l Ldb.Right 0 ]
    (Aggtree.children tree (l Ldb.Middle 0));
  Alcotest.(check (list int))
    "children of m(v)" [ l Ldb.Right 1 ]
    (Aggtree.children tree (l Ldb.Middle 1));
  checkb "r(u) leaf" true (Aggtree.is_leaf tree (l Ldb.Right 0));
  checkb "r(v) leaf" true (Aggtree.is_leaf tree (l Ldb.Right 1))

(* Reversed BFS order: every vnode after all of its children — the order a
   pure (non-message-level) aggregation oracle can fold in. *)
let bottom_up_order tree =
  let q = Queue.create () and order = ref [] in
  Queue.add (Aggtree.root tree) q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    List.iter (fun c -> Queue.add c q) (Aggtree.children tree v)
  done;
  !order

let test_bottom_up_order_property () =
  let tree = tree_of ~n:30 ~seed:6 in
  let seen = Hashtbl.create 90 in
  List.iter
    (fun v ->
      List.iter
        (fun c -> checkb "children before parents" true (Hashtbl.mem seen c))
        (Aggtree.children tree v);
      Hashtbl.replace seen v ())
    (bottom_up_order tree);
  checki "all vnodes present" 90 (Hashtbl.length seen)

let test_single_node_tree () =
  let tree = tree_of ~n:1 ~seed:1 in
  (match Aggtree.check_invariants tree with Ok () -> () | Error e -> Alcotest.fail e);
  checki "height 2 (l -> m -> r chain)" 2 (Aggtree.height tree)

(* --------------------------------------------------------------- Phase *)

let test_up_counts_nodes () =
  (* The paper's example aggregation: every vnode contributes 1; the anchor
     learns the total number of virtual nodes, 3n. *)
  List.iter
    (fun n ->
      let tree = tree_of ~n ~seed:4 in
      let total, _memo, report =
        Phase.up (Phase.net tree) ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 32)
      in
      checki "3n" (3 * n) total;
      checkb "rounds bounded by height+1" true (report.Phase.rounds <= Aggtree.height tree + 1))
    [ 1; 2; 5; 16; 64 ]

let test_up_memo_parts () =
  let tree = tree_of ~n:10 ~seed:4 in
  let net = Phase.net tree in
  let _total, memo, _ = Phase.up net ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 1) in
  (* The memorized parts reach the positions pass as sizes: with every
     vnode counting 1, a vnode's own piece is one position and each
     child's piece is its subtree's size, so the children start after the
     own position and every earlier sibling's subtree. *)
  let starts, _ =
    Phase.positions net ~memo ~first:[| 1 |] ~size:(fun x _ -> x) ~bits:(fun _ _ _ -> 1)
      ~fixed_bits:0
  in
  let rec size c = List.fold_left (fun acc c -> acc + size c) 1 (Aggtree.children tree c) in
  Array.iter
    (fun v ->
      let next = ref (starts.(v) + 1) in
      List.iter
        (fun c ->
          checki "child starts after own part and earlier siblings" !next starts.(c);
          next := !next + size c)
        (Aggtree.children tree v);
      checki "own part and children's parts cover the subtree" (starts.(v) + size v) !next)
    (Aggtree.vnodes tree)

let test_up_respects_order () =
  (* Combine with a non-commutative operation: list concat.  The anchor's
     list must equal the deterministic traversal (own, then children by
     label). *)
  let tree = tree_of ~n:12 ~seed:9 in
  let all, _memo, _ =
    Phase.up (Phase.net tree)
      ~local:(fun v -> [ v ])
      ~combine:(fun a b -> a @ b)
      ~size_bits:(fun l -> 16 * List.length l)
  in
  let rec expected v =
    v :: List.concat_map expected (Aggtree.children tree v)
  in
  Alcotest.(check (list int)) "pre-order traversal" (expected (Aggtree.root tree)) all

let test_down_decomposes_intervals () =
  (* Give every vnode demand 1 (memoized via up with (+)), then decompose
     the positions [1, 3n] down the tree: every vnode must get a distinct
     one. *)
  let n = 20 in
  let tree = tree_of ~n ~seed:13 in
  let net = Phase.net tree in
  let _, memo, _ = Phase.up net ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 8) in
  let starts, _report =
    Phase.positions net ~memo ~first:[| 1 |] ~size:(fun x _ -> x) ~bits:(fun _ _ _ -> 64)
      ~fixed_bits:0
  in
  let sorted = List.sort compare (Array.to_list starts) in
  Alcotest.(check (list int))
    "all positions exactly once" (List.init (3 * n) (fun i -> i + 1)) sorted

let test_broadcast_reaches_all () =
  (* Every vnode but the anchor receives the value exactly once, over a
     network message or a free virtual edge. *)
  let n = 25 in
  let tree = tree_of ~n ~seed:17 in
  let report = Phase.broadcast (Phase.net tree) ~bits:8 in
  checki "one delivery per non-anchor vnode" ((3 * n) - 1)
    (report.Phase.messages + report.Phase.local_deliveries);
  checkb "took at least height rounds" true (report.Phase.rounds >= 1)

let test_broadcast_report () =
  let tree = tree_of ~n:16 ~seed:21 in
  let report = Phase.broadcast (Phase.net tree) ~bits:32 in
  checkb "messages < 3n (virtual edges free)" true (report.Phase.messages < 48);
  checkb "some messages" true (report.Phase.messages > 0)

let test_report_addition () =
  let a = Phase.{ rounds = 3; messages = 10; max_congestion = 2; max_message_bits = 64; total_bits = 640; local_deliveries = 5; busiest_node_load = 9 } in
  let b = Phase.{ rounds = 4; messages = 1; max_congestion = 7; max_message_bits = 32; total_bits = 32; local_deliveries = 0; busiest_node_load = 4 } in
  let c = Phase.add_report a b in
  checki "rounds add" 7 c.Phase.rounds;
  checki "messages add" 11 c.Phase.messages;
  checki "congestion max" 7 c.Phase.max_congestion;
  checki "bits max" 64 c.Phase.max_message_bits

let test_up_rounds_scale_logarithmically () =
  let rounds n =
    Dpq_util.Stats.mean
      (List.map
         (fun seed ->
           let tree = tree_of ~n ~seed in
           let _, _, r =
             Phase.up (Phase.net tree) ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 32)
           in
           float_of_int r.Phase.rounds)
         [ 29; 30; 31; 32 ])
  in
  let r64 = rounds 64 and r4096 = rounds 4096 in
  checkb "log-like growth" true (r4096 < r64 *. 3.5)

(* ------------------------------------------------------ positions pass *)

(* The list splits of the generic down pass the positions pass replaced,
   kept here as its oracle: [Interval.split_sizes] for an exact column, and
   the shortage-tolerant take (parts that find no positions left get empty
   intervals). *)
let take_sizes iv parts =
  let rest = ref iv in
  List.map
    (fun want ->
      let front, back = Interval.take !rest want in
      rest := back;
      front)
    parts

let interval_bits iv =
  if Interval.is_empty iv then 2
  else Dpq_util.Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv)

(* The sequential traversal-order oracle: split the anchor's pieces among
   each vnode's own count and its children's subtree counts (own first,
   then children in label order) with [split], recursively.  Returns every
   vnode's own piece ([None] off the tree) and the piece each child is
   sent. *)
let oracle_pieces tree ~own ~sub ~split root_piece =
  let nv = Array.length own in
  let retained = Array.make nv None and sent = Array.make nv None in
  let rec go v piece =
    let children = Aggtree.children tree v in
    match split piece (own.(v) :: List.map (fun c -> sub.(c)) children) with
    | mine :: rest ->
        retained.(v) <- Some mine;
        List.iter2
          (fun c p ->
            sent.(c) <- Some p;
            go c p)
          children rest
    | [] -> assert false
  in
  go (Aggtree.root tree) root_piece;
  (retained, sent)

(* Subtree sums of per-vnode counts, for the oracle's [sub]. *)
let subtree_sums tree own add zero =
  let sub = Array.make (Array.length own) zero in
  let rec go v =
    sub.(v) <- List.fold_left (fun acc c -> add acc (go c)) own.(v) (Aggtree.children tree v);
    sub.(v)
  in
  ignore (go (Aggtree.root tree));
  sub

let deliveries trace =
  List.filter_map
    (function
      | Trace.Msg_delivered { round; src; dst; bits; _ } -> Some (round, src, dst, bits)
      | _ -> None)
    (Trace.events trace)

(* A random overlay, some of its nodes removed, with per-vnode counts in
   two columns, about half of them zero. *)
let random_counts rng ~n ~seed =
  let ldb = ref (Ldb.build ~n ~seed) in
  for id = 0 to n - 1 do
    if Ldb.live_count !ldb > 1 && Random.State.int rng 5 = 0 then ldb := Ldb.remove !ldb ~id
  done;
  let tree = Aggtree.of_ldb !ldb in
  let count () = if Random.State.bool rng then 0 else Random.State.int rng 4 in
  let counts = Array.init (3 * n) (fun _ -> (count (), count ())) in
  (tree, counts)

let test_positions_match_list_split () =
  let rng = Random.State.make [| 24 |] in
  for trial = 1 to 60 do
    let n = 1 + Random.State.int rng 40 in
    let tree, counts = random_counts rng ~n ~seed:trial in
    let (total_a, total_b), memo, _ =
      Phase.up (Phase.net tree)
        ~local:(fun v -> counts.(v))
        ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
        ~size_bits:(fun _ -> 8)
    in
    (* Column a is exact; column b is cut short (or not) at a random
       limit; every message also pays a fixed charge. *)
    let limit_a = total_a and limit_b = Random.State.int rng (total_b + 1) in
    let fixed_bits = trial mod 3 in
    let sub = subtree_sums tree counts (fun (a, b) (c, d) -> (a + c, b + d)) (0, 0) in
    let retained, sent =
      oracle_pieces tree ~own:counts ~sub
        ~split:(fun (a, b) parts ->
          List.combine
            (Interval.split_sizes a (List.map fst parts))
            (take_sizes b (List.map snd parts)))
        (Interval.make 1 limit_a, Interval.make 1 limit_b)
    in
    let trace_b = Trace.create () and trace = Trace.create () in
    let header_r = Phase.broadcast (Phase.net ~trace:trace_b tree) ~bits:0 in
    let starts, report =
      Phase.positions (Phase.net ~trace tree) ~memo ~first:[| 1; 1 |]
        ~size:(fun (a, b) j -> if j = 0 then a else b)
        ~bits:(fun j start size ->
          Phase.cut_bits ~limit:(if j = 0 then limit_a else limit_b) start size)
        ~fixed_bits
    in
    let what = Printf.sprintf "trial %d (n=%d)" trial n in
    Array.iteri
      (fun v r ->
        let piece j size limit =
          let s = starts.((2 * v) + j) in
          Interval.make s (min (s + size - 1) limit)
        in
        match r with
        | None ->
            checki (what ^ ": unreached a") (-1) starts.(2 * v);
            checki (what ^ ": unreached b") (-1) starts.((2 * v) + 1)
        | Some (a, b) ->
            let own_a, own_b = counts.(v) in
            checkb (what ^ ": column a") true (Interval.equal a (piece 0 own_a limit_a));
            checkb (what ^ ": column b") true (Interval.equal b (piece 1 own_b limit_b)))
      retained;
    (* The messages are the broadcast's (same rounds, same edges); each is
       charged its header, the fixed bits and its pieces. *)
    let header = header_r.Phase.total_bits / max 1 header_r.Phase.messages in
    let want_bits =
      List.sort compare
        (List.filter_map
           (fun c ->
             match (sent.(c), Aggtree.parent tree c) with
             | Some (a, b), Some p when Ldb.owner p <> Ldb.owner c ->
                 Some (header + fixed_bits + interval_bits a + interval_bits b)
             | _ -> None)
           (List.init (Array.length sent) Fun.id))
    in
    let drop_bits = List.map (fun (r, s, d, _) -> (r, s, d)) in
    checkb (what ^ ": the broadcast's messages") true
      (drop_bits (deliveries trace) = drop_bits (deliveries trace_b));
    checkb (what ^ ": the broadcast's rounds") true (report.Phase.rounds = header_r.Phase.rounds);
    checkb (what ^ ": bits per message") true
      (List.sort compare (List.map (fun (_, _, _, b) -> b) (deliveries trace)) = want_bits);
    checki (what ^ ": total bits") (List.fold_left ( + ) 0 want_bits) report.Phase.total_bits
  done

let test_reused_net_equals_fresh () =
  (* Every kind of pass, twice over, on one net and on a fresh net each,
     under drops and duplicates: the reset engine must deliver, cost and
     draw faults exactly as fresh ones do, and the positions agree with
     the sequential oracle. *)
  let tree = Aggtree.of_ldb (Ldb.remove (Ldb.build ~n:24 ~seed:5) ~id:7) in
  let run next =
    let pass () =
      let total, memo, up_r =
        Phase.up (next ()) ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 12)
      in
      let bcast_r = Phase.broadcast (next ()) ~bits:5 in
      let starts, pos_r =
        Phase.positions (next ()) ~memo ~first:[| 1 |] ~size:(fun x _ -> x)
          ~bits:(fun _ start size -> Phase.cut_bits ~limit:total start size)
          ~fixed_bits:0
      in
      ([ up_r; bcast_r; pos_r ], starts)
    in
    let first = pass () in
    let second = pass () in
    (first, second)
  in
  let plan () = Fault_plan.create ~drop:0.2 ~duplicate:0.1 ~seed:11 () in
  let plan_r = plan () and trace_r = Trace.create () in
  let net = Phase.net ~trace:trace_r ~faults:plan_r tree in
  let reused = run (fun () -> net) in
  let plan_f = plan () and trace_f = Trace.create () in
  let fresh = run (fun () -> Phase.net ~trace:trace_f ~faults:plan_f tree) in
  checkb "same reports and results" true (reused = fresh);
  checkb "same deliveries" true (deliveries trace_r = deliveries trace_f);
  checkb "same fault-plan stats" true (Fault_plan.stats plan_r = Fault_plan.stats plan_f);
  checkb "faults were injected" true ((Fault_plan.stats plan_r).Fault_plan.drops > 0);
  let (_, starts), (_, starts') = reused in
  let own = Array.make (Array.length starts) 1 in
  let sub = subtree_sums tree own ( + ) 0 in
  let retained, _ =
    oracle_pieces tree ~own ~sub ~split:Interval.split_sizes
      (Interval.make 1 sub.(Aggtree.root tree))
  in
  Array.iteri
    (fun v r ->
      let want = match r with Some iv -> Interval.lo iv | None -> -1 in
      checki "start equals the oracle's" want starts.(v);
      checki "again on the second pass" want starts'.(v))
    retained

let test_reentry_fails () =
  let tree = tree_of ~n:8 ~seed:2 in
  let net = Phase.net tree in
  checkb "a pass started inside a pass raises" true
    (try
       ignore
         (Phase.up net
            ~local:(fun _ -> Phase.broadcast net ~bits:1)
            ~combine:(fun a _ -> a)
            ~size_bits:(fun _ -> 1));
       false
     with Invalid_argument _ -> true)

(* Allocation guard for the tree passes: a message is a vnode id and the
   engine is reused, so an int up pass and a broadcast allocate nothing per
   message; what is left is per pass (closures, the span, the report) and
   [local]'s values.  At n=1024 (3 072 vnodes; per pass 1 023 network
   messages and 2 048 virtual-edge deliveries) the up pass measured 0.016
   minor words per vnode and the broadcast 0.008.  With a boxed message
   record, a closure per forwarding vnode, a parts list per up vnode and a
   fresh engine per pass they measured 11.5 and 10.5. *)
let test_pass_allocation () =
  let n = 1024 in
  let tree = tree_of ~n ~seed:3 in
  let net = Phase.net tree in
  (* Warm up: the engine grows its round queue once, on its first pass. *)
  ignore (Phase.up net ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 11));
  ignore (Phase.broadcast net ~bits:1);
  let per_vnode f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. before) /. float_of_int (3 * n)
  in
  let up_w =
    per_vnode (fun () -> Phase.up net ~local:(fun _ -> 1) ~combine:( + ) ~size_bits:(fun _ -> 11))
  in
  let bcast_w = per_vnode (fun () -> Phase.broadcast net ~bits:1) in
  checkb (Printf.sprintf "up: %.3f minor words per vnode <= 0.5" up_w) true (up_w <= 0.5);
  checkb (Printf.sprintf "broadcast: %.3f minor words per vnode <= 0.5" bcast_w) true (bcast_w <= 0.5)

(* Two counts share one immediate: sums of packed pairs unpack to the
   column sums, and a count that would not fit its 31 bits is refused. *)
let test_packed_counts () =
  let big = (1 lsl 31) - 1 in
  List.iter
    (fun (a, b) ->
      let x = Phase.pack_counts a b in
      checki "first" a (Phase.first_count x);
      checki "second" b (Phase.second_count x))
    [ (0, 0); (1, 0); (0, 1); (big, big); (12345, 678) ];
  let sum = Phase.pack_counts 3 big + Phase.pack_counts (big - 3) 0 in
  checki "summed first" big (Phase.first_count sum);
  checki "summed second" big (Phase.second_count sum);
  List.iter
    (fun (a, b) ->
      match Phase.pack_counts a b with
      | _ -> Alcotest.failf "pack_counts %d %d accepted" a b
      | exception Invalid_argument _ -> ())
    [ (big + 1, 0); (0, big + 1); (max_int, 0); (-1, 0); (0, -1) ]

let () =
  Alcotest.run "dpq_aggtree"
    [
      ( "tree",
        [
          Alcotest.test_case "invariants" `Quick test_invariants_many_sizes;
          Alcotest.test_case "root is min label" `Quick test_root_is_min_label;
          Alcotest.test_case "parent rules" `Quick test_parent_rules;
          Alcotest.test_case "labels decrease upward" `Quick test_parents_have_smaller_labels;
          Alcotest.test_case "height logarithmic" `Quick test_height_logarithmic;
          Alcotest.test_case "figure 2 structure" `Quick test_figure2_structure;
          Alcotest.test_case "bottom-up order" `Quick test_bottom_up_order_property;
          Alcotest.test_case "single node" `Quick test_single_node_tree;
        ] );
      ( "phase",
        [
          Alcotest.test_case "up counts nodes" `Quick test_up_counts_nodes;
          Alcotest.test_case "up memo parts" `Quick test_up_memo_parts;
          Alcotest.test_case "up respects order" `Quick test_up_respects_order;
          Alcotest.test_case "down decomposes intervals" `Quick test_down_decomposes_intervals;
          Alcotest.test_case "broadcast reaches all" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "broadcast report" `Quick test_broadcast_report;
          Alcotest.test_case "report addition" `Quick test_report_addition;
          Alcotest.test_case "up rounds log" `Quick test_up_rounds_scale_logarithmically;
          Alcotest.test_case "positions match the list split" `Quick test_positions_match_list_split;
          Alcotest.test_case "reused net equals fresh engines" `Quick test_reused_net_equals_fresh;
          Alcotest.test_case "re-entry fails" `Quick test_reentry_fails;
          Alcotest.test_case "allocation per vnode" `Quick test_pass_allocation;
          Alcotest.test_case "packed counts" `Quick test_packed_counts;
        ] );
    ]
