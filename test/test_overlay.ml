open Dpq_overlay

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ----------------------------------------------------------------- LDB *)

let test_ldb_invariants_many_sizes () =
  List.iter
    (fun n ->
      let ldb = Ldb.build ~n ~seed:42 in
      match Ldb.check_invariants ldb with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n e)
    [ 1; 2; 3; 5; 8; 16; 33; 100; 257 ]

let test_ldb_vnode_encoding () =
  let v = Ldb.vnode ~owner:7 Ldb.Right in
  checki "owner" 7 (Ldb.owner v);
  checkb "kind" true (Ldb.kind v = Ldb.Right);
  checkb "left" true (Ldb.kind (Ldb.vnode ~owner:0 Ldb.Left) = Ldb.Left);
  checkb "middle" true (Ldb.kind (Ldb.vnode ~owner:3 Ldb.Middle) = Ldb.Middle)

let test_ldb_label_relations () =
  let ldb = Ldb.build ~n:10 ~seed:1 in
  for id = 0 to 9 do
    let m = Ldb.label ldb (Ldb.vnode ~owner:id Ldb.Middle) in
    let l = Ldb.label ldb (Ldb.vnode ~owner:id Ldb.Left) in
    let r = Ldb.label ldb (Ldb.vnode ~owner:id Ldb.Right) in
    Alcotest.check (Alcotest.float 1e-12) "l = m/2" (m /. 2.0) l;
    Alcotest.check (Alcotest.float 1e-12) "r = (m+1)/2" ((m +. 1.0) /. 2.0) r
  done

let test_ldb_cycle_is_sorted_permutation () =
  let ldb = Ldb.build ~n:20 ~seed:5 in
  let cyc = Ldb.vnodes_in_cycle_order ldb in
  checki "3n vnodes" 60 (Array.length cyc);
  let sorted = Array.to_list cyc |> List.sort_uniq compare in
  checki "all distinct" 60 (List.length sorted);
  Array.iteri
    (fun i v ->
      if i > 0 then
        checkb "labels ascending" true
          (Ldb.label ldb cyc.(i - 1) <= Ldb.label ldb v))
    cyc

let test_ldb_pred_succ_inverse () =
  let ldb = Ldb.build ~n:13 ~seed:9 in
  Array.iter
    (fun v ->
      checki "succ(pred v) = v" v (Ldb.succ ldb (Ldb.pred ldb v));
      checki "pred(succ v) = v" v (Ldb.pred ldb (Ldb.succ ldb v)))
    (Ldb.vnodes_in_cycle_order ldb)

(* manager_of_point agrees with a linear scan *)
let prop_manager_matches_linear_scan =
  QCheck.Test.make ~name:"manager_of_point = linear scan" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (praw, n) ->
      let p = float_of_int praw /. 1_000_001.0 in
      let ldb = Ldb.build ~n ~seed:77 in
      let fast = Ldb.manager_of_point ldb p in
      let cyc = Ldb.vnodes_in_cycle_order ldb in
      let slow = ref cyc.(Array.length cyc - 1) in
      Array.iter (fun v -> if Ldb.label ldb v <= p then slow := v) cyc;
      fast = !slow)

let test_ldb_min_vnode_is_left () =
  (* The global minimum label is always some node's left vnode. *)
  List.iter
    (fun seed ->
      let ldb = Ldb.build ~n:30 ~seed in
      checkb "min is Left kind" true (Ldb.kind (Ldb.min_vnode ldb) = Ldb.Left))
    [ 1; 2; 3; 4; 5 ]

let test_ldb_route_reaches_manager () =
  let ldb = Ldb.build ~n:50 ~seed:11 in
  let r = Dpq_util.Rng.create ~seed:4 in
  for _ = 1 to 100 do
    let point = Dpq_util.Rng.float r in
    let src = Ldb.vnode ~owner:(Dpq_util.Rng.int r 50) Ldb.Middle in
    let visited, _hops = Ldb.route ldb ~src ~point in
    checki "ends at manager"
      (Ldb.manager_of_point ldb point)
      (List.nth visited (List.length visited - 1));
    checki "starts at src" src (List.hd visited)
  done

let test_ldb_route_hops_logarithmic () =
  (* Average message hops should grow like log n: going from n to n^2 should
     roughly double it, not square it. *)
  let avg_hops n =
    let ldb = Ldb.build ~n ~seed:23 in
    let r = Dpq_util.Rng.create ~seed:5 in
    let total = ref 0 in
    let trials = 60 in
    for _ = 1 to trials do
      let point = Dpq_util.Rng.float r in
      let src = Ldb.vnode ~owner:(Dpq_util.Rng.int r n) Ldb.Middle in
      let _, hops = Ldb.route ldb ~src ~point in
      List.iter
        (function
          | Ldb.Linear (a, b) when Ldb.owner a <> Ldb.owner b -> incr total | _ -> ())
        hops
    done;
    float_of_int !total /. float_of_int trials
  in
  let h32 = avg_hops 32 and h1024 = avg_hops 1024 in
  checkb "hops grow slowly" true (h1024 < h32 *. 3.0);
  checkb "hops nontrivial" true (h32 > 1.0)

let test_ldb_route_uses_only_local_edges () =
  (* Every hop is a cycle edge or a virtual (same-owner) edge. *)
  let ldb = Ldb.build ~n:25 ~seed:3 in
  let r = Dpq_util.Rng.create ~seed:6 in
  for _ = 1 to 50 do
    let point = Dpq_util.Rng.float r in
    let src = Ldb.vnode ~owner:(Dpq_util.Rng.int r 25) Ldb.Middle in
    let _, hops = Ldb.route ldb ~src ~point in
    List.iter
      (fun h ->
        match h with
        | Ldb.Linear (a, b) ->
            checkb "linear hop is a cycle edge" true
              (Ldb.succ ldb a = b || Ldb.pred ldb a = b)
        | Ldb.Virtual (a, b) -> checki "virtual hop same owner" (Ldb.owner a) (Ldb.owner b))
      hops
  done

(* [walk_route] must give exactly [fst (route …)].  Every walk of one
   overlay appends to one shared buffer that starts empty, so the buffer
   grows many times mid-test, and each segment is checked only after all
   walks: growth must keep what was already walked.  Sources are vnodes of
   every kind (DHT routes start wherever the last one ended), and the
   points include both ends of [0, 1). *)
let walks_match_route ldb ~seed ~pairs =
  let r = Dpq_util.Rng.create ~seed in
  let live = List.filter (fun id -> Ldb.is_present ldb ~id) (List.init (Ldb.n ldb) Fun.id) in
  let live = Array.of_list live in
  let buf = Ldb.path_buf () in
  let walks =
    List.init pairs (fun i ->
        let owner = live.(Dpq_util.Rng.int r (Array.length live)) in
        let src = (owner * 3) + Dpq_util.Rng.int r 3 in
        let point =
          match i with 0 -> 0.0 | 1 -> Float.pred 1.0 | _ -> Dpq_util.Rng.float r
        in
        let start = Ldb.path_length buf in
        let len = Ldb.walk_route ldb buf ~src ~point in
        (src, point, start, len))
  in
  checkb "the buffer grew past its first size" true (Ldb.path_length buf > 256);
  (* The manager by definition: the greatest label <= the point, else the
     greatest label of all. *)
  let cycle = Ldb.vnodes_in_cycle_order ldb in
  let manager point =
    Array.fold_left
      (fun best v -> if Ldb.label ldb v <= point then v else best)
      cycle.(Array.length cycle - 1) cycle
  in
  List.iter
    (fun (src, point, start, len) ->
      checki (Printf.sprintf "manager of %h" point) (manager point) (Ldb.manager_of_point ldb point);
      let want = fst (Ldb.route ldb ~src ~point) in
      let got = List.init len (fun i -> Ldb.path_get buf (start + i)) in
      Alcotest.(check (list int)) (Printf.sprintf "walk %d -> %h" src point) want got)
    walks

let test_ldb_walk_equals_route () =
  List.iter
    (fun n ->
      let ldb = Ldb.build ~n ~seed:(17 + n) in
      walks_match_route ldb ~seed:n ~pairs:500;
      (* Remove a third of the nodes, keeping ids stable. *)
      let r = Dpq_util.Rng.create ~seed:(n + 1) in
      let ldb = ref ldb in
      for _ = 1 to n / 3 do
        let live =
          List.filter (fun id -> Ldb.is_present !ldb ~id) (List.init n Fun.id) |> Array.of_list
        in
        ldb := Ldb.remove !ldb ~id:live.(Dpq_util.Rng.int r (Array.length live))
      done;
      checki "a third removed" (n - (n / 3)) (Ldb.live_count !ldb);
      walks_match_route !ldb ~seed:(n + 2) ~pairs:500)
    [ 1; 2; 3; 5; 64; 86; 1000; 1365 ]

(* A buffer that has reached its working size is reused with
   [path_clear]: walking then allocates nothing at all. *)
let test_ldb_walk_allocates_nothing () =
  let ldb = Ldb.build ~n:1024 ~seed:5 in
  let r = Dpq_util.Rng.create ~seed:9 in
  (* Pairs hold their points boxed, so the calls below box nothing. *)
  let pairs =
    List.init 1000 (fun _ ->
        let src = Dpq_util.Rng.int r (3 * 1024) in
        (src, Dpq_util.Rng.float r))
  in
  let buf = Ldb.path_buf () in
  let walk_all () =
    Ldb.path_clear buf;
    List.iter (fun (src, point) -> ignore (Ldb.walk_route ldb buf ~src ~point)) pairs
  in
  walk_all ();
  let before = Gc.minor_words () in
  walk_all ();
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "1000 walks: %.0f minor words < 100" words) true (words < 100.0)

(* The int entry points take a hashed point as its 53-bit mantissa m.
   They must answer exactly what the float ones do for the point
   m·2^-53, computed here independently of [Ldb]: for 10^5 random
   mantissas, both ends of the range, and every label's own mantissa with
   its neighbours (the cells where a lookup flips from one vnode to the
   next). *)
let oracle m = Float.ldexp (float_of_int m) (-53)

let test_ldb_mantissa_entry_points () =
  let top = (1 lsl 53) - 1 in
  List.iter
    (fun n ->
      let ldb = Ldb.build ~n ~seed:(29 + n) in
      let r = Dpq_util.Rng.create ~seed:n in
      let labels =
        List.concat_map
          (fun v ->
            let m = int_of_float (Float.ldexp (Ldb.label ldb v) 53) in
            [ m - 1; m; m + 1 ])
          (Array.to_list (Ldb.vnodes_in_cycle_order ldb))
      in
      let random = List.init 100_000 (fun _ -> Dpq_util.Rng.int r (1 lsl 53)) in
      let ms = List.filter (fun m -> m >= 0 && m <= top) ([ 0; 1; top ] @ labels @ random) in
      let a = Ldb.path_buf () and b = Ldb.path_buf () in
      List.iteri
        (fun i m ->
          let p = oracle m in
          if Ldb.manager_of_mantissa ldb m <> Ldb.manager_of_point ldb p then
            Alcotest.failf "n=%d: manager of mantissa %d differs from that of %h" n m p;
          let src = i mod (3 * n) in
          Ldb.path_clear a;
          Ldb.path_clear b;
          let la = Ldb.walk_route_mantissa ldb a ~src ~mantissa:m in
          let lb = Ldb.walk_route ldb b ~src ~point:p in
          if la <> lb || List.init la (Ldb.path_get a) <> List.init lb (Ldb.path_get b) then
            Alcotest.failf "n=%d: walk from %d to mantissa %d differs from the walk to %h" n src
              m p)
        ms;
      (* A copy point x/2^d' is the mantissa x·2^(53-d'), exactly. *)
      for d' = 1 to 12 do
        for x = 0 to (1 lsl d') - 1 do
          let m = x lsl (53 - d') in
          let p = float_of_int x /. float_of_int (1 lsl d') in
          if oracle m <> p then Alcotest.failf "copy point %d/2^%d: %h <> %h" x d' (oracle m) p;
          if Ldb.manager_of_mantissa ldb m <> Ldb.manager_of_point ldb p then
            Alcotest.failf "n=%d: copy point %d/2^%d has another manager" n x d'
        done
      done)
    [ 1; 5; 64; 86; 1365; 4096 ]

(* The int entry points box nothing: a lookup allocates nothing, and a
   walk only its buffer's growth. *)
let test_ldb_mantissa_allocates_nothing () =
  let ldb = Ldb.build ~n:1024 ~seed:5 in
  let r = Dpq_util.Rng.create ~seed:9 in
  let ms = Array.init 1000 (fun _ -> Dpq_util.Rng.int r (1 lsl 53)) in
  let buf = Ldb.path_buf () in
  let walk_all () =
    Ldb.path_clear buf;
    Array.iteri
      (fun src m ->
        ignore (Ldb.manager_of_mantissa ldb m);
        ignore (Ldb.walk_route_mantissa ldb buf ~src ~mantissa:m))
      ms
  in
  walk_all ();
  let before = Gc.minor_words () in
  walk_all ();
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "1000 lookups and walks: %.0f minor words < 100" words) true (words < 100.0)

let test_ldb_debruijn_hop () =
  (* One emulated de Bruijn edge lands at the manager of (p + bit)/2 and
     costs O(1)-ish messages. *)
  let ldb = Ldb.build ~n:64 ~seed:15 in
  let rng = Dpq_util.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    let p = Dpq_util.Rng.float rng in
    let src = Ldb.manager_of_point ldb p in
    let bit = Dpq_util.Rng.int rng 2 in
    let target = (p +. float_of_int bit) /. 2.0 in
    let visited, hops = Ldb.debruijn_hop ldb ~src ~from_point:p ~bit ~point:target in
    checki "lands at target manager" (Ldb.manager_of_point ldb target)
      (List.nth visited (List.length visited - 1));
    let costed =
      List.length
        (List.filter
           (function Ldb.Linear (a, b) -> Ldb.owner a <> Ldb.owner b | _ -> false)
           hops)
    in
    checkb "cheap" true (costed <= 30)
  done

let test_ldb_debruijn_hop_back () =
  (* Reverse edge: from manager of p to manager of 2p (mod 1). *)
  let ldb = Ldb.build ~n:64 ~seed:15 in
  let rng = Dpq_util.Rng.create ~seed:8 in
  for _ = 1 to 100 do
    let p = Dpq_util.Rng.float rng in
    let src = Ldb.manager_of_point ldb p in
    let target = if p < 0.5 then 2.0 *. p else (2.0 *. p) -. 1.0 in
    let visited, _ = Ldb.debruijn_hop_back ldb ~src ~from_point:p ~point:target in
    checki "lands at doubled point" (Ldb.manager_of_point ldb target)
      (List.nth visited (List.length visited - 1))
  done

let test_ldb_hop_near_wrap () =
  (* The 0/1 boundary is where naive implementations explode: a hop from a
     point near 0 must stay cheap even though its manager's label is near 1. *)
  let ldb = Ldb.build ~n:256 ~seed:3 in
  let p = 1e-9 in
  let src = Ldb.manager_of_point ldb p in
  checkb "manager wraps to the top" true (Ldb.label ldb src > 0.5);
  List.iter
    (fun bit ->
      let target = (p +. float_of_int bit) /. 2.0 in
      let _, hops = Ldb.debruijn_hop ldb ~src ~from_point:p ~bit ~point:target in
      let costed =
        List.length
          (List.filter
             (function Ldb.Linear (a, b) -> Ldb.owner a <> Ldb.owner b | _ -> false)
             hops)
      in
      checkb "no wrap blow-up" true (costed < 60))
    [ 0; 1 ]

let test_ldb_join_adds_node () =
  let ldb = Ldb.build ~n:5 ~seed:1 in
  let ldb' = Ldb.join ldb in
  checki "n+1" 6 (Ldb.n ldb');
  (match Ldb.check_invariants ldb' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Existing labels unchanged. *)
  for id = 0 to 4 do
    Alcotest.check (Alcotest.float 1e-12) "label preserved"
      (Ldb.label ldb (Ldb.vnode ~owner:id Ldb.Middle))
      (Ldb.label ldb' (Ldb.vnode ~owner:id Ldb.Middle))
  done

let test_ldb_leave_removes_node () =
  let ldb = Ldb.build ~n:5 ~seed:1 in
  let ldb' = Ldb.leave ldb ~id:2 in
  checki "n-1" 4 (Ldb.n ldb');
  match Ldb.check_invariants ldb' with Ok () -> () | Error e -> Alcotest.fail e

let test_ldb_leave_last_node_rejected () =
  let ldb = Ldb.build ~n:1 ~seed:1 in
  Alcotest.check_raises "refuses" (Invalid_argument "Ldb.leave: cannot empty the network")
    (fun () -> ignore (Ldb.leave ldb ~id:0))

let test_ldb_join_cost_logarithmic () =
  let c n = Ldb.join_cost_hops (Ldb.build ~n ~seed:9) in
  checkb "cost grows slowly" true (c 1024 < c 16 * 6);
  checkb "cost positive" true (c 16 > 0)

let test_ldb_single_node () =
  let ldb = Ldb.build ~n:1 ~seed:4 in
  let m = Ldb.vnode ~owner:0 Ldb.Middle in
  let visited, _ = Ldb.route ldb ~src:m ~point:0.3 in
  checki "route still terminates" (Ldb.manager_of_point ldb 0.3)
    (List.nth visited (List.length visited - 1))

let () =
  Alcotest.run "dpq_overlay"
    [
      ( "ldb",
        [
          Alcotest.test_case "invariants many sizes" `Quick test_ldb_invariants_many_sizes;
          Alcotest.test_case "vnode encoding" `Quick test_ldb_vnode_encoding;
          Alcotest.test_case "label relations" `Quick test_ldb_label_relations;
          Alcotest.test_case "cycle sorted" `Quick test_ldb_cycle_is_sorted_permutation;
          Alcotest.test_case "pred/succ inverse" `Quick test_ldb_pred_succ_inverse;
          QCheck_alcotest.to_alcotest prop_manager_matches_linear_scan;
          Alcotest.test_case "min vnode kind" `Quick test_ldb_min_vnode_is_left;
          Alcotest.test_case "route reaches manager" `Quick test_ldb_route_reaches_manager;
          Alcotest.test_case "route hops logarithmic" `Quick test_ldb_route_hops_logarithmic;
          Alcotest.test_case "route local edges only" `Quick test_ldb_route_uses_only_local_edges;
          Alcotest.test_case "walk equals route" `Quick test_ldb_walk_equals_route;
          Alcotest.test_case "walk allocates nothing" `Quick test_ldb_walk_allocates_nothing;
          Alcotest.test_case "mantissa entry points" `Quick test_ldb_mantissa_entry_points;
          Alcotest.test_case "mantissa allocates nothing" `Quick test_ldb_mantissa_allocates_nothing;
          Alcotest.test_case "debruijn hop" `Quick test_ldb_debruijn_hop;
          Alcotest.test_case "debruijn hop back" `Quick test_ldb_debruijn_hop_back;
          Alcotest.test_case "hop near wrap" `Quick test_ldb_hop_near_wrap;
          Alcotest.test_case "join" `Quick test_ldb_join_adds_node;
          Alcotest.test_case "leave" `Quick test_ldb_leave_removes_node;
          Alcotest.test_case "leave last rejected" `Quick test_ldb_leave_last_node_rejected;
          Alcotest.test_case "join cost" `Quick test_ldb_join_cost_logarithmic;
          Alcotest.test_case "single node" `Quick test_ldb_single_node;
        ] );
    ]
