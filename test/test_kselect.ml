module K = Dpq_kselect.Kselect
module E = Dpq_util.Element
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let tree_of ~n ~seed = Aggtree.of_ldb (Ldb.build ~n ~seed)

let uniform_elements ~rng ~n ~per_node ~prio_range =
  Array.init n (fun v ->
      List.init per_node (fun s ->
          E.make ~prio:(1 + Dpq_util.Rng.int rng prio_range) ~origin:v ~seq:s ()))

let run_and_check ?(seed = 3) ~tree ~elements k =
  let all = Array.to_list elements |> List.concat in
  let r = K.select ~seed ~net:(Phase.net tree) ~elements ~k () in
  let expect = K.select_seq all ~k in
  checkb
    (Printf.sprintf "k=%d selects the right element" k)
    true
    (E.equal r.K.element expect);
  r

(* ----------------------------------------------------------- select_seq *)

let test_select_seq () =
  let mk p = E.make ~prio:p ~origin:0 ~seq:p () in
  let es = [ mk 5; mk 2; mk 9; mk 1 ] in
  checkb "k=1" true (E.equal (K.select_seq es ~k:1) (mk 1));
  checkb "k=4" true (E.equal (K.select_seq es ~k:4) (mk 9));
  checkb "raises k=0" true
    (try
       ignore (K.select_seq es ~k:0);
       false
     with Invalid_argument _ -> true);
  checkb "raises k=5" true
    (try
       ignore (K.select_seq es ~k:5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------- select  *)

let test_small_network_all_k () =
  let rng = Dpq_util.Rng.create ~seed:11 in
  let n = 6 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:5 ~prio_range:100 in
  let m = 30 in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) (List.init m (fun i -> i + 1))

let test_medium_network_selected_k () =
  let rng = Dpq_util.Rng.create ~seed:13 in
  let n = 48 in
  let tree = tree_of ~n ~seed:5 in
  let elements = uniform_elements ~rng ~n ~per_node:20 ~prio_range:10_000 in
  let m = 48 * 20 in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 2; m / 4; m / 2; m - 1; m ]

let test_duplicate_priorities () =
  (* Many ties: the tiebreaker (origin, seq) must make the answer exact. *)
  let n = 16 in
  let tree = tree_of ~n ~seed:3 in
  let elements =
    Array.init n (fun v -> List.init 10 (fun s -> E.make ~prio:((s mod 3) + 1) ~origin:v ~seq:s ()))
  in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 53; 80; 107; 160 ]

let test_all_same_priority () =
  let n = 10 in
  let tree = tree_of ~n ~seed:9 in
  let elements = Array.init n (fun v -> List.init 8 (fun s -> E.make ~prio:7 ~origin:v ~seq:s ())) in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 40; 80 ]

let test_skewed_distribution () =
  (* All elements on a handful of nodes: stresses the short-node sentinels
     of Phase 1. *)
  let n = 24 in
  let tree = tree_of ~n ~seed:4 in
  let rng = Dpq_util.Rng.create ~seed:21 in
  let elements =
    Array.init n (fun v ->
        if v < 3 then List.init 60 (fun s -> E.make ~prio:(1 + Dpq_util.Rng.int rng 1000) ~origin:v ~seq:s ())
        else [])
  in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 90; 180 ]

let test_single_node () =
  let tree = tree_of ~n:1 ~seed:6 in
  let elements = [| List.init 9 (fun s -> E.make ~prio:(9 - s) ~origin:0 ~seq:s ()) |] in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 5; 9 ]

let test_one_element () =
  let tree = tree_of ~n:4 ~seed:7 in
  let elements = [| []; [ E.make ~prio:42 ~origin:1 ~seq:0 () ]; []; [] |] in
  ignore (run_and_check ~tree ~elements 1)

let test_invalid_args () =
  let tree = tree_of ~n:4 ~seed:8 in
  let elements = Array.make 4 [ E.make ~prio:1 ~origin:0 ~seq:0 () ] in
  checkb "k=0 rejected" true
    (try
       ignore (K.select ~net:(Phase.net tree) ~elements ~k:0 ());
       false
     with Invalid_argument _ -> true);
  checkb "k too big rejected" true
    (try
       ignore (K.select ~net:(Phase.net tree) ~elements ~k:5 ());
       false
     with Invalid_argument _ -> true);
  checkb "wrong array length rejected" true
    (try
       ignore (K.select ~net:(Phase.net tree) ~elements:(Array.make 3 []) ~k:1 ());
       false
     with Invalid_argument _ -> true)

let test_deterministic_given_seed () =
  let rng = Dpq_util.Rng.create ~seed:31 in
  let n = 12 in
  let tree = tree_of ~n ~seed:3 in
  let elements = uniform_elements ~rng ~n ~per_node:10 ~prio_range:500 in
  let r1 = K.select ~seed:99 ~net:(Phase.net tree) ~elements ~k:60 () in
  let r2 = K.select ~seed:99 ~net:(Phase.net tree) ~elements ~k:60 () in
  checkb "same element" true (E.equal r1.K.element r2.K.element);
  checki "same rounds" r1.K.report.Phase.rounds r2.K.report.Phase.rounds

(* -------------------------------------------------- theorem-shaped props *)

let test_phase1_reduces_candidates () =
  let rng = Dpq_util.Rng.create ~seed:17 in
  let n = 128 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:32 ~prio_range:1_000_000 in
  let r = run_and_check ~tree ~elements 2048 in
  let after_p1 = List.nth r.K.diagnostics.K.phase1_candidates
      (List.length r.K.diagnostics.K.phase1_candidates - 1) in
  checkb "phase 1 pruned" true (after_p1 < r.K.diagnostics.K.initial_candidates);
  (* Lemma 4.4's bound with generous constants: O(n^{3/2} log n). *)
  let bound = 4.0 *. (float_of_int n ** 1.5) *. log (float_of_int n) in
  checkb "within O(n^1.5 log n)" true (float_of_int after_p1 < bound)

(* Every Phase-1 iteration is void here: k < n makes ⌊k/n⌋ = 0, so P_min
   is unbounded, and the eight empty nodes poison P_max.  The anchor sees
   that after the first (P_min, P_max) convergecast and ends Phase 1, since
   the later iterations would see the same k, N and candidates. *)
let test_void_phase1_cut_short () =
  let rng = Dpq_util.Rng.create ~seed:23 in
  let n = 16 in
  let tree = tree_of ~n ~seed:2 in
  let elements =
    Array.init n (fun v ->
        if v mod 2 = 1 then []
        else
          List.init 20 (fun s ->
              E.make ~prio:(1 + Dpq_util.Rng.int rng 1_000_000) ~origin:v ~seq:s ()))
  in
  let r = run_and_check ~tree ~elements 10 in
  let d = r.K.diagnostics in
  checkb "phase 1 not skipped" false d.K.phase1_skipped;
  checki "one phase-1 iteration" 1 d.K.phase1_iterations;
  Alcotest.(check (list int)) "nothing pruned" [ 160 ] d.K.phase1_candidates

let test_phase2_reaches_threshold () =
  let rng = Dpq_util.Rng.create ~seed:19 in
  let n = 64 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:40 ~prio_range:1_000_000 in
  let r = run_and_check ~tree ~elements 1280 in
  (* Lemma 4.7 (with our n' = 4√n constant): the exact phase runs on at
     most ~4√n + a few candidates. *)
  checkb "phase 3 input small" true
    (float_of_int r.K.diagnostics.K.phase3_candidates
    <= (8.0 *. sqrt (float_of_int n)) +. 32.0)

let test_trees_per_node_bounded () =
  (* Lemma 4.5: expected participation in copy trees is Θ(1); with the
     implementation's n' = 4√n constant that is ≈ 2·16 = O(1) in n. *)
  let load n =
    let rng = Dpq_util.Rng.create ~seed:23 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:16 ~prio_range:100_000 in
    let r = run_and_check ~tree ~elements (8 * n) in
    r.K.diagnostics.K.mean_trees_per_node
  in
  let l64 = load 64 and l256 = load 256 in
  checkb "stays bounded as n quadruples" true (l256 < 4.0 *. l64);
  checkb "nontrivial" true (l64 > 0.0)

(* Statistical check for DESIGN.md rows F2/F3 (Lemmas 4.5, 4.7), pooled
   over 64 seeded runs rather than a single instance: Phase-2 candidate
   counts must drop geometrically from one iteration to the next, and the
   copy-tree participation per node must sit in a constant band.  Both are
   w.h.p. statements, so individual runs may be lucky or unlucky; pooling
   64 runs (~120 phase-2 iterations at this size) makes the geometric mean
   of the shrink ratios a stable statistic, and the tolerances stay loose
   (observed geomean ≈ 0.43, asserted ≤ 0.7). *)
let test_phase2_geometric_drop_64_seeds () =
  let n = 16 and per_node = 64 in
  let ratios = ref [] in
  let runs_with_p2 = ref 0 in
  let small_final = ref 0 in
  let trees = ref [] in
  for seed = 1 to 64 do
    let rng = Dpq_util.Rng.create ~seed:(seed * 101) in
    let tree = tree_of ~n ~seed in
    let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
    let k = 1 + Dpq_util.Rng.int rng (n * per_node) in
    let r = run_and_check ~seed ~tree ~elements k in
    let d = r.K.diagnostics in
    trees := d.K.mean_trees_per_node :: !trees;
    (* N entering Phase 2 is the last Phase-1 count. *)
    let start =
      match List.rev d.K.phase1_candidates with
      | last :: _ -> last
      | [] -> d.K.initial_candidates
    in
    let p2 = d.K.phase2_candidates in
    if p2 <> [] then begin
      incr runs_with_p2;
      let final = List.nth p2 (List.length p2 - 1) in
      if float_of_int final <= 8.0 *. sqrt (float_of_int n) then incr small_final;
      ignore
        (List.fold_left
           (fun prev x ->
             ratios := (float_of_int x /. float_of_int (max 1 prev)) :: !ratios;
             x)
           start p2)
    end
  done;
  (* F3: Phase 2 actually runs and ends ≤ const·√n in (almost) every run. *)
  checkb "phase 2 ran in >= 58/64 runs" true (!runs_with_p2 >= 58);
  checkb "final N <= 8√n in >= 90% of phase-2 runs" true
    (float_of_int !small_final >= 0.9 *. float_of_int !runs_with_p2);
  (* F3: pooled geometric mean of per-iteration shrink ratios. *)
  let rs = !ratios in
  checkb "enough pooled iterations" true (List.length rs >= 64);
  let geomean =
    exp (List.fold_left (fun a r -> a +. log (max r 1e-9)) 0.0 rs /. float_of_int (List.length rs))
  in
  checkb
    (Printf.sprintf "geometric drop: pooled shrink geomean %.3f <= 0.7" geomean)
    true (geomean <= 0.7);
  (* F2: copy-tree participation averaged over the 64 runs is a small
     constant (Lemma 4.5; with n' = 4√n the expectation is ~2·(n'/√n)² = 32,
     observed ≈ 8). *)
  let mean_trees = List.fold_left ( +. ) 0.0 !trees /. 64.0 in
  checkb
    (Printf.sprintf "mean copy trees/node %.2f in (0, 32]" mean_trees)
    true
    (mean_trees > 0.0 && mean_trees <= 32.0)

let test_rounds_logarithmic () =
  let rounds n =
    let rng = Dpq_util.Rng.create ~seed:29 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
    let r = run_and_check ~tree ~elements (4 * n) in
    float_of_int r.K.report.Phase.rounds
  in
  let r64 = rounds 64 and r1024 = rounds 1024 in
  (* 16x more nodes should cost well under 16x the rounds. *)
  checkb "O(log n) shape" true (r1024 < 6.0 *. r64)

let test_message_bits_logarithmic () =
  (* The O(log n)-bit wire-word theorem is a statement about the paper's
     protocol, whose message format the [`Pairwise] reference implements;
     the aggregated format deliberately concatenates many O(log n)-bit
     items into one vector message, so its per-message maximum is checked
     separately below. *)
  let bits ?impl n =
    let rng = Dpq_util.Rng.create ~seed:37 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:(n * 80) in
    let all = Array.to_list elements |> List.concat in
    let r = K.select ?impl ~seed:3 ~net:(Phase.net tree) ~elements ~k:(2 * n) () in
    checkb "selects the right element" true (E.equal r.K.element (K.select_seq all ~k:(2 * n)));
    float_of_int r.K.report.Phase.max_message_bits
  in
  let b64 = bits ~impl:`Pairwise 64 and b1024 = bits ~impl:`Pairwise 1024 in
  checkb "bits grow additively, not multiplicatively" true (b1024 < b64 +. 80.0);
  (* Aggregated vectors: the biggest combined message may pick up more
     items on hot destinations as n grows, but it must stay well below
     linear growth (observed ~4x over a 16x node increase). *)
  let a64 = bits 64 and a1024 = bits 1024 in
  checkb "aggregated vector growth stays sublinear" true (a1024 < 8.0 *. a64)

(* qcheck: KSelect = sort-then-index on random inputs. *)
let prop_kselect_matches_oracle =
  let gen =
    QCheck.Gen.(
      triple (2 -- 12) (1 -- 8) (0 -- 1000) >>= fun (n, per_node, prio_seed) ->
      map (fun k -> (n, per_node, prio_seed, k)) (1 -- (n * per_node)))
  in
  QCheck.Test.make ~name:"kselect matches sequential oracle" ~count:40 (QCheck.make gen)
    (fun (n, per_node, prio_seed, k) ->
      let rng = Dpq_util.Rng.create ~seed:prio_seed in
      let tree = tree_of ~n ~seed:2 in
      let elements = uniform_elements ~rng ~n ~per_node ~prio_range:50 in
      let all = Array.to_list elements |> List.concat in
      let r = K.select ~seed:(prio_seed + 1) ~net:(Phase.net tree) ~elements ~k () in
      E.equal r.K.element (K.select_seq all ~k))

(* -------------------------------------------------- differential layer *)

(* One differential data point: the optimized (aggregated) implementation
   against BOTH the sequential sorted-oracle and the pre-optimization
   pairwise protocol, on the same instance and seed.  Asserts the three
   agree on the selected element and that the optimization strictly drops
   engine messages. *)
let diff_point ~n ~per_node ~prio_range ~seed k =
  let rng = Dpq_util.Rng.create ~seed in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range in
  let all = Array.to_list elements |> List.concat in
  let oracle = K.select_seq all ~k in
  let opt = K.select ~seed ~net:(Phase.net tree) ~elements ~k () in
  let refr = K.select ~seed ~impl:`Pairwise ~net:(Phase.net tree) ~elements ~k () in
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: optimized matches oracle" n (List.length all) k)
    true
    (E.equal opt.K.element oracle);
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: pairwise matches oracle" n (List.length all) k)
    true
    (E.equal refr.K.element oracle);
  (* When both formats run Phases 1-2, they draw the same samples and build
     the same copy trees on the same nodes, so the diagnostics agree too —
     the participation count in particular is computed independently by
     each (flat stamp array vs. a set of (node, tree) pairs). *)
  let d_opt = opt.K.diagnostics and d_ref = refr.K.diagnostics in
  if not d_opt.K.phase1_skipped then begin
    let label what = Printf.sprintf "n=%d m=%d k=%d: %s agree" n (List.length all) k what in
    checkb (label "mean_trees_per_node") true
      (d_opt.K.mean_trees_per_node = d_ref.K.mean_trees_per_node);
    Alcotest.(check (list int)) (label "phase2_candidates") d_ref.K.phase2_candidates
      d_opt.K.phase2_candidates;
    Alcotest.(check (list int)) (label "phase2_rep_counts") d_ref.K.phase2_rep_counts
      d_opt.K.phase2_rep_counts
  end;
  (opt.K.report.Phase.messages, refr.K.report.Phase.messages)

(* qcheck sweep over random (n, per_node, k, seed) up to n=64, plus the
   deterministic large-n grid below; together they cover n up to 512. *)
let prop_differential_matches_and_drops =
  let gen =
    QCheck.Gen.(
      triple (2 -- 64) (1 -- 8) (0 -- 1000) >>= fun (n, per_node, seed) ->
      map (fun k -> (n, per_node, seed, k)) (1 -- (n * per_node)))
  in
  QCheck.Test.make ~name:"aggregated = pairwise = oracle, fewer messages" ~count:20
    (QCheck.make gen)
    (fun (n, per_node, seed, k) ->
      let opt_msgs, ref_msgs =
        diff_point ~n ~per_node ~prio_range:200 ~seed:(seed + 1) k
      in
      (* Tiny instances skip straight to one exact sorting stage, where the
         two formats can tie; from a handful of nodes up the aggregated
         format must win outright. *)
      if n >= 8 then opt_msgs < ref_msgs else opt_msgs <= ref_msgs)

let test_differential_large_grid () =
  List.iter
    (fun (n, per_node) ->
      let m = n * per_node in
      List.iter
        (fun k ->
          let opt, refr = diff_point ~n ~per_node ~prio_range:100_000 ~seed:(n + k) k in
          checkb (Printf.sprintf "n=%d k=%d: messages strictly drop (%d < %d)" n k opt refr)
            true (opt < refr))
        [ 1; m / 2; m ])
    [ (128, 4); (512, 4) ]

let test_planted_misaggregation_caught () =
  (* The planted wrong-aggregation bug (vote smaller/larger swapped inside
     combined vectors) must surface in the differential as a wrong element
     or a hard protocol failure — silent agreement would mean the test
     layer cannot see aggregation mistakes. *)
  let n = 32 and per_node = 16 in
  let rng = Dpq_util.Rng.create ~seed:97 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
  let all = Array.to_list elements |> List.concat in
  let k = (n * per_node) / 2 in
  let oracle = K.select_seq all ~k in
  let caught =
    Fun.protect
      ~finally:(fun () -> K.unsafe_misaggregate_votes := false)
      (fun () ->
        K.unsafe_misaggregate_votes := true;
        try
          let r = K.select ~seed:97 ~net:(Phase.net tree) ~elements ~k () in
          not (E.equal r.K.element oracle)
        with Failure _ -> true)
  in
  checkb "differential catches the planted bug" true caught;
  (* And the same instance passes clean with the flag off. *)
  let r = K.select ~seed:97 ~net:(Phase.net tree) ~elements ~k () in
  checkb "clean run agrees with oracle" true (E.equal r.K.element oracle)

(* ------------------------------------------------------ golden reports *)

(* Everything a [`Aggregated] selection reports, on one line: the element,
   the full cost report and the diagnostics (the float exactly, in hex). *)
let golden_line (r : K.result) =
  let p = r.K.report and d = r.K.diagnostics in
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    "%s rounds=%d msgs=%d cong=%d maxbits=%d bits=%d local=%d busiest=%d | m=%d p1it=%d \
     skip=%b p1=[%s] p2=[%s] reps=[%s] trees=%h p3=%d"
    (E.to_string r.K.element) p.Phase.rounds p.Phase.messages p.Phase.max_congestion
    p.Phase.max_message_bits p.Phase.total_bits p.Phase.local_deliveries
    p.Phase.busiest_node_load d.K.initial_candidates d.K.phase1_iterations d.K.phase1_skipped
    (ints d.K.phase1_candidates) (ints d.K.phase2_candidates) (ints d.K.phase2_rep_counts)
    d.K.mean_trees_per_node d.K.phase3_candidates

let golden_instance ~n ~per_node =
  let rng = Dpq_util.Rng.create ~seed:(41 + n) in
  (tree_of ~n ~seed:7, uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000)

(* n=64, k=m/2 under 5% drops, 2% duplicates and node 33 down for ticks
   610-619, which falls inside the third sorting stage: the node holds
   buffered items through ten skipped activations and flushes them when it
   comes back. *)
let golden_fault_plan () =
  Dpq_simrt.Fault_plan.create ~drop:0.05 ~duplicate:0.02
    ~crashes:[ { Dpq_simrt.Fault_plan.node = 33; from_tick = 610; until_tick = 620 } ]
    ~seed:5 ()

(* Recorded with prune decisions riding on the next broadcast and void
   Phase-1 iterations cut short; a change that claims the same protocol
   must reproduce every field. *)
let golden_expected =
  [
    ("n=16 k=1",
     "e(p=1770,11.3) rounds=132 msgs=982 cong=15 maxbits=1604 bits=114601 local=700 busiest=92 | m=128 p1it=2 skip=false p1=[27,27] p2=[] reps=[] trees=0x1.2cp+4 p3=27");
    ("n=16 k=64",
     "e(p=506076,8.0) rounds=214 msgs=1482 cong=15 maxbits=2157 bits=170839 local=1043 busiest=145 | m=128 p1it=2 skip=false p1=[75,69] p2=[28] reps=[16] trees=0x1.bbp+3 p3=28");
    ("n=16 k=128",
     "e(p=992254,14.1) rounds=206 msgs=808 cong=10 maxbits=879 bits=55526 local=690 busiest=90 | m=128 p1it=2 skip=false p1=[63,43] p2=[9] reps=[15] trees=0x1.4ep+2 p3=9");
    ("n=64 k=1",
     "e(p=682,56.1) rounds=418 msgs=5477 cong=36 maxbits=2304 bits=469686 local=3660 busiest=258 | m=512 p1it=2 skip=false p1=[216,216] p2=[74,12] reps=[28,33] trees=0x1.76p+2 p3=12");
    ("n=64 k=256",
     "e(p=522014,4.7) rounds=426 msgs=7727 cong=34 maxbits=2298 bits=768056 local=4394 busiest=373 | m=512 p1it=2 skip=false p1=[394,346] p2=[117,28] reps=[32,40] trees=0x1.2a8p+3 p3=28");
    ("n=64 k=512",
     "e(p=999177,24.5) rounds=410 msgs=4838 cong=34 maxbits=1808 bits=425620 local=3628 busiest=246 | m=512 p1it=2 skip=false p1=[336,215] p2=[38,6] reps=[28,31] trees=0x1.3d55555555555p+2 p3=6");
    ("n=256 k=1",
     "e(p=757,140.1) rounds=694 msgs=21921 cong=84 maxbits=3821 bits=2357556 local=13664 busiest=525 | m=1024 p1it=2 skip=false p1=[824,824] p2=[127,19] reps=[60,64] trees=0x1.3caaaaaaaaaabp+2 p3=19");
    ("n=256 k=512",
     "e(p=506791,232.3) rounds=864 msgs=34949 cong=80 maxbits=3922 bits=3973725 local=18004 busiest=778 | m=1024 p1it=2 skip=false p1=[887,887] p2=[327,83,24] reps=[56,76,64] trees=0x1.a6cp+2 p3=24");
    ("n=256 k=1024",
     "e(p=998417,15.3) rounds=690 msgs=22486 cong=69 maxbits=3661 bits=2383079 local=13718 busiest=487 | m=1024 p1it=2 skip=false p1=[771,716] p2=[114,15] reps=[68,55] trees=0x1.558p+2 p3=15");
    ("faults",
     "e(p=522014,4.7) rounds=667 msgs=8745 cong=25 maxbits=1794 bits=1074965 local=4394 busiest=449 | m=512 p1it=2 skip=false p1=[394,346] p2=[117,28] reps=[32,40] trees=0x1.2a8p+3 p3=28");
    ("shuffle",
     "e(p=522014,4.7) rounds=481 msgs=8911 cong=27 maxbits=1938 bits=789368 local=4394 busiest=457 | m=512 p1it=2 skip=false p1=[394,346] p2=[117,28] reps=[32,40] trees=0x1.2a8p+3 p3=28");
  ]

let golden_actual () =
  let plain =
    List.concat_map
      (fun (n, per_node) ->
        let tree, elements = golden_instance ~n ~per_node in
        let m = n * per_node in
        List.map
          (fun k ->
            ( Printf.sprintf "n=%d k=%d" n k,
              golden_line (K.select ~seed:3 ~net:(Phase.net tree) ~elements ~k ()) ))
          [ 1; m / 2; m ])
      [ (16, 8); (64, 8); (256, 4) ]
  in
  let tree, elements = golden_instance ~n:64 ~per_node:8 in
  let faults = golden_fault_plan () in
  let trace = Dpq_obs.Trace.create () in
  let faulty = K.select ~seed:3 ~net:(Phase.net ~trace ~faults tree) ~elements ~k:256 () in
  let sched = Dpq_simrt.Sched.create ~seed:9 (Shuffle { burst = 1; starvation = 0.1 }) in
  let shuffled = K.select ~seed:3 ~net:(Phase.net ~sched tree) ~elements ~k:256 () in
  ( plain @ [ ("faults", golden_line faulty); ("shuffle", golden_line shuffled) ],
    faults,
    trace )

let test_golden_aggregated_reports () =
  let actual, faults, trace = golden_actual () in
  (* The crash window must really overlap a sorting stage and cost
     deliveries, or the fault case would not exercise held items. *)
  let in_sort = ref false and down_in_sort = ref false in
  List.iter
    (function
      | Dpq_obs.Trace.Phase_start { name = "kselect-sort"; _ } -> in_sort := true
      | Dpq_obs.Trace.Phase_end { name = "kselect-sort"; _ } -> in_sort := false
      | Dpq_obs.Trace.Node_crashed { node = 33; kind = "down"; _ } -> down_in_sort := !in_sort
      | _ -> ())
    (Dpq_obs.Trace.events trace);
  checkb "crash window starts inside a sorting stage" true !down_in_sort;
  checkb "crash window drops deliveries" true
    ((Dpq_simrt.Fault_plan.stats faults).Dpq_simrt.Fault_plan.crash_drops > 0);
  checki "cases" (List.length golden_expected) (List.length actual);
  List.iter2
    (fun (label, want) (label', got) ->
      Alcotest.(check string) "case" label label';
      Alcotest.(check string) label want got)
    golden_expected actual

(* T4-style constancy: total rounds divided by log2(n) stays in a constant
   band as n quadruples twice — the Theorem 4.2 round bound, checked as a
   ratio rather than a single-point inequality. *)
let test_rounds_per_log_constant () =
  let per_log n =
    let rng = Dpq_util.Rng.create ~seed:29 in
    let tree = tree_of ~n ~seed:2 in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
    let r = run_and_check ~tree ~elements (4 * n) in
    float_of_int r.K.report.Phase.rounds /. (log (float_of_int n) /. log 2.0)
  in
  let samples = List.map per_log [ 64; 256; 1024 ] in
  let mn = List.fold_left min infinity samples and mx = List.fold_left max 0.0 samples in
  checkb
    (Printf.sprintf "rounds/log2(n) band [%.1f, %.1f] within 2.5x" mn mx)
    true
    (mx <= 2.5 *. mn)

(* Items one sorting stage over n' representatives posts: each of the n'
   copy trees has n' nodes, each made by one disseminate, sending one
   rendezvous, answered by one vote, and, below the root, sending one
   child sum. *)
let stage_items n' = (4 * n' * n') - n'

(* Allocation guard for the sorting stage: it keeps its items and messages
   in int columns and allocates nothing per item.  One fixed aggregated
   selection at n=256, m=4n runs Phase 2 and Phase 3 sorting stages (54 116
   items); its minor words, tree passes included, divided by those items
   bound the stage's words per item from above.  Measured 1.47 words per
   item, of which the sorting stages take about 0.7 (per-stage tables and
   one boxed float per pair point); it was 6.73 while the tree passes
   allocated per message, and 18.8 with one boxed payload record per item
   and a fresh item array per message. *)
let test_sorting_stage_allocation () =
  let tree, elements = golden_instance ~n:256 ~per_node:4 in
  let net = Phase.net tree in
  let before = Gc.minor_words () in
  let r = K.select ~seed:3 ~net ~elements ~k:512 () in
  let words = Gc.minor_words () -. before in
  let d = r.K.diagnostics in
  let reps = d.K.phase2_rep_counts @ [ d.K.phase3_candidates ] in
  Alcotest.(check (list int)) "stage sizes" [ 56; 76; 64; 24 ] reps;
  let items = List.fold_left (fun acc n' -> acc + stage_items n') 0 reps in
  checki "sorting-stage items" 54_116 items;
  let per_item = words /. float_of_int items in
  checkb
    (Printf.sprintf "%.2f minor words per sorting-stage item <= 8" per_item)
    true (per_item <= 8.0)

let () =
  Alcotest.run "dpq_kselect"
    [
      ( "oracle",
        [
          Alcotest.test_case "select_seq" `Quick test_select_seq;
        ] );
      ( "select",
        [
          Alcotest.test_case "small network all k" `Quick test_small_network_all_k;
          Alcotest.test_case "medium network" `Quick test_medium_network_selected_k;
          Alcotest.test_case "duplicate priorities" `Quick test_duplicate_priorities;
          Alcotest.test_case "all same priority" `Quick test_all_same_priority;
          Alcotest.test_case "skewed distribution" `Quick test_skewed_distribution;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "one element" `Quick test_one_element;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          QCheck_alcotest.to_alcotest prop_kselect_matches_oracle;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "phase 1 reduces candidates" `Quick test_phase1_reduces_candidates;
          Alcotest.test_case "phase 2 reaches threshold" `Quick test_phase2_reaches_threshold;
          Alcotest.test_case "trees per node bounded" `Quick test_trees_per_node_bounded;
          Alcotest.test_case "phase 2 geometric drop (64 seeds)" `Quick
            test_phase2_geometric_drop_64_seeds;
          Alcotest.test_case "rounds logarithmic" `Slow test_rounds_logarithmic;
          Alcotest.test_case "message bits logarithmic" `Quick test_message_bits_logarithmic;
          Alcotest.test_case "rounds per log2(n) constant" `Slow test_rounds_per_log_constant;
          Alcotest.test_case "void phase 1 cut short" `Quick test_void_phase1_cut_short;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential_matches_and_drops;
          Alcotest.test_case "large grid messages drop" `Quick test_differential_large_grid;
          Alcotest.test_case "planted misaggregation caught" `Quick
            test_planted_misaggregation_caught;
          Alcotest.test_case "golden aggregated reports" `Quick test_golden_aggregated_reports;
          Alcotest.test_case "sorting stage allocation guard" `Quick test_sorting_stage_allocation;
        ] );
    ]
