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

let run_and_check ?(seed = 3) ?impl ~tree ~elements k =
  let all = Array.to_list elements |> List.concat in
  let r = K.select ~seed ?impl ~net:(Phase.net tree) ~elements ~k () in
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

(* Priorities across the whole int range: the counting path's priority
   span between min_int and max_int does not fit an int, so it takes
   sampled passes until the span does, then range passes. *)
let test_extreme_priorities () =
  let n = 16 in
  let tree = tree_of ~n ~seed:9 in
  let rng = Dpq_util.Rng.create ~seed:23 in
  let elements =
    Array.init n (fun v ->
        List.init 8 (fun s ->
            let prio =
              match s mod 4 with
              | 0 -> min_int + v
              | 1 -> max_int - v
              | 2 -> (v - 8) * (max_int / 16)
              | _ -> (Dpq_util.Rng.int rng 1_000_000 - 500_000) * 9_000_000_000_000
            in
            E.make ~prio ~origin:v ~seq:s ()))
  in
  List.iter (fun k -> ignore (run_and_check ~tree ~elements k)) [ 1; 17; 40; 64; 100; 127; 128 ]

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

(* The Phase-1 and Phase-2 lemmas are about the paper's protocol, so those
   checks run the [`Pairwise] reference; the round and message-size
   theorems hold for both implementations. *)

let test_phase1_reduces_candidates () =
  let rng = Dpq_util.Rng.create ~seed:17 in
  let n = 128 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:32 ~prio_range:1_000_000 in
  let r = run_and_check ~impl:`Pairwise ~tree ~elements 2048 in
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
  let r = run_and_check ~impl:`Pairwise ~tree ~elements 10 in
  let d = r.K.diagnostics in
  checkb "phase 1 not skipped" false d.K.phase1_skipped;
  checki "one phase-1 iteration" 1 d.K.phase1_iterations;
  Alcotest.(check (list int)) "nothing pruned" [ 160 ] d.K.phase1_candidates

let test_phase2_reaches_threshold () =
  let rng = Dpq_util.Rng.create ~seed:19 in
  let n = 64 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:40 ~prio_range:1_000_000 in
  let r = run_and_check ~impl:`Pairwise ~tree ~elements 1280 in
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
    let r = run_and_check ~impl:`Pairwise ~tree ~elements (8 * n) in
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
    let r = run_and_check ~seed ~impl:`Pairwise ~tree ~elements k in
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
  (* The O(log n)-bit wire-word theorem (Lemma 5.5), for both formats:
     the pairwise reference sends one payload per message, counting a
     fixed number of O(log n)-bit fields per message. *)
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
  (* Counting: a message holds at most 16 counts, or s+1 counts and
     (s+1)·s elements.  Every message fits that format at the run's field
     widths (counts up to m = 8n, priorities in [1, 80n], origins below n,
     sequence numbers below 8, an empty payload, and the header's two
     points below 3n), whose size 16x the nodes widen by log2 16 = 4 bits
     a field.  The bound is that full format, not
     the n = 64 reading: the two runs sample different elements, whose
     priorities differ in width, so a reading-relative bound would compare
     different messages. *)
  let ceiling n =
    let bits = Dpq_util.Bitsize.bits_of_int in
    let header = 2 * Dpq_util.Bitsize.bits_of_nat_bound ((3 * n) - 1) in
    let element = bits (80 * n) + bits (n - 1) + bits 7 + bits 0 in
    let counts = K.fanout + 1 and count = bits (8 * n) in
    header + max (16 * count) ((counts * count) + (counts * K.fanout * element))
  in
  List.iter
    (fun n ->
      let b = bits n in
      checkb
        (Printf.sprintf "counting: %.0f bits at n=%d, full format %d" b n (ceiling n))
        true
        (b <= float_of_int (ceiling n)))
    [ 64; 1024 ];
  (* 4 bits for each of the header's two points, the 6 counts and the 30
     elements' priorities and origins. *)
  checki "the format widens by 4 bits a field" (4 * (2 + 6 + (2 * 30)))
    (ceiling 1024 - ceiling 64)

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

(* ------------------------------------------------------ priority bounds *)

(* The shapes a caller's priority bound can take against the candidates. *)
type bound_case = Exact | Too_wide | Too_narrow | Ties | Small | Full_range

let bound_case_name = function
  | Exact -> "exact"
  | Too_wide -> "far too wide"
  | Too_narrow -> "too narrow"
  | Ties -> "under 16 priorities"
  | Small -> "m <= sample_max"
  | Full_range -> "min_int..max_int"

let prio_span elements =
  List.fold_left
    (fun (lo, hi) (e : E.t) -> (min lo e.E.prio, max hi e.E.prio))
    (max_int, min_int)
    (List.concat (Array.to_list elements))

(* An instance of [case] on n nodes: its candidates and the bound. *)
let bound_instance case ~n ~seed =
  let rng = Dpq_util.Rng.create ~seed in
  let per_node = match case with Small -> K.sample_max / n | _ -> 4 + Dpq_util.Rng.int rng 8 in
  let prio () =
    match case with
    | Ties -> 100 + Dpq_util.Rng.int rng 6
    | Full_range -> (
        match Dpq_util.Rng.int rng 4 with
        | 0 -> min_int + Dpq_util.Rng.int rng 3
        | 1 -> max_int - Dpq_util.Rng.int rng 3
        | 2 -> (Dpq_util.Rng.int rng 1_000_000 - 500_000) * 9_000_000_000_000
        | _ -> Dpq_util.Rng.int rng 1_000)
    | Exact | Too_wide | Too_narrow | Small -> 1 + Dpq_util.Rng.int rng 1_000_000
  in
  let elements =
    Array.init n (fun v -> List.init per_node (fun s -> E.make ~prio:(prio ()) ~origin:v ~seq:s ()))
  in
  let lo, hi = prio_span elements in
  let bound =
    match case with
    | Exact | Ties | Small -> (lo, hi)
    | Too_wide -> (lo - 1_000_000_000, hi + 1_000_000_000)
    | Too_narrow -> (lo + ((hi - lo) / 3), hi - ((hi - lo) / 3))
    | Full_range -> (min_int, max_int)
  in
  (elements, bound)

let le_counts_direct elements e =
  Array.map (List.fold_left (fun acc x -> if E.compare x e <= 0 then acc + 1 else acc) 0) elements

(* With any bound, right or wrong, the counting selection returns the
   oracle's element, and its per-node counts at or below it are exact. *)
let prop_bounded_select =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Exact; Too_wide; Too_narrow; Ties; Small; Full_range ])
        (1 -- 24) (0 -- 10_000)
      >>= fun (case, n, seed) -> map (fun kf -> (case, n, seed, kf)) (0 -- 1000))
  in
  QCheck.Test.make ~name:"bounded select matches the oracle" ~count:200 (QCheck.make gen)
    (fun (case, n, seed, kf) ->
      let elements, bound = bound_instance case ~n ~seed in
      let all = List.concat (Array.to_list elements) in
      let m = List.length all in
      if case = Small then checkb "small case fits one message" true (m <= K.sample_max);
      if case = Too_narrow then begin
        let lo, hi = bound in
        checkb "too narrow: candidates below and above" true
          (List.exists (fun (e : E.t) -> e.E.prio < lo) all
          && List.exists (fun (e : E.t) -> e.E.prio > hi) all)
      end;
      let k = 1 + (kf * (m - 1) / 1000) in
      let r = K.select ~seed ~bound ~net:(Phase.net (tree_of ~n ~seed:2)) ~elements ~k () in
      let label = Printf.sprintf "%s n=%d seed=%d k=%d" (bound_case_name case) n seed k in
      checkb (label ^ ": oracle's element") true (E.equal r.K.element (K.select_seq all ~k));
      Alcotest.(check (array int)) (label ^ ": counts at or below it")
        (le_counts_direct elements r.K.element) r.K.le_counts;
      true)

(* An exact bound replaces the pass that learns the extremes: on wide
   priorities the selection takes one iteration fewer than without it. *)
let test_exact_bound_saves_an_iteration () =
  let n = 64 in
  let tree = tree_of ~n ~seed:2 in
  for seed = 1 to 8 do
    let rng = Dpq_util.Rng.create ~seed:(700 + seed) in
    let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
    let k = 1 + Dpq_util.Rng.int rng (8 * n) in
    let iterations ?bound () =
      let r = K.select ~seed ?bound ~net:(Phase.net tree) ~elements ~k () in
      List.length r.K.diagnostics.K.phase2_candidates
    in
    checki (Printf.sprintf "seed %d k=%d" seed k) (iterations () - 1)
      (iterations ~bound:(prio_span elements) ())
  done

(* The first pass still counts every candidate, with or without a bound:
   candidates on a node the overlay removed are not in the tree, and the
   selection fails naming both counts. *)
let test_planted_miscount () =
  let n = 8 in
  let tree = Aggtree.of_ldb (Ldb.remove (Ldb.build ~n ~seed:2) ~id:3) in
  List.iter
    (fun per_node ->
      let rng = Dpq_util.Rng.create ~seed:per_node in
      let elements = uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000 in
      let m = n * per_node in
      let lo, hi = prio_span elements in
      List.iter
        (fun bound ->
          match K.select ?bound ~net:(Phase.net tree) ~elements ~k:1 () with
          | _ -> Alcotest.fail "a miscount went unnoticed"
          | exception Failure msg ->
              Alcotest.(check string) "message"
                (Printf.sprintf "Kselect: the tree counted %d of %d candidates" (m - per_node) m)
                msg)
        [ None; Some (lo, hi); Some (lo + 10, hi - 10); Some (7, 9) ])
    [ 2; 8 ]

(* -------------------------------------------------- differential layer *)

(* One differential data point: the counting implementation against BOTH
   the sequential sorted oracle and the paper's pairwise protocol, on the
   same instance and seed.  Returns both message counts. *)
let diff_point ~n ~per_node ~prio_range ~seed k =
  let rng = Dpq_util.Rng.create ~seed in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node ~prio_range in
  let all = Array.to_list elements |> List.concat in
  let oracle = K.select_seq all ~k in
  let opt = K.select ~seed ~net:(Phase.net tree) ~elements ~k () in
  let refr = K.select ~seed ~impl:`Pairwise ~net:(Phase.net tree) ~elements ~k () in
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: counting matches oracle" n (List.length all) k)
    true
    (E.equal opt.K.element oracle);
  checkb
    (Printf.sprintf "n=%d m=%d k=%d: pairwise matches oracle" n (List.length all) k)
    true
    (E.equal refr.K.element oracle);
  (opt.K.report.Phase.messages, refr.K.report.Phase.messages)

(* qcheck sweep over random (n, per_node, k, seed) up to n=64, plus the
   deterministic large-n grid below; together they cover n up to 512. *)
let prop_differential_matches_and_drops =
  let gen =
    QCheck.Gen.(
      triple (2 -- 64) (1 -- 8) (0 -- 1000) >>= fun (n, per_node, seed) ->
      map (fun k -> (n, per_node, seed, k)) (1 -- (n * per_node)))
  in
  QCheck.Test.make ~name:"counting = pairwise = oracle, fewer messages" ~count:20
    (QCheck.make gen)
    (fun (n, per_node, seed, k) ->
      let opt_msgs, ref_msgs = diff_point ~n ~per_node ~prio_range:200 ~seed:(seed + 1) k in
      opt_msgs < ref_msgs)

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

(* The shapes a selection meets, each with its network: priorities from a
   wide range, a narrow one (many duplicates) or a single value; every
   element on one node; one node killed (removed from the overlay, its
   elements gone with it); 5% drops and 2% duplicates; a shuffling
   scheduler. *)
type shape = Wide | Narrow | All_equal | One_node | Killed | Faulty | Shuffled

let shape_name = function
  | Wide -> "wide"
  | Narrow -> "narrow"
  | All_equal -> "all-equal"
  | One_node -> "one node"
  | Killed -> "killed node"
  | Faulty -> "drop 5%/dup 2%"
  | Shuffled -> "shuffle"

let shape_instance shape ~n ~seed =
  let rng = Dpq_util.Rng.create ~seed in
  let per_node = if n >= 64 then 4 else 6 in
  let prio () =
    match shape with
    | Narrow -> 1 + Dpq_util.Rng.int rng 4
    | All_equal -> 7
    | Wide | One_node | Killed | Faulty | Shuffled -> 1 + Dpq_util.Rng.int rng 1_000_000
  in
  let ldb = Ldb.build ~n ~seed:2 in
  let ldb, dead = if shape = Killed && n > 1 then (Ldb.remove ldb ~id:(n / 2), n / 2) else (ldb, -1) in
  let elements =
    Array.init n (fun v ->
        let count =
          match shape with
          | One_node -> if v = n - 1 then per_node * n else 0
          | _ -> if v = dead then 0 else per_node
        in
        List.init count (fun s -> E.make ~prio:(prio ()) ~origin:v ~seq:s ()))
  in
  let tree = Aggtree.of_ldb ldb in
  let net () =
    match shape with
    | Faulty ->
        Phase.net ~faults:(Dpq_simrt.Fault_plan.create ~drop:0.05 ~duplicate:0.02 ~seed ()) tree
    | Shuffled ->
        Phase.net
          ~sched:(Dpq_simrt.Sched.create ~seed (Shuffle { burst = 1; starvation = 0.1 }))
          tree
    | _ -> Phase.net tree
  in
  (elements, net)

(* Counting = pairwise = oracle on every shape, at n ∈ {1, 2, 3, 16, 64,
   256} and k ∈ {1, m/2, m}.  The pairwise reference runs up to n = 64
   (at n = 256 its stages cost seconds per selection). *)
let prop_counting_shapes =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ 1; 2; 3; 16; 64; 256 ])
        (oneofl [ Wide; Narrow; All_equal; One_node; Killed; Faulty; Shuffled ])
        (0 -- 10_000))
  in
  QCheck.Test.make ~name:"counting = pairwise = oracle on every shape" ~count:30
    (QCheck.make gen)
    (fun (n, shape, seed) ->
      let elements, net = shape_instance shape ~n ~seed in
      let all = List.concat (Array.to_list elements) in
      let m = List.length all in
      List.for_all
        (fun k ->
          let oracle = K.select_seq all ~k in
          let label what =
            Printf.sprintf "n=%d %s seed=%d k=%d: %s" n (shape_name shape) seed k what
          in
          let c = K.select ~seed ~net:(net ()) ~elements ~k () in
          checkb (label "counting matches oracle") true (E.equal c.K.element oracle);
          if n <= 64 then begin
            let p = K.select ~seed ~impl:`Pairwise ~net:(net ()) ~elements ~k () in
            checkb (label "pairwise matches oracle") true (E.equal p.K.element oracle)
          end;
          true)
        (List.sort_uniq compare [ 1; max 1 (m / 2); m ]))

(* The bottom-s sample merges exactly: the bottom-s of two parts' bottom-s
   samples is the bottom-s of their union, whatever the split, with equal
   tags falling to the smaller element. *)
let prop_bottom_s_merge =
  let gen =
    QCheck.Gen.(
      pair (list_size (0 -- 12) (pair (0 -- 6) (0 -- 40))) (list_size (0 -- 12) (pair (0 -- 6) (0 -- 40))))
  in
  QCheck.Test.make ~name:"bottom-s samples merge exactly" ~count:300 (QCheck.make gen)
    (fun (a, b) ->
      (* Entries are (tag, element); an element appears at most once. *)
      let seen = Hashtbl.create 16 in
      let entries side l =
        List.filter_map
          (fun (tag, p) ->
            let e = E.make ~prio:p ~origin:side ~seq:p () in
            if Hashtbl.mem seen (side, p) then None
            else begin
              Hashtbl.replace seen (side, p) ();
              Some (tag, e)
            end)
          l
      in
      let a = entries 0 a and b = entries 1 b in
      let order (t1, e1) (t2, e2) = if t1 <> t2 then compare t1 t2 else E.compare e1 e2 in
      let union = List.sort order (a @ b) in
      let expect = List.filteri (fun i _ -> i < K.fanout) union in
      let got = K.bottom_s_merge a b in
      List.length got = List.length expect
      && List.for_all2 (fun (t1, e1) (t2, e2) -> t1 = t2 && E.equal e1 e2) got expect)

(* Tree passes of one counting selection, counted from its trace. *)
let counting_passes ~seed ~tree ~elements ~k =
  let trace = Dpq_obs.Trace.create () in
  let r = K.select ~seed ~net:(Phase.net ~trace tree) ~elements ~k () in
  let passes =
    List.length
      (List.filter
         (function
           | Dpq_obs.Trace.Phase_start { name = "up" | "broadcast"; _ } -> true
           | _ -> false)
         (Dpq_obs.Trace.events trace))
  in
  (r, passes, trace)

(* Passes per selection at n = 256, m = 4n, against the sequential probe
   of EXPERIMENTS.md §S21 (b = s = 5, uniform data, k = m/2: mean 10.5
   passes over 2 000 draws, none above 16). *)
let test_counting_pass_count () =
  let n = 256 in
  let tree = tree_of ~n ~seed:2 in
  let total = ref 0 and runs = ref 0 in
  for seed = 1 to 16 do
    let rng = Dpq_util.Rng.create ~seed:(500 + seed) in
    let elements = uniform_elements ~rng ~n ~per_node:4 ~prio_range:1_000_000 in
    List.iter
      (fun k ->
        let r, passes, _ = counting_passes ~seed ~tree ~elements ~k in
        checkb "right element" true
          (E.equal r.K.element (K.select_seq (List.concat (Array.to_list elements)) ~k));
        checkb (Printf.sprintf "seed %d k=%d: %d passes <= 16" seed k passes) true (passes <= 16);
        checki "two passes per iteration" (2 * List.length r.K.diagnostics.K.phase2_candidates) passes;
        total := !total + passes;
        incr runs)
      [ 512 ]
  done;
  let mean = float_of_int !total /. float_of_int !runs in
  checkb (Printf.sprintf "mean %.2f passes <= 12" mean) true (mean <= 12.0)

(* Priority-range passes make the pass count steady: over wide priorities
   a selection takes the same number of iterations on nearly every input,
   so a batch's rounds do not hinge on its sample (EXPERIMENTS.md §S22).
   Bottom-5 sampled pivots alone spread the same draws over five
   iteration counts, 3 to 7. *)
let test_counting_pass_count_steady () =
  let n = 256 in
  let tree = tree_of ~n ~seed:2 in
  let counts = Hashtbl.create 8 in
  let draws = 64 in
  for seed = 1 to draws do
    let rng = Dpq_util.Rng.create ~seed:(900 + seed) in
    let elements = uniform_elements ~rng ~n ~per_node:4 ~prio_range:1_000_000 in
    let r = K.select ~seed ~net:(Phase.net tree) ~elements ~k:(2 * n) () in
    let its = List.length r.K.diagnostics.K.phase2_candidates in
    Hashtbl.replace counts its (1 + Option.value (Hashtbl.find_opt counts its) ~default:0)
  done;
  let hist = List.sort compare (List.of_seq (Hashtbl.to_seq counts)) in
  let mode, at_mode = List.fold_left (fun (m, c) (i, c') -> if c' > c then (i, c') else (m, c)) (0, 0) hist in
  let shown = String.concat ", " (List.map (fun (i, c) -> Printf.sprintf "%d: %d" i c) hist) in
  checkb (Printf.sprintf "iterations {%s}: %d of %d at the mode" shown at_mode draws) true
    (at_mode * 10 >= draws * 9);
  checkb (Printf.sprintf "iterations {%s}: none above mode + 1" shown) true
    (List.for_all (fun (i, _) -> i <= mode + 1) hist)

(* The trace a counting selection leaves: one [kselect_round] with stage
   "phase2" per iteration, numbered from 1, with the kept bucket's count,
   then exactly one "phase3" (perfbench's layer fold ends a selection on
   any other stage). *)
let test_counting_trace_shape () =
  let rng = Dpq_util.Rng.create ~seed:61 in
  let n = 64 in
  let tree = tree_of ~n ~seed:2 in
  let elements = uniform_elements ~rng ~n ~per_node:8 ~prio_range:1_000_000 in
  let r, _, trace = counting_passes ~seed:5 ~tree ~elements ~k:200 in
  let rounds =
    List.filter_map
      (function
        | Dpq_obs.Trace.Kselect_round { stage; iteration; candidates; _ } ->
            Some (stage, iteration, candidates)
        | _ -> None)
      (Dpq_obs.Trace.events trace)
  in
  let d = r.K.diagnostics in
  let want =
    List.mapi (fun i c -> ("phase2", i + 1, c)) d.K.phase2_candidates
    @ [ ("phase3", 0, d.K.phase3_candidates) ]
  in
  Alcotest.(check (list (triple string int int))) "kselect rounds" want rounds;
  checkb "final bucket fits one sample" true (d.K.phase3_candidates <= K.fanout);
  checkb "several iterations" true (List.length d.K.phase2_candidates >= 3)

(* ------------------------------------------------------ golden reports *)

(* Everything a counting selection reports, on one line: the element, the
   full cost report and the kept buckets' counts. *)
let golden_line (r : K.result) =
  let p = r.K.report and d = r.K.diagnostics in
  Printf.sprintf "%s rounds=%d msgs=%d cong=%d maxbits=%d bits=%d local=%d busiest=%d | kept=[%s] last=%d"
    (E.to_string r.K.element) p.Phase.rounds p.Phase.messages p.Phase.max_congestion
    p.Phase.max_message_bits p.Phase.total_bits p.Phase.local_deliveries p.Phase.busiest_node_load
    (String.concat "," (List.map string_of_int d.K.phase2_candidates))
    d.K.phase3_candidates

let golden_actual () =
  let instance ~n ~per_node =
    let rng = Dpq_util.Rng.create ~seed:(41 + n) in
    (tree_of ~n ~seed:7, uniform_elements ~rng ~n ~per_node ~prio_range:1_000_000)
  in
  let plain =
    List.concat_map
      (fun (n, per_node) ->
        let tree, elements = instance ~n ~per_node in
        let m = n * per_node in
        List.map
          (fun k ->
            ( Printf.sprintf "n=%d k=%d" n k,
              golden_line (K.select ~seed:3 ~net:(Phase.net tree) ~elements ~k ()) ))
          [ 1; m / 2; m ])
      [ (16, 8); (64, 8); (256, 4) ]
  in
  let tree, elements = instance ~n:64 ~per_node:8 in
  (* n=64, k=m/2 under 5% drops, 2% duplicates and node 33 down for ticks
     60-69, between the selection's first and last up pass (checked
     below). *)
  let faults =
    Dpq_simrt.Fault_plan.create ~drop:0.05 ~duplicate:0.02
      ~crashes:[ { Dpq_simrt.Fault_plan.node = 33; from_tick = 60; until_tick = 70 } ]
      ~seed:5 ()
  in
  let trace = Dpq_obs.Trace.create () in
  let faulty = K.select ~seed:3 ~net:(Phase.net ~trace ~faults tree) ~elements ~k:256 () in
  let sched = Dpq_simrt.Sched.create ~seed:9 (Shuffle { burst = 1; starvation = 0.1 }) in
  let shuffled = K.select ~seed:3 ~net:(Phase.net ~sched tree) ~elements ~k:256 () in
  (plain @ [ ("faults", golden_line faulty); ("shuffle", golden_line shuffled) ], faults, trace)

(* Recorded when counting took priority-range passes; a change that claims
   the same protocol must reproduce every field. *)
let golden_expected =
  [
    ("n=16 k=1",
     "e(p=1770,11.3) rounds=60 msgs=90 cong=1 maxbits=778 bits=11674 local=192 busiest=9 | kept=[128,12,12] last=12");
    ("n=16 k=64",
     "e(p=506076,8.0) rounds=60 msgs=90 cong=1 maxbits=778 bits=12110 local=192 busiest=9 | kept=[128,12,12] last=12");
    ("n=16 k=128",
     "e(p=992254,14.1) rounds=60 msgs=90 cong=1 maxbits=778 bits=12267 local=192 busiest=9 | kept=[128,12,12] last=12");
    ("n=64 k=1",
     "e(p=682,56.1) rounds=96 msgs=378 cong=1 maxbits=861 bits=58698 local=768 busiest=9 | kept=[512,24,24] last=24");
    ("n=64 k=256",
     "e(p=522014,4.7) rounds=128 msgs=504 cong=1 maxbits=861 bits=60391 local=1024 busiest=12 | kept=[512,33,4,4] last=4");
    ("n=64 k=512",
     "e(p=999177,24.5) rounds=128 msgs=504 cong=1 maxbits=861 bits=60155 local=1024 busiest=12 | kept=[512,38,2,2] last=2");
    ("n=256 k=1",
     "e(p=757,140.1) rounds=224 msgs=2040 cong=2 maxbits=905 bits=207501 local=4096 busiest=12 | kept=[1024,65,4,4] last=4");
    ("n=256 k=512",
     "e(p=506791,232.3) rounds=224 msgs=2040 cong=2 maxbits=905 bits=213310 local=4096 busiest=12 | kept=[1024,68,8,8] last=8");
    ("n=256 k=1024",
     "e(p=998417,15.3) rounds=224 msgs=2040 cong=2 maxbits=905 bits=212055 local=4096 busiest=12 | kept=[1024,61,2,2] last=2");
    ("faults",
     "e(p=522014,4.7) rounds=199 msgs=504 cong=1 maxbits=894 bits=77023 local=1024 busiest=12 | kept=[512,33,4,4] last=4");
    ("shuffle",
     "e(p=522014,4.7) rounds=138 msgs=504 cong=2 maxbits=861 bits=60391 local=1024 busiest=12 | kept=[512,33,4,4] last=4");
  ]

let test_golden_counting_reports () =
  let actual, faults, trace = golden_actual () in
  (* The crash window must really fall inside the selection's iterations
     and cost deliveries, or the fault case would test drops and
     duplicates only: node 33 goes down after the first up pass and before
     the last one starts. *)
  let ups = ref 0 and ups_before_down = ref (-1) in
  List.iter
    (function
      | Dpq_obs.Trace.Phase_start { name = "up"; _ } -> incr ups
      | Dpq_obs.Trace.Node_crashed { node = 33; kind = "down"; _ } -> ups_before_down := !ups
      | _ -> ())
    (Dpq_obs.Trace.events trace);
  checkb "crash window starts between the first and the last up pass" true
    (!ups_before_down >= 1 && !ups_before_down < !ups);
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
          Alcotest.test_case "extreme priorities" `Quick test_extreme_priorities;
          Alcotest.test_case "skewed distribution" `Quick test_skewed_distribution;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "one element" `Quick test_one_element;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          QCheck_alcotest.to_alcotest prop_kselect_matches_oracle;
        ] );
      ( "bound",
        [
          QCheck_alcotest.to_alcotest prop_bounded_select;
          Alcotest.test_case "exact bound saves an iteration" `Quick
            test_exact_bound_saves_an_iteration;
          Alcotest.test_case "planted miscount" `Quick test_planted_miscount;
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
          QCheck_alcotest.to_alcotest prop_counting_shapes;
          QCheck_alcotest.to_alcotest prop_bottom_s_merge;
          Alcotest.test_case "counting pass count" `Quick test_counting_pass_count;
          Alcotest.test_case "counting pass count steady" `Quick test_counting_pass_count_steady;
          Alcotest.test_case "counting trace shape" `Quick test_counting_trace_shape;
          Alcotest.test_case "golden counting reports" `Quick test_golden_counting_reports;
        ] );
    ]
