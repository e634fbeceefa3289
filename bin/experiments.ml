(* Experiment harness: regenerates every table and figure of the
   reproduction (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
   for recorded results).

     dune exec bin/experiments.exe                 -- run everything
     dune exec bin/experiments.exe -- --only t1,t4 -- a subset
     dune exec bin/experiments.exe -- --full       -- larger sweeps
     dune exec bin/experiments.exe -- --seed 7     -- different randomness

   Every table's input is a closed-loop Workload.Gen spec seeded by --seed:
   whole-run metrics come from Runner, the rows that inspect the heap
   afterwards fill a Dpq_heap from the same rounds, and the KSelect tables
   turn one generated round into per-node element lists. *)

module Table = Dpq_util.Table
module Stats = Dpq_util.Stats
module E = Dpq_util.Element
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Seap = Dpq_seap.Seap
module K = Dpq_kselect.Kselect
module W = Dpq_workloads.Workload
module G = W.Gen
module R = Dpq_workloads.Runner
module Heap = Dpq.Dpq_heap
module Trace = Dpq_obs.Trace
module Checker = Dpq_semantics.Checker

(* Set by --trace FILE: every Runner-driven table feeds this sink; the
   driver writes the JSONL file at the end of the run. *)
let trace_sink : Trace.t option ref = ref None

(* Set by --faults SPEC: every Runner-driven table executes over this
   faulty network with reliable ack/retransmit delivery. *)
let fault_spec : string option ref = ref None

let make_faults ~seed =
  Option.map (fun spec -> Dpq_simrt.Fault_plan.of_string ~seed spec) !fault_spec

let log2 n = log (float_of_int n) /. log 2.0
let fi = float_of_int

let header id source expectation =
  Printf.printf "\n### %s — %s\n(expected shape: %s)\n\n" id source expectation

(* ------------------------------------------------------------ workloads *)

(* [rounds] rounds in which every node injects [lambda] ops; a single
   batch is [rounds = 1]. *)
let closed ?(rounds = 1) ?(insert_ratio = 0.5) ~seed ~n ~lambda dist =
  G.{ n; rounds; lambda; insert_ratio; dist; seed; arrival = W.Closed }

let first_round spec = Option.get (G.next (G.create spec))

(* Skeap and Unbatched draw from their constant priority set, the others
   from a wide range. *)
let prios : Heap.backend -> W.prio_dist = function
  | Skeap { num_prios } | Unbatched { num_prios } -> Constant_set num_prios
  | Seap | Centralized -> Uniform (1, 1_000_000)

let skeap = Heap.Skeap { num_prios = 4 }

(* One whole run through the closed-loop driver, over --trace and --faults. *)
let run ?dht_mode ~seed backend (spec : G.spec) =
  R.run_gen ~seed ?trace:!trace_sink
    ?faults:(make_faults ~seed:(seed + spec.n))
    ?dht_mode ~n:spec.n backend (G.create spec)

let inject ~insert ~delete_min (round : W.round) =
  List.iter
    (fun (op : W.op) ->
      match op.action with
      | `Ins prio -> ignore (insert ~node:op.node ~prio)
      | `Del -> delete_min ~node:op.node)
    round

(* For the rows that read the heap afterwards (T7, T9, T11): every round of
   [spec] injected into a fresh heap and processed; returns the heap and
   the per-round results. *)
let filled ~seed backend (spec : G.spec) =
  let h = Heap.create ~seed ~n:spec.n backend in
  let gen = G.create spec in
  let rec go acc =
    match G.next gen with
    | None -> (h, List.rev acc)
    | Some round ->
        inject ~insert:(Heap.insert h) ~delete_min:(Heap.delete_min h) round;
        go (Heap.process h :: acc)
  in
  go []

(* KSelect's input: [per_node] generated inserts at each node, as elements. *)
let elements ~seed ~n ~per_node =
  let ops =
    Array.of_list
      (first_round (closed ~insert_ratio:1.0 ~seed ~n ~lambda:per_node (prios Seap)))
  in
  Array.init n (fun v ->
      List.init per_node (fun s ->
          match ops.((v * per_node) + s).W.action with
          | `Ins prio -> E.make ~prio ~origin:v ~seq:s ()
          | `Del -> assert false))

let net ~seed ~n = Phase.net (Aggtree.of_ldb (Ldb.build ~n ~seed))

let correct (r : K.result) elements ~k =
  string_of_bool (E.equal r.K.element (K.select_seq (List.concat (Array.to_list elements)) ~k))

(* One table, one row per swept value. *)
let sweep ~title ~columns xs row =
  let tab = Table.create ~title ~columns in
  List.iter (fun x -> Table.add_row tab (row x)) xs;
  Table.print tab

let right c = (c, Table.Right)
let left c = (c, Table.Left)

(* ------------------------------------------------------------------ T1 *)

let t1 ~seed ~full =
  header "T1" "Skeap rounds per batch vs n (Thm 3.2(3), Cor 3.6)"
    "rounds / log2 n roughly constant";
  let sizes = if full then [ 16; 64; 256; 1024; 4096; 16384 ] else [ 16; 64; 256; 1024; 4096 ] in
  sweep ~title:"T1 Skeap batch latency"
    ~columns:[ right "n"; right "rounds"; right "log2 n"; right "rounds/log2 n" ]
    sizes
    (fun n ->
      (* one insert per node, mean over three seeds *)
      let rounds =
        Stats.mean
          (List.map
             (fun s ->
               let seed = seed + s in
               fi (run ~seed skeap (closed ~insert_ratio:1.0 ~seed ~n ~lambda:1 (prios skeap))).R.rounds)
             [ 0; 1; 2 ])
      in
      [ string_of_int n; Table.fmt_float rounds; Table.fmt_float (log2 n); Table.fmt_float (rounds /. log2 n) ])

(* ----------------------------------------------------------- T2 and T3 *)

(* One batch of Λ mixed ops per node at n = 64: the largest message. *)
let max_bits ~seed backend lambda =
  (run ~seed backend (closed ~seed ~n:64 ~lambda (prios backend))).R.max_message_bits

let t2 ~seed ~full =
  header "T2" "Skeap max message size vs injection rate Λ (Lemma 3.8)"
    "grows linearly with Λ (the O(Λ log² n) term)";
  sweep ~title:"T2 Skeap message size vs Λ (n = 64)"
    ~columns:[ right "Λ"; right "max msg bits"; right "bits/Λ" ]
    (if full then [ 1; 2; 4; 8; 16; 32; 64; 128 ] else [ 1; 2; 4; 8; 16; 32; 64 ])
    (fun lambda ->
      let bits = max_bits ~seed skeap lambda in
      [ string_of_int lambda; string_of_int bits; Table.fmt_float (fi bits /. fi lambda) ])

let t3 ~seed ~full =
  header "T3" "Seap max message size vs injection rate Λ (Lemma 5.5)"
    "flat O(log n), independent of Λ — the headline improvement over Skeap";
  sweep ~title:"T3 Seap message size vs Λ (n = 64)"
    ~columns:[ right "Λ"; right "max msg bits" ]
    (if full then [ 1; 2; 4; 8; 16; 32; 64; 128 ] else [ 1; 2; 4; 8; 16; 32; 64 ])
    (fun lambda -> [ string_of_int lambda; string_of_int (max_bits ~seed Heap.Seap lambda) ])

(* ------------------------------------------------------------------ T4 *)

let t4 ~seed ~full =
  header "T4" "KSelect rounds vs n and m = n^q (Theorem 4.2)"
    "rounds / log2 n roughly constant in n and weakly sensitive to q (pairwise; counting's two-pass iterations, one per 16-fold cut of the priority span, grow it slowly, at fewer rounds)";
  let sizes = if full then [ 16; 64; 256; 1024; 4096 ] else [ 16; 64; 256; 1024 ] in
  sweep ~title:"T4 KSelect latency (k = m/2)"
    ~columns:
      [ right "n"; right "m"; right "m/n"; left "impl"; right "rounds"; right "rounds/log2 n";
        right "messages"; right "max msg bits"; right "max cong"; left "correct" ]
    (* n-sweep at m/n = 8, then a q-sweep at n = 256: m from n (q = 1) to
       ~n^2 (q = 2) *)
    (List.concat_map
       (fun size -> [ (size, `Counting); (size, `Pairwise) ])
       (List.map (fun n -> (n, 8)) sizes
       @ List.map (fun per_node -> (256, per_node)) [ 1; 32; (if full then 256 else 128) ]))
    (fun ((n, per_node), impl) ->
      let m = per_node * n in
      let elements = elements ~seed ~n ~per_node in
      let k = m / 2 in
      let r = K.select ~seed ~impl ~net:(net ~seed ~n) ~elements ~k () in
      [
        string_of_int n;
        string_of_int m;
        string_of_int per_node;
        (match impl with `Counting -> "counting" | `Pairwise -> "pairwise");
        string_of_int r.K.report.Phase.rounds;
        Table.fmt_float (fi r.K.report.Phase.rounds /. log2 n);
        string_of_int r.K.report.Phase.messages;
        string_of_int r.K.report.Phase.max_message_bits;
        string_of_int r.K.report.Phase.max_congestion;
        correct r elements ~k;
      ])

(* ------------------------------------------------------------------ T5 *)

let t5 ~seed ~full =
  header "T5" "Congestion vs injection rate Λ (Lemmas 3.7, 5.4)"
    "grows ~linearly with Λ (polylog factors), for both protocols";
  sweep ~title:"T5 max messages per node per round (n = 64)"
    ~columns:[ right "Λ"; right "skeap cong"; right "seap cong" ]
    (if full then [ 1; 2; 4; 8; 16; 32 ] else [ 1; 2; 4; 8; 16 ])
    (fun lambda ->
      string_of_int lambda
      :: List.map
           (fun backend ->
             string_of_int
               (run ~seed backend (closed ~seed ~n:64 ~lambda (prios backend))).R.max_congestion)
           [ skeap; Heap.Seap ])

(* ------------------------------------------------------------------ T6 *)

let t6 ~seed ~full =
  header "T6" "Skeap/Seap vs centralized vs unbatched (scalability claims, §1)"
    "batched protocols keep per-node load polylog; the baselines' coordinator/anchor load grows ~linearly with n·Λ, capping their bandwidth-honest throughput";
  let sizes = if full then [ 8; 16; 32; 64; 128; 256 ] else [ 8; 16; 32; 64; 128 ] in
  sweep ~title:"T6 protocol comparison (Λ = 2, 3 rounds, P = {1..4})"
    ~columns:
      [ right "n"; left "protocol"; right "ops"; right "rounds"; right "ops/round"; right "eff ops/round";
        right "hotspot load"; right "max congestion"; right "messages"; left "ok" ]
    (List.concat_map
       (fun n -> List.map (fun b -> (n, b)) [ skeap; Seap; Centralized; Unbatched { num_prios = 4 } ])
       sizes)
    (fun (n, backend) ->
      let s = run ~seed backend (closed ~rounds:3 ~seed:(seed * 3) ~n ~lambda:2 (prios skeap)) in
      [
        string_of_int n;
        R.protocol_name s;
        string_of_int s.R.ops;
        string_of_int s.R.rounds;
        Table.fmt_float (R.throughput s);
        Table.fmt_float (R.effective_throughput s);
        string_of_int s.R.hotspot_load;
        string_of_int s.R.max_congestion;
        string_of_int s.R.messages;
        string_of_bool s.R.semantics_ok;
      ])

(* ------------------------------------------------------------------ T7 *)

let t7 ~seed ~full =
  header "T7" "DHT element distribution (Lemma 2.2(iv), fairness)"
    "max/mean load stays a small factor (balls-into-bins), independent of n";
  sweep ~title:"T7 storage balance after m = 50n inserts"
    ~columns:[ right "n"; right "m"; right "mean/node"; right "max/node"; right "max/mean" ]
    (if full then [ 16; 64; 256; 1024 ] else [ 16; 64; 256 ])
    (fun n ->
      let h, _ = filled ~seed Seap (closed ~insert_ratio:1.0 ~seed ~n ~lambda:50 (prios Seap)) in
      let m = 50 * n in
      let mean = fi m /. fi n in
      let maxl = Array.fold_left max 0 (Heap.stored_per_node h) in
      [
        string_of_int n;
        string_of_int m;
        Table.fmt_float mean;
        string_of_int maxl;
        Table.fmt_float (fi maxl /. mean);
      ])

(* ------------------------------------------------------------------ T8 *)

let t8 ~seed ~full =
  header "T8" "Semantics under adversarial asynchrony (Lemmas 3.5, 5.2)"
    "every run passes its checker: 100% for both protocols under every delay policy";
  let trials = List.init (if full then 10 else 5) (fun i -> i + 1) in
  (* Runs of 3 batches of 3 ops per node at n = 8, one per trial: how many
     passed their checker, and how many deletes those runs answered with an
     element. *)
  let cells policy backend =
    let runs =
      List.map
        (fun trial ->
          let seed = seed + trial in
          run ~seed ~dht_mode:(Dht_async { seed = trial; policy }) backend
            (closed ~rounds:3 ~seed ~n:8 ~lambda:3 (prios backend)))
        trials
    in
    [
      Printf.sprintf "%d/%d"
        (List.length (List.filter (fun s -> s.R.semantics_ok) runs))
        (List.length trials);
      string_of_int (List.fold_left (fun acc s -> acc + s.R.got) 0 runs);
    ]
  in
  sweep
    ~title:(Printf.sprintf "T8 async semantics (%d random runs each)" (List.length trials))
    ~columns:[ left "policy"; left "skeap pass"; right "skeap got"; left "seap pass"; right "seap got" ]
    [
      ("uniform", Dpq_simrt.Async_engine.Uniform (1.0, 100.0));
      ("exponential", Dpq_simrt.Async_engine.Exponential 25.0);
      ("adversarial-lifo", Dpq_simrt.Async_engine.Adversarial_lifo);
    ]
    (fun (name, policy) -> (name :: cells policy skeap) @ cells policy Seap)

(* ------------------------------------------------------------------ T9 *)

let t9 ~seed ~full =
  header "T9" "Distributed sorting via Seap (application, §1)"
    "rounds grow near-linearly in m/n (each drain wave costs O(log n))";
  let n = 16 in
  sweep ~title:"T9 sorting m keys on 16 nodes"
    ~columns:[ right "m"; right "rounds"; right "rounds/(m/n)"; left "sorted" ]
    (if full then [ 64; 128; 256; 512; 1024 ] else [ 64; 128; 256; 512 ])
    (fun m ->
      let h, inserts =
        filled ~seed Seap (closed ~insert_ratio:1.0 ~seed ~n ~lambda:(m / n) (prios Seap))
      in
      let outcomes (r : Heap.result) f = List.filter_map (fun c -> f c.Heap.outcome) r.completions in
      let keys =
        List.concat_map (fun r -> outcomes r (function `Inserted e -> Some (E.prio e) | _ -> None)) inserts
      in
      (* drain waves: one delete at each of the first min(n, size) nodes *)
      let rec drain total out =
        if Heap.heap_size h = 0 then (total, List.rev_map E.prio out)
        else begin
          for node = 0 to min n (Heap.heap_size h) - 1 do
            Heap.delete_min h ~node
          done;
          let r = Heap.process h in
          let wave = List.sort E.compare (outcomes r (function `Got e -> Some e | _ -> None)) in
          drain (total + r.rounds) (List.rev_append wave out)
        end
      in
      let total, out = drain (List.fold_left (fun acc (r : Heap.result) -> acc + r.rounds) 0 inserts) [] in
      [
        string_of_int m;
        string_of_int total;
        Table.fmt_float (fi total /. (fi m /. fi n));
        string_of_bool (out = List.sort compare keys);
      ])

(* ---------------------------------------------------------- T10 and F1 *)

(* An overlay quantity per n, averaged over [seeds] label seeds, and that
   mean over log2 n. *)
let per_log_n ~seed ~full ~title ~what ~per ~seeds f =
  sweep ~title
    ~columns:[ right "n"; right what; right per ]
    (if full then [ 16; 64; 256; 1024; 4096; 16384 ] else [ 16; 64; 256; 1024; 4096 ])
    (fun n ->
      let x = Stats.mean (List.init seeds (fun s -> fi (f (Ldb.build ~n ~seed:(seed + s))))) in
      [ string_of_int n; Table.fmt_float x; Table.fmt_float (x /. log2 n) ])

let t10 ~seed ~full =
  header "T10" "Join cost vs n (Contribution 4)" "O(log n) messages per join";
  per_log_n ~seed ~full ~title:"T10 node join cost" ~what:"join msgs" ~per:"msgs/log2 n"
    ~seeds:4 Ldb.join_cost_hops

let f1 ~seed ~full =
  header "F1" "Aggregation tree height vs n (Lemma 2.2(i), Cor A.4)"
    "height ≈ c · log2 n (empirically c ≈ 5–6)";
  per_log_n ~seed ~full ~title:"F1 tree height (mean of 5 label seeds)" ~what:"height"
    ~per:"height/log2 n" ~seeds:5
    (fun ldb -> Aggtree.height (Aggtree.of_ldb ldb))

(* ------------------------------------------------------------------ F2 *)

let f2 ~seed ~full =
  header "F2" "Copy trees per node in KSelect's sorting stages (Lemma 4.5)"
    "Θ(1): flat in n (constant governed by the n' = 4√n sampling constant)";
  sweep ~title:"F2 mean T(v_i) participations per node"
    ~columns:[ right "n"; right "trees/node" ]
    (if full then [ 16; 64; 256; 1024 ] else [ 16; 64; 256 ])
    (fun n ->
      let r =
        K.select ~seed ~impl:`Pairwise ~net:(net ~seed ~n) ~elements:(elements ~seed ~n ~per_node:16)
          ~k:(8 * n) ()
      in
      [ string_of_int n; Table.fmt_float r.K.diagnostics.K.mean_trees_per_node ])

(* ------------------------------------------------------------------ F3 *)

let f3 ~seed ~full =
  header "F3" "Candidate-set shrinkage across KSelect phases (Lemmas 4.4, 4.7)"
    "phase 1 cuts m to ≪ n^{3/2} log n; each phase-2 iteration shrinks geometrically to ≤ ~4√n";
  let n = if full then 1024 else 256 in
  let m = n * 16 in
  let r =
    K.select ~seed ~impl:`Pairwise ~net:(net ~seed ~n) ~elements:(elements ~seed ~n ~per_node:16)
      ~k:(m / 2) ()
  in
  let d = r.K.diagnostics in
  let stages name = List.mapi (fun i c -> (Printf.sprintf "after %s iter %d" name (i + 1), c)) in
  sweep
    ~title:(Printf.sprintf "F3 candidates after each phase (n = %d, m = %d, k = m/2)" n m)
    ~columns:[ left "stage"; right "candidates N" ]
    ((("initial", d.K.initial_candidates) :: stages "phase-1" d.K.phase1_candidates)
    @ stages "phase-2" d.K.phase2_candidates
    @ [ ("exact phase input", d.K.phase3_candidates) ])
    (fun (stage, c) -> [ stage; string_of_int c ]);
  Printf.printf "bounds: n^1.5·log2 n = %.0f, 4√n = %.0f\n"
    ((fi n ** 1.5) *. log2 n)
    (4.0 *. sqrt (fi n))

(* ---------------------------------------------------------------- Fig1 *)

let fig1 ~seed:_ ~full:_ =
  header "Fig1" "Exact reproduction of paper Figure 1 (Skeap phases, n = 3, P = {1,2})"
    "all intermediate values equal the figure's";
  let module B = Dpq_skeap.Batch in
  let module A = Dpq_skeap.Anchor in
  let v_a = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1 ] in
  let v_b = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1; B.Ins 1; B.Ins 2; B.Del ] in
  let v_c = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1; B.Del; B.Del ] in
  let combined = B.combine v_a (B.combine v_b v_c) in
  Printf.printf "combined batch: %s (paper: ((4,1),3)) -> %s\n" (B.to_string combined)
    (if B.to_string combined = "((4,1),3)" then "MATCH" else "MISMATCH");
  let anchor = A.create ~num_prios:2 in
  let asg = A.assign anchor combined in
  let ea = List.hd asg in
  let i1 = Dpq_util.Interval.to_string ea.A.ins.(0) in
  let i2 = Dpq_util.Interval.to_string ea.A.ins.(1) in
  let d1 = match ea.A.dels with [ (1, iv) ] -> Dpq_util.Interval.to_string iv | _ -> "?" in
  Printf.printf "anchor intervals: I = (%s, %s), D = (%s, ∅) (paper: ([1,4],[1,1]), ([1,3],∅)) -> %s\n"
    i1 i2 d1
    (if i1 = "[1,4]" && i2 = "[1,1]" && d1 = "[1,3]" then "MATCH" else "MISMATCH");
  Printf.printf "anchor state: first_1=%d last_1=%d first_2=%d last_2=%d (paper: 4,4,1,1) -> %s\n"
    (A.first anchor ~prio:1) (A.last anchor ~prio:1) (A.first anchor ~prio:2)
    (A.last anchor ~prio:2)
    (if
       A.first anchor ~prio:1 = 4 && A.last anchor ~prio:1 = 4
       && A.first anchor ~prio:2 = 1
       && A.last anchor ~prio:2 = 1
     then "MATCH"
     else "MISMATCH")

(* ---------------------------------------------------------------- Fig2 *)

let fig2 ~seed:_ ~full:_ =
  header "Fig2" "Paper Figure 2: a 2-node LDB (6 virtual nodes) and its aggregation tree"
    "structure matches the figure's bold edges";
  let rec find_seed s =
    let ldb = Ldb.build ~n:2 ~seed:s in
    let mu = Ldb.label ldb (Ldb.vnode ~owner:0 Ldb.Middle) in
    let mv = Ldb.label ldb (Ldb.vnode ~owner:1 Ldb.Middle) in
    if mu < mv && mv /. 2.0 < mu && mv < (mu +. 1.0) /. 2.0 then (s, ldb) else find_seed (s + 1)
  in
  let s, ldb = find_seed 1 in
  let tree = Aggtree.of_ldb ldb in
  Printf.printf "(label seed %d gives the figure's cycle order l(u) l(v) m(u) m(v) r(u) r(v))\n" s;
  let name v =
    Printf.sprintf "%s(%s)" (Ldb.kind_to_string (Ldb.kind v)) (if Ldb.owner v = 0 then "u" else "v")
  in
  Array.iter
    (fun v -> Printf.printf "  %s label=%.4f\n" (name v) (Ldb.label ldb v))
    (Ldb.vnodes_in_cycle_order ldb);
  Printf.printf "tree edges (child -> parent):\n";
  Array.iter
    (fun v ->
      match Aggtree.parent tree v with
      | None -> Printf.printf "  %s is the anchor (root)\n" (name v)
      | Some p -> Printf.printf "  %s -> %s\n" (name v) (name p))
    (Ldb.vnodes_in_cycle_order ldb)



(* ----------------------------------------------------------------- T11 *)

let t11 ~seed ~full =
  header "T11" "Data movement under churn (Contribution 4)"
    "a single join re-homes ~m/n elements (the new node's key-space share), not ~m";
  sweep ~title:"T11 one join into a heap of m = 40n elements"
    ~columns:[ right "n"; right "m"; right "moved"; right "moved/m"; right "1/(n+1)" ]
    (if full then [ 8; 16; 32; 64; 128 ] else [ 8; 16; 32; 64 ])
    (fun n ->
      let h, _ = filled ~seed Seap (closed ~insert_ratio:1.0 ~seed ~n ~lambda:40 (prios Seap)) in
      let m = 40 * n in
      let c = Heap.add_node h in
      [
        string_of_int n;
        string_of_int m;
        string_of_int c.Heap.moved_elements;
        Table.fmt_float ~dec:3 (fi c.Heap.moved_elements /. fi m);
        Table.fmt_float ~dec:3 (1.0 /. fi (n + 1));
      ])

(* ------------------------------------------------------------------ A1 *)

let a1 ~seed ~full =
  header "A1" "Ablation: KSelect's sampling constant (n' = c·√n)"
    "larger c: fewer phase-2 iterations and rounds, more messages/congestion — a latency/bandwidth dial";
  let n = if full then 256 else 128 in
  let per_node = 16 in
  let elements = elements ~seed ~n ~per_node in
  let k = n * per_node / 2 in
  let net = net ~seed ~n in
  sweep
    ~title:(Printf.sprintf "A1 KSelect with n' = c·√n (n = %d, m = %d, k = m/2)" n (n * per_node))
    ~columns:
      [ right "c"; right "p2 iters"; right "rounds"; right "messages"; right "max congestion"; left "correct" ]
    [ 1.0; 2.0; 4.0; 8.0 ]
    (fun c ->
      let r = K.select ~seed ~impl:`Pairwise ~rep_factor:c ~net ~elements ~k () in
      [
        Table.fmt_float ~dec:0 c;
        string_of_int (List.length r.K.diagnostics.K.phase2_candidates);
        string_of_int r.K.report.Phase.rounds;
        string_of_int r.K.report.Phase.messages;
        string_of_int r.K.report.Phase.max_congestion;
        correct r elements ~k;
      ])

(* ------------------------------------------------------------------ A2 *)

let a2 ~seed ~full =
  header "A2" "Ablation: Seap's consistency dial (the paper's §6 extension)"
    "Sequential mode restores local consistency but needs more rounds to drain the same workload";
  let n = 8 in
  sweep ~title:"A2 rounds to drain Λ ops/node (n = 8, mixed workload)"
    ~columns:
      [ right "Λ"; left "mode"; right "protocol rounds"; right "drain iterations"; left "seq. consistent" ]
    (List.concat_map
       (fun lambda ->
         [ (lambda, "serializable", Seap.Serializable); (lambda, "sequential", Seap.Sequential) ])
       (if full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8 ]))
    (fun (lambda, name, consistency) ->
      (* Dpq_heap has no consistency dial: this row drives Seap itself *)
      let h = Seap.create ~seed ~consistency ~n () in
      inject ~insert:(Seap.insert h) ~delete_min:(Seap.delete_min h)
        (first_round (closed ~seed ~n ~lambda (prios Seap)));
      let results = Seap.drain h in
      let rounds = List.fold_left (fun acc r -> acc + r.Seap.report.Phase.rounds) 0 results in
      [
        string_of_int lambda;
        name;
        string_of_int rounds;
        string_of_int (List.length results);
        string_of_bool (Checker.check Checker.Online.Skeap_contract (Seap.oplog h) = Ok ());
      ])

(* ------------------------------------------------------------- driver *)

let all_experiments =
  [
    ("t1", t1);
    ("t2", t2);
    ("t3", t3);
    ("t4", t4);
    ("t5", t5);
    ("t6", t6);
    ("t7", t7);
    ("t8", t8);
    ("t9", t9);
    ("t10", t10);
    ("t11", t11);
    ("a1", a1);
    ("a2", a2);
    ("f1", f1);
    ("f2", f2);
    ("f3", f3);
    ("fig1", fig1);
    ("fig2", fig2);
  ]

let run only seed full trace_file faults =
  Option.iter (fun _ -> trace_sink := Some (Trace.create ())) trace_file;
  fault_spec := faults;
  (match faults with
  | Some spec -> (
      (* validate the spec up front so a typo fails before hours of sweeps *)
      try ignore (Dpq_simrt.Fault_plan.of_string ~seed spec)
      with Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit 1)
  | None -> ());
  let wanted =
    match only with
    | None -> all_experiments
    | Some names ->
        let names = String.split_on_char ',' names |> List.map String.trim in
        (match List.filter (fun id -> not (List.mem_assoc id all_experiments)) names with
        | [] -> ()
        | unknown ->
            Printf.eprintf "experiments: unknown --only id(s) %s; known: %s\n"
              (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
              (String.concat ", " (List.map fst all_experiments));
            exit 1);
        List.filter (fun (id, _) -> List.mem id names) all_experiments
  in
  (* An unwritable trace path fails here, before any table runs, not after
     all of them.  Opening without truncation creates the file if it is
     missing; the trace overwrites it at the end. *)
  let cannot_write_trace msg =
    Printf.eprintf "experiments: cannot write trace %s\n" msg;
    exit 1
  in
  Option.iter
    (fun file ->
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
      with Sys_error msg -> cannot_write_trace msg)
    trace_file;
  Printf.printf "# Skeap & Seap reproduction — experiment run (seed %d%s)\n" seed
    (if full then ", full sweeps" else "");
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      f ~seed ~full;
      Printf.printf "[%s done in %.1fs]\n" name (Unix.gettimeofday () -. t0))
    wanted;
  match (!trace_sink, trace_file) with
  | Some tr, Some file ->
      (try Trace.to_file tr file with Sys_error msg -> cannot_write_trace msg);
      Printf.printf "\n[trace: %d events from Runner-driven experiments -> %s]\n"
        (Trace.num_events tr) file
  | _ -> ()

open Cmdliner

let only =
  let doc = "Comma-separated experiment ids to run (default: all). Known: t1..t11, a1, a2, f1..f3, fig1, fig2." in
  Arg.(value & opt (some string) None & info [ "only" ] ~doc)

let seed =
  let doc = "Random seed for all generators." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let full =
  let doc = "Run the larger parameter sweeps (slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let trace_file =
  let doc =
    "Record the Runner-driven experiments (t1, t2, t3, t5, t6, t8) as JSONL trace events into \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let faults =
  let doc =
    "Run the Runner-driven experiments (t1, t2, t3, t5, t6, t8) over a faulty network, e.g. \
     $(b,drop=0.1,dup=0.05,crash=3@100-200); messages ride the reliable \
     ack/retransmit layer."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the Skeap & Seap reproduction" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const run $ only $ seed $ full $ trace_file $ faults)

let () = exit (Cmd.eval cmd)
