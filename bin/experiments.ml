(* Experiment harness: regenerates every table and figure of the
   reproduction (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
   for recorded results).

     dune exec bin/experiments.exe                 -- run everything
     dune exec bin/experiments.exe -- --only t1,t4 -- a subset
     dune exec bin/experiments.exe -- --full       -- larger sweeps
     dune exec bin/experiments.exe -- --seed 7     -- different randomness *)

module Table = Dpq_util.Table
module Rng = Dpq_util.Rng
module Stats = Dpq_util.Stats
module E = Dpq_util.Element
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Skeap = Dpq_skeap.Skeap
module Seap = Dpq_seap.Seap
module K = Dpq_kselect.Kselect
module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Trace = Dpq_obs.Trace
module Checker = Dpq_semantics.Checker

(* Set by --trace FILE: experiments that drive the unified Runner (t6) feed
   this sink; the driver writes the JSONL file at the end of the run. *)
let trace_sink : Trace.t option ref = ref None

(* Set by --faults SPEC: Runner-driven experiments (t6) execute over this
   faulty network with reliable ack/retransmit delivery. *)
let fault_spec : string option ref = ref None

let make_faults ~seed =
  Option.map (fun spec -> Dpq_simrt.Fault_plan.of_string ~seed spec) !fault_spec

let log2 n = log (float_of_int n) /. log 2.0
let fi = float_of_int

let header id source expectation =
  Printf.printf "\n### %s — %s\n(expected shape: %s)\n\n" id source expectation

(* ------------------------------------------------------------------ T1 *)

let t1 ~seed ~full =
  header "T1" "Skeap rounds per batch vs n (Thm 3.2(3), Cor 3.6)"
    "rounds / log2 n roughly constant";
  let sizes = if full then [ 16; 64; 256; 1024; 4096; 16384 ] else [ 16; 64; 256; 1024; 4096 ] in
  let tab =
    Table.create ~title:"T1 Skeap batch latency"
      ~columns:
        [ ("n", Table.Right); ("rounds", Table.Right); ("log2 n", Table.Right); ("rounds/log2 n", Table.Right) ]
  in
  List.iter
    (fun n ->
      let rounds =
        Stats.mean
          (List.map
             (fun s ->
               let h = Skeap.create ~seed:(seed + s) ~n ~num_prios:4 () in
               for v = 0 to n - 1 do
                 ignore (Skeap.insert h ~node:v ~prio:(1 + (v mod 4)))
               done;
               fi (Skeap.process_batch h).Skeap.report.Phase.rounds)
             [ 0; 1; 2 ])
      in
      Table.add_row tab
        [ string_of_int n; Table.fmt_float rounds; Table.fmt_float (log2 n); Table.fmt_float (rounds /. log2 n) ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ T2 *)

let lambda_workload h n lambda rng num_prios =
  for node = 0 to n - 1 do
    for i = 1 to lambda do
      if i mod 2 = 0 then ignore (Skeap.insert h ~node ~prio:(1 + Rng.int rng num_prios))
      else Skeap.delete_min h ~node
    done
  done

let t2 ~seed ~full =
  header "T2" "Skeap max message size vs injection rate Λ (Lemma 3.8)"
    "grows linearly with Λ (the O(Λ log² n) term)";
  let n = 64 in
  let lambdas = if full then [ 1; 2; 4; 8; 16; 32; 64; 128 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let tab =
    Table.create ~title:"T2 Skeap message size vs Λ (n = 64)"
      ~columns:[ ("Λ", Table.Right); ("max msg bits", Table.Right); ("bits/Λ", Table.Right) ]
  in
  List.iter
    (fun lambda ->
      let h = Skeap.create ~seed ~n ~num_prios:4 () in
      let rng = Rng.create ~seed:(seed * 31) in
      lambda_workload h n lambda rng 4;
      let bits = (Skeap.process_batch h).Skeap.report.Phase.max_message_bits in
      Table.add_row tab
        [ string_of_int lambda; string_of_int bits; Table.fmt_float (fi bits /. fi lambda) ])
    lambdas;
  Table.print tab

(* ------------------------------------------------------------------ T3 *)

let t3 ~seed ~full =
  header "T3" "Seap max message size vs injection rate Λ (Lemma 5.5)"
    "flat O(log n), independent of Λ — the headline improvement over Skeap";
  let n = 64 in
  let lambdas = if full then [ 1; 2; 4; 8; 16; 32; 64; 128 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let tab =
    Table.create ~title:"T3 Seap message size vs Λ (n = 64)"
      ~columns:[ ("Λ", Table.Right); ("max msg bits", Table.Right) ]
  in
  List.iter
    (fun lambda ->
      let h = Seap.create ~seed ~n () in
      let rng = Rng.create ~seed:(seed * 31) in
      for node = 0 to n - 1 do
        for i = 1 to lambda do
          if i mod 2 = 0 then ignore (Seap.insert h ~node ~prio:(1 + Rng.int rng 1_000_000))
          else Seap.delete_min h ~node
        done
      done;
      let bits = (Seap.process_round h).Seap.report.Phase.max_message_bits in
      Table.add_row tab [ string_of_int lambda; string_of_int bits ])
    lambdas;
  Table.print tab

(* ------------------------------------------------------------------ T4 *)

let t4 ~seed ~full =
  header "T4" "KSelect rounds vs n and m = n^q (Theorem 4.2)"
    "rounds / log2 n roughly constant in n; weakly sensitive to q (Phase 1 runs log q + 1 iterations)";
  let sizes = if full then [ 16; 64; 256; 1024; 4096 ] else [ 16; 64; 256; 1024 ] in
  let tab =
    Table.create ~title:"T4 KSelect latency (k = m/2)"
      ~columns:
        [
          ("n", Table.Right);
          ("m", Table.Right);
          ("m/n", Table.Right);
          ("rounds", Table.Right);
          ("rounds/log2 n", Table.Right);
          ("max msg bits", Table.Right);
          ("correct", Table.Left);
        ]
  in
  let run n per_node =
    let rng = Rng.create ~seed:(seed * 7) in
    let m = per_node * n in
    let tree = Aggtree.of_ldb (Ldb.build ~n ~seed) in
    let elements =
      Array.init n (fun v ->
          List.init per_node (fun s -> E.make ~prio:(1 + Rng.int rng (m * 10)) ~origin:v ~seq:s ()))
    in
    let k = m / 2 in
    let r = K.select ~seed ~net:(Phase.net tree) ~elements ~k () in
    let expect = K.select_seq (List.concat (Array.to_list elements)) ~k in
    Table.add_row tab
      [
        string_of_int n;
        string_of_int m;
        string_of_int per_node;
        string_of_int r.K.report.Phase.rounds;
        Table.fmt_float (fi r.K.report.Phase.rounds /. log2 n);
        string_of_int r.K.report.Phase.max_message_bits;
        string_of_bool (E.equal r.K.element expect);
      ]
  in
  List.iter (fun n -> run n 8) sizes;
  (* q-sweep at fixed n: m from n (q = 1) to ~n^2 (q = 2) *)
  let n = 256 in
  List.iter (fun per_node -> run n per_node) [ 1; 32; (if full then 256 else 128) ];
  Table.print tab

(* ------------------------------------------------------------------ T5 *)

let t5 ~seed ~full =
  header "T5" "Congestion vs injection rate Λ (Lemmas 3.7, 5.4)"
    "grows ~linearly with Λ (polylog factors), for both protocols";
  let n = 64 in
  let lambdas = if full then [ 1; 2; 4; 8; 16; 32 ] else [ 1; 2; 4; 8; 16 ] in
  let tab =
    Table.create ~title:"T5 max messages per node per round (n = 64)"
      ~columns:
        [ ("Λ", Table.Right); ("skeap cong", Table.Right); ("seap cong", Table.Right) ]
  in
  List.iter
    (fun lambda ->
      let hk = Skeap.create ~seed ~n ~num_prios:4 () in
      let rng = Rng.create ~seed:(seed * 13) in
      lambda_workload hk n lambda rng 4;
      let ck = (Skeap.process_batch hk).Skeap.report.Phase.max_congestion in
      let hs = Seap.create ~seed ~n () in
      for node = 0 to n - 1 do
        for i = 1 to lambda do
          if i mod 2 = 0 then ignore (Seap.insert hs ~node ~prio:(1 + Rng.int rng 1_000_000))
          else Seap.delete_min hs ~node
        done
      done;
      let cs = (Seap.process_round hs).Seap.report.Phase.max_congestion in
      Table.add_row tab [ string_of_int lambda; string_of_int ck; string_of_int cs ])
    lambdas;
  Table.print tab

(* ------------------------------------------------------------------ T6 *)

let t6 ~seed ~full =
  header "T6" "Skeap/Seap vs centralized vs unbatched (scalability claims, §1)"
    "batched protocols keep per-node load polylog; the baselines' coordinator/anchor load grows ~linearly with n·Λ, capping their bandwidth-honest throughput";
  let sizes = if full then [ 8; 16; 32; 64; 128; 256 ] else [ 8; 16; 32; 64; 128 ] in
  let tab =
    Table.create ~title:"T6 protocol comparison (Λ = 2, 3 rounds, P = {1..4})"
      ~columns:
        [
          ("n", Table.Right);
          ("protocol", Table.Left);
          ("ops", Table.Right);
          ("rounds", Table.Right);
          ("ops/round", Table.Right);
          ("eff ops/round", Table.Right);
          ("hotspot load", Table.Right);
          ("max congestion", Table.Right);
          ("messages", Table.Right);
          ("ok", Table.Left);
        ]
  in
  List.iter
    (fun n ->
      let spec =
        W.Gen.
          {
            n;
            rounds = 3;
            lambda = 2;
            insert_ratio = 0.5;
            dist = W.Constant_set 4;
            seed = seed * 3;
            arrival = W.Closed;
          }
      in
      let rows =
        List.map
          (fun backend ->
            R.run_gen ~seed ?trace:!trace_sink
              ?faults:(make_faults ~seed:(seed + n))
              ~n backend (W.Gen.create spec))
          [
            Dpq_types.Types.Skeap { num_prios = 4 };
            Dpq_types.Types.Seap;
            Dpq_types.Types.Centralized;
            Dpq_types.Types.Unbatched { num_prios = 4 };
          ]
      in
      List.iter
        (fun (s : R.summary) ->
          Table.add_row tab
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
        rows)
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ T7 *)

let t7 ~seed ~full =
  header "T7" "DHT element distribution (Lemma 2.2(iv), fairness)"
    "max/mean load stays a small factor (balls-into-bins), independent of n";
  let sizes = if full then [ 16; 64; 256; 1024 ] else [ 16; 64; 256 ] in
  let tab =
    Table.create ~title:"T7 storage balance after m = 50n inserts"
      ~columns:
        [
          ("n", Table.Right);
          ("m", Table.Right);
          ("mean/node", Table.Right);
          ("max/node", Table.Right);
          ("max/mean", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let h = Seap.create ~seed ~n () in
      let rng = Rng.create ~seed:(seed * 5) in
      let m = 50 * n in
      for i = 0 to m - 1 do
        ignore (Seap.insert h ~node:(i mod n) ~prio:(1 + Rng.int rng 1_000_000))
      done;
      ignore (Seap.process_round h);
      let counts = Seap.stored_per_node h in
      let mean = fi m /. fi n in
      let maxl = Array.fold_left max 0 counts in
      Table.add_row tab
        [
          string_of_int n;
          string_of_int m;
          Table.fmt_float mean;
          string_of_int maxl;
          Table.fmt_float (fi maxl /. mean);
        ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ T8 *)

let t8 ~seed ~full =
  header "T8" "Semantics under adversarial asynchrony (Lemmas 3.5, 5.2)"
    "every run passes its checker: 100% for both protocols under every delay policy";
  let trials = if full then 10 else 5 in
  let policies =
    [
      ("uniform", Dpq_simrt.Async_engine.Uniform (1.0, 100.0));
      ("exponential", Dpq_simrt.Async_engine.Exponential 25.0);
      ("adversarial-lifo", Dpq_simrt.Async_engine.Adversarial_lifo);
    ]
  in
  let tab =
    Table.create ~title:(Printf.sprintf "T8 async semantics (%d random runs each)" trials)
      ~columns:
        [ ("policy", Table.Left); ("skeap pass", Table.Left); ("seap pass", Table.Left) ]
  in
  List.iter
    (fun (name, policy) ->
      let skeap_pass = ref 0 and seap_pass = ref 0 in
      for trial = 1 to trials do
        let rng = Rng.create ~seed:(seed + (trial * 97)) in
        let hk = Skeap.create ~seed:(seed + trial) ~n:8 ~num_prios:3 () in
        for _ = 1 to 3 do
          for _ = 1 to 20 do
            let node = Rng.int rng 8 in
            if Rng.bool rng then ignore (Skeap.insert hk ~node ~prio:(1 + Rng.int rng 3))
            else Skeap.delete_min hk ~node
          done;
          ignore (Skeap.process_batch ~dht_mode:(Skeap.Dht_async { seed = trial; policy }) hk)
        done;
        if Checker.check Checker.Online.Skeap_contract (Skeap.oplog hk) = Ok () then
          incr skeap_pass;
        let hs = Seap.create ~seed:(seed + trial) ~n:8 () in
        for _ = 1 to 3 do
          for _ = 1 to 20 do
            let node = Rng.int rng 8 in
            if Rng.bool rng then ignore (Seap.insert hs ~node ~prio:(1 + Rng.int rng 100_000))
            else Seap.delete_min hs ~node
          done;
          ignore (Seap.process_round ~dht_mode:(Seap.Dht_async { seed = trial; policy }) hs)
        done;
        if Checker.check Checker.Online.Seap_contract (Seap.oplog hs) = Ok () then incr seap_pass
      done;
      Table.add_row tab
        [
          name;
          Printf.sprintf "%d/%d" !skeap_pass trials;
          Printf.sprintf "%d/%d" !seap_pass trials;
        ])
    policies;
  Table.print tab

(* ------------------------------------------------------------------ T9 *)

let t9 ~seed ~full =
  header "T9" "Distributed sorting via Seap (application, §1)"
    "rounds grow near-linearly in m/n (each drain wave costs O(log n))";
  let n = 16 in
  let ms = if full then [ 64; 128; 256; 512; 1024 ] else [ 64; 128; 256; 512 ] in
  let tab =
    Table.create ~title:"T9 sorting m keys on 16 nodes"
      ~columns:
        [
          ("m", Table.Right);
          ("rounds", Table.Right);
          ("rounds/(m/n)", Table.Right);
          ("sorted", Table.Left);
        ]
  in
  List.iter
    (fun m ->
      let h = Seap.create ~seed ~n () in
      let rng = Rng.create ~seed:(seed * 11) in
      let keys = List.init m (fun _ -> 1 + Rng.int rng 1_000_000) in
      List.iteri (fun i k -> ignore (Seap.insert h ~node:(i mod n) ~prio:k)) keys;
      let total = ref (Seap.process_round h).Seap.report.Phase.rounds in
      let out = ref [] in
      while Seap.heap_size h > 0 do
        for node = 0 to min n (Seap.heap_size h) - 1 do
          Seap.delete_min h ~node
        done;
        let r = Seap.process_round h in
        total := !total + r.Seap.report.Phase.rounds;
        let wave =
          List.filter_map
            (fun c -> match c.Seap.outcome with `Got e -> Some e | _ -> None)
            r.Seap.completions
          |> List.sort E.compare
        in
        out := List.rev_append wave !out
      done;
      let out = List.rev_map E.prio !out in
      let sorted = out = List.sort compare keys in
      Table.add_row tab
        [
          string_of_int m;
          string_of_int !total;
          Table.fmt_float (fi !total /. (fi m /. fi n));
          string_of_bool sorted;
        ])
    ms;
  Table.print tab

(* ----------------------------------------------------------------- T10 *)

let t10 ~seed ~full =
  header "T10" "Join cost vs n (Contribution 4)" "O(log n) messages per join";
  let sizes = if full then [ 16; 64; 256; 1024; 4096; 16384 ] else [ 16; 64; 256; 1024; 4096 ] in
  let tab =
    Table.create ~title:"T10 node join cost"
      ~columns:
        [ ("n", Table.Right); ("join msgs", Table.Right); ("msgs/log2 n", Table.Right) ]
  in
  List.iter
    (fun n ->
      let cost =
        Stats.mean
          (List.map (fun s -> fi (Ldb.join_cost_hops (Ldb.build ~n ~seed:(seed + s)))) [ 0; 1; 2; 3 ])
      in
      Table.add_row tab
        [ string_of_int n; Table.fmt_float cost; Table.fmt_float (cost /. log2 n) ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ F1 *)

let f1 ~seed ~full =
  header "F1" "Aggregation tree height vs n (Lemma 2.2(i), Cor A.4)"
    "height ≈ c · log2 n (empirically c ≈ 5–6)";
  let sizes = if full then [ 16; 64; 256; 1024; 4096; 16384 ] else [ 16; 64; 256; 1024; 4096 ] in
  let tab =
    Table.create ~title:"F1 tree height (mean of 5 label seeds)"
      ~columns:
        [ ("n", Table.Right); ("height", Table.Right); ("height/log2 n", Table.Right) ]
  in
  List.iter
    (fun n ->
      let h =
        Stats.mean
          (List.map
             (fun s -> fi (Aggtree.height (Aggtree.of_ldb (Ldb.build ~n ~seed:(seed + s)))))
             [ 0; 1; 2; 3; 4 ])
      in
      Table.add_row tab [ string_of_int n; Table.fmt_float h; Table.fmt_float (h /. log2 n) ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ F2 *)

let f2 ~seed ~full =
  header "F2" "Copy trees per node in KSelect's sorting stages (Lemma 4.5)"
    "Θ(1): flat in n (constant governed by the n' = 4√n sampling constant)";
  let sizes = if full then [ 16; 64; 256; 1024 ] else [ 16; 64; 256 ] in
  let tab =
    Table.create ~title:"F2 mean T(v_i) participations per node"
      ~columns:[ ("n", Table.Right); ("trees/node", Table.Right) ]
  in
  List.iter
    (fun n ->
      let rng = Rng.create ~seed:(seed * 3) in
      let tree = Aggtree.of_ldb (Ldb.build ~n ~seed) in
      let elements =
        Array.init n (fun v -> List.init 16 (fun s -> E.make ~prio:(1 + Rng.int rng 1_000_000) ~origin:v ~seq:s ()))
      in
      let r = K.select ~seed ~net:(Phase.net tree) ~elements ~k:(8 * n) () in
      Table.add_row tab [ string_of_int n; Table.fmt_float r.K.diagnostics.K.mean_trees_per_node ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ F3 *)

let f3 ~seed ~full =
  header "F3" "Candidate-set shrinkage across KSelect phases (Lemmas 4.4, 4.7)"
    "phase 1 cuts m to ≪ n^{3/2} log n; each phase-2 iteration shrinks geometrically to ≤ ~4√n";
  let n = if full then 1024 else 256 in
  let per_node = 16 in
  let rng = Rng.create ~seed:(seed * 17) in
  let tree = Aggtree.of_ldb (Ldb.build ~n ~seed) in
  let elements =
    Array.init n (fun v ->
        List.init per_node (fun s -> E.make ~prio:(1 + Rng.int rng 100_000_000) ~origin:v ~seq:s ()))
  in
  let m = n * per_node in
  let r = K.select ~seed ~net:(Phase.net tree) ~elements ~k:(m / 2) () in
  let d = r.K.diagnostics in
  let tab =
    Table.create
      ~title:(Printf.sprintf "F3 candidates after each phase (n = %d, m = %d, k = m/2)" n m)
      ~columns:[ ("stage", Table.Left); ("candidates N", Table.Right) ]
  in
  Table.add_row tab [ "initial"; string_of_int d.K.initial_candidates ];
  List.iteri
    (fun i c -> Table.add_row tab [ Printf.sprintf "after phase-1 iter %d" (i + 1); string_of_int c ])
    d.K.phase1_candidates;
  List.iteri
    (fun i c -> Table.add_row tab [ Printf.sprintf "after phase-2 iter %d" (i + 1); string_of_int c ])
    d.K.phase2_candidates;
  Table.add_row tab [ "exact phase input"; string_of_int d.K.phase3_candidates ];
  Table.print tab;
  Printf.printf "bounds: n^1.5·log2 n = %.0f, 4√n = %.0f\n"
    ((fi n ** 1.5) *. log2 n)
    (4.0 *. sqrt (fi n))

(* ---------------------------------------------------------------- Fig1 *)

let fig1 ~seed:_ ~full:_ =
  header "Fig1" "Exact reproduction of paper Figure 1 (Skeap phases, n = 3, P = {1,2})"
    "all intermediate values equal the figure's";
  let module B = Dpq_skeap.Batch in
  let module A = Dpq_skeap.Anchor in
  let v_a = B.of_ops ~num_prios:2 [ B.Ins 1 ] in
  let v_b = B.of_ops ~num_prios:2 [ B.Ins 1; B.Ins 1; B.Ins 2; B.Del ] in
  let v_c = B.of_ops ~num_prios:2 [ B.Ins 1; B.Del; B.Del ] in
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
  let sizes = if full then [ 8; 16; 32; 64; 128 ] else [ 8; 16; 32; 64 ] in
  let tab =
    Table.create ~title:"T11 one join into a heap of m = 40n elements"
      ~columns:
        [
          ("n", Table.Right);
          ("m", Table.Right);
          ("moved", Table.Right);
          ("moved/m", Table.Right);
          ("1/(n+1)", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let h = Seap.create ~seed ~n () in
      let m = 40 * n in
      for i = 0 to m - 1 do
        ignore (Seap.insert h ~node:(i mod n) ~prio:(1 + (i * 31 mod 1_000_003)))
      done;
      ignore (Seap.process_round h);
      let c = Seap.add_node h in
      Table.add_row tab
        [
          string_of_int n;
          string_of_int m;
          string_of_int c.Seap.moved_elements;
          Table.fmt_float ~dec:3 (fi c.Seap.moved_elements /. fi m);
          Table.fmt_float ~dec:3 (1.0 /. fi (n + 1));
        ])
    sizes;
  Table.print tab

(* ------------------------------------------------------------------ A1 *)

let a1 ~seed ~full =
  header "A1" "Ablation: KSelect's sampling constant (n' = c·√n)"
    "larger c: fewer phase-2 iterations and rounds, more messages/congestion — a latency/bandwidth dial";
  let n = if full then 256 else 128 in
  let per_node = 16 in
  let tab =
    Table.create ~title:(Printf.sprintf "A1 KSelect with n' = c·√n (n = %d, m = %d, k = m/2)" n (n * per_node))
      ~columns:
        [
          ("c", Table.Right);
          ("p2 iters", Table.Right);
          ("rounds", Table.Right);
          ("messages", Table.Right);
          ("max congestion", Table.Right);
          ("correct", Table.Left);
        ]
  in
  let rng0 = Rng.create ~seed:(seed * 19) in
  let elements =
    Array.init n (fun v ->
        List.init per_node (fun s -> E.make ~prio:(1 + Rng.int rng0 100_000_000) ~origin:v ~seq:s ()))
  in
  let all = List.concat (Array.to_list elements) in
  let k = n * per_node / 2 in
  let expect = K.select_seq all ~k in
  let tree = Aggtree.of_ldb (Ldb.build ~n ~seed) in
  List.iter
    (fun c ->
      let r = K.select ~seed ~rep_factor:c ~net:(Phase.net tree) ~elements ~k () in
      Table.add_row tab
        [
          Table.fmt_float ~dec:0 c;
          string_of_int (List.length r.K.diagnostics.K.phase2_candidates);
          string_of_int r.K.report.Phase.rounds;
          string_of_int r.K.report.Phase.messages;
          string_of_int r.K.report.Phase.max_congestion;
          string_of_bool (E.equal r.K.element expect);
        ])
    [ 1.0; 2.0; 4.0; 8.0 ];
  Table.print tab

(* ------------------------------------------------------------------ A2 *)

let a2 ~seed ~full =
  header "A2" "Ablation: Seap's consistency dial (the paper's §6 extension)"
    "Sequential mode restores local consistency but needs more rounds to drain the same workload";
  let n = 8 in
  let lambdas = if full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8 ] in
  let tab =
    Table.create ~title:"A2 rounds to drain Λ ops/node (n = 8, mixed workload)"
      ~columns:
        [
          ("Λ", Table.Right);
          ("mode", Table.Left);
          ("protocol rounds", Table.Right);
          ("drain iterations", Table.Right);
          ("seq. consistent", Table.Left);
        ]
  in
  List.iter
    (fun lambda ->
      List.iter
        (fun (name, mode) ->
          let h = Seap.create ~seed ~consistency:mode ~n () in
          let rng = Rng.create ~seed:(seed * 41) in
          for node = 0 to n - 1 do
            for i = 1 to lambda do
              if i mod 2 = 0 then ignore (Seap.insert h ~node ~prio:(1 + Rng.int rng 1_000_000))
              else Seap.delete_min h ~node
            done
          done;
          let results = Seap.drain h in
          let rounds =
            List.fold_left (fun acc r -> acc + r.Seap.report.Phase.rounds) 0 results
          in
          let seq_ok = Checker.check Checker.Online.Skeap_contract (Seap.oplog h) = Ok () in
          Table.add_row tab
            [
              string_of_int lambda;
              name;
              string_of_int rounds;
              string_of_int (List.length results);
              string_of_bool seq_ok;
            ])
        [ ("serializable", Seap.Serializable); ("sequential", Seap.Sequential) ])
    lambdas;
  Table.print tab

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
        List.filter (fun (n, _) -> List.mem n names) all_experiments
  in
  if wanted = [] then (
    Printf.eprintf "no matching experiments; known: %s\n"
      (String.concat ", " (List.map fst all_experiments));
    exit 1);
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
  let doc = "Record the Runner-driven experiments (t6) as JSONL trace events into $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let faults =
  let doc =
    "Run the Runner-driven experiments (t6) over a faulty network, e.g. \
     $(b,drop=0.1,dup=0.05,crash=3@100-200); messages ride the reliable \
     ack/retransmit layer."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the Skeap & Seap reproduction" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const run $ only $ seed $ full $ trace_file $ faults)

let () = exit (Cmd.eval cmd)
