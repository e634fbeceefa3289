module S = Dpq_seap.Seap
module E = Dpq_util.Element
module Checker = Dpq_semantics.Checker
module Phase = Dpq_aggtree.Phase

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

let got_prios completions =
  List.filter_map (fun c -> match c.S.outcome with `Got e -> Some (E.prio e) | _ -> None) completions

let test_roundtrip_single_node () =
  let h = S.create ~n:1 () in
  let e = S.insert h ~node:0 ~prio:12345 in
  S.delete_min h ~node:0;
  let r = S.process_round h in
  checki "two completions" 2 (List.length r.S.completions);
  let got =
    List.find_map (fun c -> match c.S.outcome with `Got x -> Some x | _ -> None) r.S.completions
  in
  checkb "same element" true (E.equal e (Option.get got));
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_priority_order_large_universe () =
  let h = S.create ~n:8 () in
  (* Arbitrary 30-bit priorities — far beyond anything Skeap could count. *)
  let prios = [ 805306368; 3; 536870912; 99; 268435456; 7; 1073741823; 42 ] in
  List.iteri (fun i p -> ignore (S.insert h ~node:(i mod 8) ~prio:p)) prios;
  ignore (S.process_round h);
  for i = 0 to 7 do
    S.delete_min h ~node:(7 - i)
  done;
  let r = S.process_round h in
  Alcotest.(check (list int))
    "ascending order" (List.sort compare prios)
    (List.sort compare (got_prios r.S.completions));
  (* the witness order must drain them smallest-first *)
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_empty_heap_bottom () =
  let h = S.create ~n:4 () in
  S.delete_min h ~node:0;
  S.delete_min h ~node:3;
  let r = S.process_round h in
  checki "two ⊥" 2 (List.length (List.filter (fun c -> c.S.outcome = `Empty) r.S.completions));
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_excess_deletes () =
  let h = S.create ~n:4 () in
  ignore (S.insert h ~node:0 ~prio:5);
  ignore (S.insert h ~node:1 ~prio:9);
  for node = 0 to 3 do
    S.delete_min h ~node
  done;
  let r = S.process_round h in
  checki "two matched" 2
    (List.length (List.filter (fun c -> match c.S.outcome with `Got _ -> true | _ -> false) r.S.completions));
  checki "two ⊥" 2 (List.length (List.filter (fun c -> c.S.outcome = `Empty) r.S.completions));
  checki "heap empty" 0 (S.heap_size h);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_inserts_serialize_before_deletes_of_same_round () =
  (* Seap's phase split: a delete buffered before an insert on the same node
     still sees that insert (this is exactly the local-consistency
     relaxation). *)
  let h = S.create ~n:2 () in
  S.delete_min h ~node:0;
  ignore (S.insert h ~node:0 ~prio:77);
  let r = S.process_round h in
  (match got_prios r.S.completions with
  | [ 77 ] -> ()
  | _ -> Alcotest.fail "the same-round insert should be visible to the delete");
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_elements_survive_rounds () =
  let h = S.create ~n:6 () in
  ignore (S.insert h ~node:0 ~prio:300);
  ignore (S.process_round h);
  ignore (S.insert h ~node:1 ~prio:200);
  ignore (S.process_round h);
  checki "m = 2" 2 (S.heap_size h);
  S.delete_min h ~node:5;
  let r = S.process_round h in
  Alcotest.(check (list int)) "older smaller element wins" [ 200 ] (got_prios r.S.completions);
  checki "m = 1" 1 (S.heap_size h);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_duplicate_priorities () =
  let h = S.create ~n:4 () in
  for i = 0 to 11 do
    ignore (S.insert h ~node:(i mod 4) ~prio:((i mod 2) + 1))
  done;
  ignore (S.process_round h);
  for i = 0 to 11 do
    S.delete_min h ~node:(i mod 4)
  done;
  let r = S.process_round h in
  Alcotest.(check (list int))
    "all twelve out, ties resolved"
    [ 1; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 2 ]
    (List.sort compare (got_prios r.S.completions));
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let random_workload ~seed ~n ~rounds ~ops_per_round ~prio_range ?dht_mode h =
  let rng = Dpq_util.Rng.create ~seed in
  for _ = 1 to rounds do
    for _ = 1 to ops_per_round do
      let node = Dpq_util.Rng.int rng n in
      if Dpq_util.Rng.bool rng then
        ignore (S.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng prio_range))
      else S.delete_min h ~node
    done;
    ignore (S.process_round ?dht_mode h)
  done

let test_random_semantics_sync () =
  List.iter
    (fun seed ->
      let h = S.create ~seed ~n:10 () in
      random_workload ~seed:(seed * 17) ~n:10 ~rounds:5 ~ops_per_round:24 ~prio_range:1_000_000 h;
      ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h)))
    [ 1; 2; 3 ]

(* A round's completions are built apart from its oplog records (from the
   snapshot and the rebound slots, not from the serialization pass), so
   they must agree op for op: sorted by (node, local_seq), one per record,
   each answer the record's result.  Nodes issue several deletes per
   round, so a node's fetched elements must be rebound to its deletes in
   issue order in both.  Both consistency modes, ⊥ answers included. *)
let test_completions_match_oplog () =
  let module O = Dpq_semantics.Oplog in
  List.iter
    (fun consistency ->
      let n = 6 in
      let h = S.create ~seed:4 ~consistency ~n () in
      let rng = Dpq_util.Rng.create ~seed:41 in
      for round = 1 to 8 do
        for _ = 1 to 30 do
          let node = Dpq_util.Rng.int rng n in
          if round <= 2 || Dpq_util.Rng.int rng 3 = 0 then
            ignore (S.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 1000))
          else S.delete_min h ~node
        done;
        let r = S.process_round h in
        let key (c : S.completion) = (c.node, c.local_seq) in
        let keys = List.map key r.S.completions in
        checkb "sorted by (node, local_seq)" true (keys = List.sort_uniq compare keys);
        let recs = S.take_log h in
        checki "one record per completion" (List.length recs) (List.length r.S.completions);
        List.iter
          (fun (c : S.completion) ->
            match
              List.find_opt (fun (x : O.record) -> (x.node, x.local_seq) = key c) recs
            with
            | None -> Alcotest.failf "no record for (%d, %d)" c.node c.local_seq
            | Some x ->
                let agree =
                  match (c.outcome, x.kind, x.result) with
                  | `Inserted e, O.Insert e', None -> E.equal e e'
                  | `Got e, O.Delete_min, Some e' -> E.equal e e'
                  | `Empty, O.Delete_min, None -> true
                  | _ -> false
                in
                if not agree then
                  Alcotest.failf "round %d: (%d, %d) answered apart from its record" round c.node
                    c.local_seq)
          r.S.completions
      done)
    [ S.Serializable; S.Sequential ]

let test_random_semantics_async () =
  List.iter
    (fun policy ->
      let h = S.create ~seed:5 ~n:8 () in
      random_workload ~seed:55 ~n:8 ~rounds:4 ~ops_per_round:20 ~prio_range:100_000
        ~dht_mode:(S.Dht_async { seed = 3; policy })
        h;
      ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h)))
    [
      Dpq_simrt.Async_engine.Uniform (1.0, 100.0);
      Dpq_simrt.Async_engine.Exponential 25.0;
      Dpq_simrt.Async_engine.Adversarial_lifo;
    ]

let test_message_bits_independent_of_rate () =
  (* Lemma 5.5 vs Lemma 3.8: Seap's messages stay O(log n) no matter how
     many operations a round carries.  The largest is KSelect's: at most
     s+1 counts and (s+1)·s sampled elements (s = [Kselect.fanout]),
     whatever Λ is.  A round of Λ operations per node only widens those
     fields, by O(log Λ) bits each: a count is at most the 8·Λ inserted
     elements, and an element is a priority below 10^6, an origin below
     16, a sequence number below Λ and an empty payload.  The bound is the
     full format at the run's field widths, not the Λ = 2 reading: how many
     fields a message fills, and how wide the priorities in the selected
     range are, depend on the batch (256 bits at Λ = 2, 814 at Λ = 40),
     so a reading-relative bound would compare different formats.  Skeap's
     largest message instead grows linearly in Λ (T2). *)
  let max_bits lambda =
    let h = S.create ~seed:7 ~n:16 () in
    let rng = Dpq_util.Rng.create ~seed:70 in
    for node = 0 to 15 do
      for i = 1 to lambda do
        if i mod 2 = 0 then ignore (S.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 1_000_000))
        else S.delete_min h ~node
      done
    done;
    let r = S.process_round h in
    r.S.report.Phase.max_message_bits
  in
  let bits = Dpq_util.Bitsize.bits_of_int in
  let counts = Dpq_kselect.Kselect.fanout + 1 in
  let ceiling lambda =
    let header = 2 * Dpq_util.Bitsize.bits_of_nat_bound ((3 * 16) - 1) in
    let element = bits 1_000_000 + bits 15 + bits (lambda - 1) + bits 0 in
    header + (counts * bits (8 * lambda)) + (counts * Dpq_kselect.Kselect.fanout * element)
  in
  List.iter
    (fun lambda ->
      let b = max_bits lambda in
      checkb
        (Printf.sprintf "%d bits at Λ=%d, full format %d" b lambda (ceiling lambda))
        true
        (b <= ceiling lambda))
    [ 2; 40; 160; 1000 ]

let test_rounds_logarithmic () =
  let rounds n =
    let h = S.create ~seed:3 ~n () in
    let rng = Dpq_util.Rng.create ~seed:30 in
    for node = 0 to n - 1 do
      ignore (S.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 1_000_000))
    done;
    ignore (S.process_round h);
    for node = 0 to n - 1 do
      S.delete_min h ~node
    done;
    let r = S.process_round h in
    float_of_int r.S.report.Phase.rounds
  in
  let r32 = rounds 32 and r512 = rounds 512 in
  (* 16x nodes, rounds should grow far slower than linearly *)
  checkb "O(log n) shape" true (r512 < 6.0 *. r32)

let test_fairness () =
  let h = S.create ~seed:11 ~n:16 () in
  let rng = Dpq_util.Rng.create ~seed:110 in
  for i = 0 to 799 do
    ignore (S.insert h ~node:(i mod 16) ~prio:(1 + Dpq_util.Rng.int rng 1_000_000))
  done;
  ignore (S.process_round h);
  let counts = S.stored_per_node h in
  checki "all stored" 800 (Array.fold_left ( + ) 0 counts);
  checkb "max within 4x mean" true (float_of_int (Array.fold_left max 0 counts) < 4.0 *. 50.0)

let test_kselect_diagnostics_surface () =
  let h = S.create ~seed:13 ~n:8 () in
  for i = 0 to 63 do
    ignore (S.insert h ~node:(i mod 8) ~prio:(i * 37 mod 1000 + 1))
  done;
  ignore (S.process_round h);
  S.delete_min h ~node:0;
  let r = S.process_round h in
  (match r.S.kselect with
  | Some d -> checki "kselect saw all elements" 64 d.Dpq_kselect.Kselect.initial_candidates
  | None -> Alcotest.fail "expected KSelect diagnostics");
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

let test_invalid_args () =
  let h = S.create ~n:2 () in
  checkb "bad node" true
    (try
       ignore (S.insert h ~node:5 ~prio:1);
       false
     with Invalid_argument _ -> true);
  checkb "bad prio" true
    (try
       ignore (S.insert h ~node:0 ~prio:0);
       false
     with Invalid_argument _ -> true)

let test_drain () =
  let h = S.create ~seed:21 ~n:6 () in
  for i = 0 to 29 do
    ignore (S.insert h ~node:(i mod 6) ~prio:(i + 1))
  done;
  for i = 0 to 9 do
    S.delete_min h ~node:(i mod 6)
  done;
  let results = S.drain h in
  checkb "ran" true (results <> []);
  checki "pending zero" 0 (S.pending_ops h);
  checki "heap holds 20" 20 (S.heap_size h);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h))

(* ------------------------------------ Sequential mode (paper §6 sketch) *)

let test_sequential_mode_local_consistency () =
  (* The §6 extension must upgrade Seap to full sequential consistency:
     the *Skeap* checker (serializability + local consistency + heap
     clauses) has to pass. *)
  List.iter
    (fun seed ->
      let h = S.create ~seed ~consistency:S.Sequential ~n:6 () in
      Alcotest.(check bool) "mode stored" true (S.consistency h = S.Sequential);
      random_workload ~seed:(seed * 7) ~n:6 ~rounds:5 ~ops_per_round:20 ~prio_range:10_000 h;
      ignore (S.drain h);
      ok_or_fail (Checker.check Checker.Online.Skeap_contract (S.oplog h)))
    [ 1; 2; 3 ]

let test_sequential_mode_leading_runs_only () =
  (* A node's delete issued before its insert must NOT see that insert. *)
  let h = S.create ~consistency:S.Sequential ~n:2 () in
  S.delete_min h ~node:0;
  ignore (S.insert h ~node:0 ~prio:5);
  let r = S.process_round h in
  (* round 1: the delete (leading run) gets ⊥, the insert is still queued *)
  Alcotest.(check bool) "delete got ⊥" true
    (List.exists (fun c -> c.S.outcome = `Empty) r.S.completions);
  Alcotest.(check int) "insert still pending" 1 (S.pending_ops h);
  let r2 = S.process_round h in
  Alcotest.(check bool) "insert completes next round" true
    (List.exists (fun c -> match c.S.outcome with `Inserted _ -> true | _ -> false)
       r2.S.completions);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (S.oplog h))

let test_serializable_mode_differs () =
  (* Default mode: the same schedule lets the delete see the later insert —
     that is the documented local-consistency relaxation. *)
  let h = S.create ~n:2 () in
  S.delete_min h ~node:0;
  ignore (S.insert h ~node:0 ~prio:5);
  let r = S.process_round h in
  Alcotest.(check (list int)) "delete matched the insert" [ 5 ] (got_prios r.S.completions)

let test_sequential_mode_drains () =
  let h = S.create ~consistency:S.Sequential ~n:4 () in
  for i = 0 to 11 do
    if i mod 3 = 2 then S.delete_min h ~node:(i mod 4)
    else ignore (S.insert h ~node:(i mod 4) ~prio:(i + 1))
  done;
  let rs = S.drain h in
  Alcotest.(check bool) "terminates" true (List.length rs >= 1);
  Alcotest.(check int) "nothing pending" 0 (S.pending_ops h);
  ok_or_fail (Checker.check Checker.Online.Skeap_contract (S.oplog h))

(* qcheck: sequential mode passes the full sequential-consistency check on
   arbitrary interleavings. *)
let prop_sequential_mode_semantics =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 30)
        (pair (0 -- 4) (frequency [ (3, map (fun p -> Some (1 + (p mod 100))) small_nat); (2, return None) ])))
  in
  QCheck.Test.make ~name:"sequential-mode seap is sequentially consistent" ~count:25
    (QCheck.make gen)
    (fun ops ->
      let h = S.create ~seed:23 ~consistency:S.Sequential ~n:5 () in
      List.iteri
        (fun i (node, op) ->
          (match op with
          | Some p -> ignore (S.insert h ~node ~prio:p)
          | None -> S.delete_min h ~node);
          if (i + 1) mod 8 = 0 then ignore (S.process_round h))
        ops;
      ignore (S.drain h);
      Checker.check Checker.Online.Skeap_contract (S.oplog h) = Ok ())

(* qcheck: the DeleteMin phase's position assignment agrees with a sorted
   reference model.  Internally the k_eff smallest stored elements are
   re-homed under position keys h(1..k_eff) by interval decomposition and
   each deleter fetches one assigned position; the observable consequence —
   checked here against a plain sort — is that the matched deletes return
   {e exactly} the k_eff smallest elements under the paper's total order.
   Comparing full elements (not just priorities) pins the tie-breaking: the
   tiny priority range forces many ties, which positions 1..k_eff must
   resolve by (origin, seq) exactly as the reference sort does.  Excess
   deleters (k > m) must get ⊥ and nothing else. *)
let prop_delete_positions_match_sorted_reference =
  let gen =
    QCheck.Gen.(
      (1 -- 6) >>= fun n ->
      triple (return n)
        (list_size (1 -- 40) (pair (0 -- (n - 1)) (1 -- 8)))
        (1 -- 45))
  in
  QCheck.Test.make ~name:"delete-min positions cover exactly the k smallest (ties consistent)"
    ~count:50 (QCheck.make gen)
    (fun (n, inserts, k) ->
      let h = S.create ~seed:29 ~n () in
      let elems = List.map (fun (node, p) -> S.insert h ~node ~prio:p) inserts in
      ignore (S.process_round h);
      for i = 0 to k - 1 do
        S.delete_min h ~node:(i mod n)
      done;
      let r = S.process_round h in
      let got =
        List.filter_map (fun c -> match c.S.outcome with `Got e -> Some e | _ -> None) r.S.completions
      in
      let bots = List.length (List.filter (fun c -> c.S.outcome = `Empty) r.S.completions) in
      let k_eff = min k (List.length elems) in
      let expected = List.filteri (fun i _ -> i < k_eff) (List.sort E.compare elems) in
      bots = k - k_eff
      && List.length got = k_eff
      && List.for_all2 E.equal expected (List.sort E.compare got)
      && Checker.check Checker.Online.Seap_contract (S.oplog h) = Ok ())

(* ------------------------------------------------- pinned executions *)

(* A fixed closed Seap run: n=16, eight rounds of four operations per node,
   70% inserts, so the heap grows past one KSelect sample and later
   selections run several counting iterations.  Drains, checks the oplog, and
   returns its operations-only digest. *)
let pinned_closed_run ?faults ?(replication = 1) ?dht_mode () =
  let n = 16 in
  let h = S.create ~seed:3 ~replication ?faults ~n () in
  let rng = Dpq_util.Rng.create ~seed:33 in
  for _ = 1 to 8 do
    for node = 0 to n - 1 do
      for _ = 1 to 4 do
        if Dpq_util.Rng.float rng < 0.7 then
          ignore (S.insert h ~node ~prio:(1 + Dpq_util.Rng.int rng 1_000_000))
        else S.delete_min h ~node
      done
    done;
    ignore (S.process_round ?dht_mode h)
  done;
  ignore (S.drain ?dht_mode h);
  ok_or_fail (Checker.check Checker.Online.Seap_contract (S.oplog h));
  let acc = Dpq_explore.Run_digest.start () in
  Dpq_explore.Run_digest.feed_records acc (Dpq_semantics.Oplog.to_list (S.oplog h));
  Dpq_explore.Run_digest.finish acc

(* Which element each operation got, and where it sits in the witness
   order, must not depend on how many aggregation-tree passes a batch
   makes: these digests cover the operations alone (no schedule), so a
   change that only removes or merges tree messages leaves them fixed. *)
let test_oplog_digests_pinned () =
  let pin = Alcotest.(check string) in
  pin "fault-free" "978700b31f44d202" (pinned_closed_run ());
  pin "drop=0.1,dup=0.05, k=3" "978700b31f44d202"
    (pinned_closed_run
       ~faults:(Dpq_simrt.Fault_plan.of_string ~seed:5 "drop=0.1,dup=0.05")
       ~replication:3 ());
  pin "async DHT" "978700b31f44d202"
    (pinned_closed_run
       ~dht_mode:(S.Dht_async { seed = 7; policy = Dpq_simrt.Async_engine.Exponential 25.0 })
       ())

(* Aggregation-tree passes of one traced Seap batch, by kind, counted from
   the trace's phase spans: n=16, 64 elements stored, then a batch of 32
   inserts and 16 deletes.  The go-ahead broadcast, the count convergecast,
   two counting iterations of one broadcast and one up pass each (a range
   pass over the anchor's priority bound, then a collect), and the
   positions pass that carries e_k. *)
let test_pass_counts_pinned () =
  let n = 16 in
  let trace = Dpq_obs.Trace.create () in
  let h = S.create ~seed:3 ~trace ~n () in
  let rng = Dpq_util.Rng.create ~seed:44 in
  let prio () = 1 + Dpq_util.Rng.int rng 1_000_000 in
  for i = 0 to 63 do
    ignore (S.insert h ~node:(i mod n) ~prio:(prio ()))
  done;
  ignore (S.process_round h);
  Dpq_obs.Trace.clear trace;
  for node = 0 to n - 1 do
    ignore (S.insert h ~node ~prio:(prio ()));
    ignore (S.insert h ~node ~prio:(prio ()));
    S.delete_min h ~node
  done;
  ignore (S.process_round h);
  let count kind =
    List.length
      (List.filter
         (function Dpq_obs.Trace.Phase_start { name; _ } -> name = kind | _ -> false)
         (Dpq_obs.Trace.events trace))
  in
  Alcotest.(check (list (pair string int)))
    "passes by kind"
    [ ("up", 3); ("down", 1); ("broadcast", 3) ]
    (List.map (fun k -> (k, count k)) [ "up"; "down"; "broadcast" ])

(* The (taken, deleters) memo the positions pass splits by is built from
   KSelect's per-node counts at or below e_k, without a convergecast.  It
   must equal what an explicit up pass of each node's count of elements
   at or below e_k (and its deleters) memorizes, at every vnode in the
   tree: on random trees, on trees with removed nodes, and when the answer
   was read off a sampled pass (ties) rather than a collect. *)
let test_taken_memo_matches_up () =
  let module K = Dpq_kselect.Kselect in
  let module Ldb = Dpq_overlay.Ldb in
  let module Aggtree = Dpq_aggtree.Aggtree in
  let removed_cases = ref 0 and sampled_cases = ref 0 in
  for seed = 1 to 300 do
    let rng = Dpq_util.Rng.create ~seed in
    let n = 1 + Dpq_util.Rng.int rng 40 in
    let ldb = ref (Ldb.build ~n ~seed) in
    let dead = Array.make n false in
    for _ = 1 to Dpq_util.Rng.int rng 3 do
      let id = Dpq_util.Rng.int rng n in
      if (not dead.(id)) && Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 dead > 1
      then begin
        ldb := Ldb.remove !ldb ~id;
        dead.(id) <- true
      end
    done;
    if Array.exists Fun.id dead then incr removed_cases;
    let ties = seed mod 2 = 0 in
    let elements =
      Array.init n (fun v ->
          if dead.(v) then []
          else
            List.init (Dpq_util.Rng.int rng 12) (fun s ->
                let prio =
                  if ties then 1 + Dpq_util.Rng.int rng 3 else 1 + Dpq_util.Rng.int rng 1_000_000
                in
                E.make ~prio ~origin:v ~seq:s ()))
    in
    let all = List.concat (Array.to_list elements) in
    let m = List.length all in
    if m > 0 then begin
      let net = Phase.net (Aggtree.of_ldb !ldb) in
      let k = 1 + Dpq_util.Rng.int rng m in
      let deleters = Array.init n (fun v -> if dead.(v) then 0 else Dpq_util.Rng.int rng 6) in
      let bound =
        List.fold_left (fun (lo, hi) (e : E.t) -> (min lo e.E.prio, max hi e.E.prio)) (max_int, min_int) all
      in
      let sel = K.select ~seed ~bound ~net ~elements ~k () in
      let e_k = sel.K.element in
      (match List.rev sel.K.diagnostics.K.phase2_candidates with
      | _ :: before :: _ when before > K.sample_max -> incr sampled_cases
      | _ -> ());
      let packed, memo = S.taken_memo net ~taken:sel.K.le_counts ~deleters:(Array.get deleters) in
      let explicit, up_memo, _ =
        Phase.up net
          ~local:(fun v ->
            match Ldb.kind v with
            | Ldb.Middle ->
                let node = Ldb.owner v in
                let le = List.length (List.filter (fun e -> E.compare e e_k <= 0) elements.(node)) in
                Phase.pack_counts le deleters.(node)
            | _ -> 0)
          ~combine:( + )
          ~size_bits:(fun _ -> 1)
      in
      let label = Printf.sprintf "seed %d n=%d m=%d k=%d" seed n m k in
      checki (label ^ ": taken_chk = k") k (Phase.first_count packed);
      checki (label ^ ": root") explicit packed;
      Array.iter
        (fun v ->
          if Aggtree.in_tree (Phase.tree net) v then begin
            checki (label ^ ": own") (Phase.memo_own up_memo v) (Phase.memo_own memo v);
            checki (label ^ ": sub") (Phase.memo_sub up_memo v) (Phase.memo_sub memo v)
          end)
        (Aggtree.vnodes (Phase.tree net))
    end
  done;
  checkb (Printf.sprintf "%d cases with removed nodes" !removed_cases) true (!removed_cases >= 30);
  checkb (Printf.sprintf "%d answers off a sampled pass" !sampled_cases) true (!sampled_cases >= 10)

(* ------------------------------------------------------ large-n stream *)

module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner

(* Seap at n = 4096 driven through the streaming runner for 2^18 ops with
   the online checker on every completion — the scale cell the counting
   KSelect path makes affordable (the pairwise path pushes two orders of
   magnitude more messages through the same run).  Mirrors the Skeap
   stream cells: nothing is materialized, so memory stays O(peak_live). *)
let test_stream_large_n () =
  let n = 4096 in
  let spec =
    W.Gen.
      {
        n;
        rounds = 64;
        lambda = 1;
        insert_ratio = 0.5;
        dist = W.Uniform (1, 1_000_000);
        seed = 23;
        arrival = W.Closed;
      }
  in
  let s = R.run_gen ~n Dpq_types.Types.Seap (W.Gen.create spec) in
  checki "2^18 ops" 262144 s.R.ops;
  checkb "clean online verdict" true s.R.semantics_ok;
  checkb "no violation" true (s.R.violation = None);
  checkb "peak_live positive" true (s.R.peak_live > 0);
  (* the checker state must stay far below the op count: live elements are
     bounded by the closed loop's in-flight inserts, not the stream length *)
  checkb "peak_live bounded" true (s.R.peak_live < 4 * n)

(* qcheck: random interleavings preserve Seap's guarantees. *)
let prop_seap_semantics =
  let gen =
    QCheck.Gen.(
      pair (1 -- 4)
        (list_size (0 -- 30)
           (pair (0 -- 4) (frequency [ (3, map (fun p -> Some (1 + (p mod 1000))) small_nat); (2, return None) ]))))
  in
  QCheck.Test.make ~name:"seap semantics on random interleavings" ~count:25 (QCheck.make gen)
    (fun (rounds, ops) ->
      let h = S.create ~seed:17 ~n:5 () in
      let per_round = max 1 (List.length ops / max 1 rounds) in
      List.iteri
        (fun i (node, op) ->
          (match op with
          | Some p -> ignore (S.insert h ~node ~prio:p)
          | None -> S.delete_min h ~node);
          if (i + 1) mod per_round = 0 then ignore (S.process_round h))
        ops;
      ignore (S.drain h);
      Checker.check Checker.Online.Seap_contract (S.oplog h) = Ok ())

let () =
  Alcotest.run "dpq_seap"
    [
      ( "seap",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_single_node;
          Alcotest.test_case "priority order, big universe" `Quick test_priority_order_large_universe;
          Alcotest.test_case "empty heap ⊥" `Quick test_empty_heap_bottom;
          Alcotest.test_case "excess deletes" `Quick test_excess_deletes;
          Alcotest.test_case "phase split semantics" `Quick test_inserts_serialize_before_deletes_of_same_round;
          Alcotest.test_case "elements survive rounds" `Quick test_elements_survive_rounds;
          Alcotest.test_case "duplicate priorities" `Quick test_duplicate_priorities;
          Alcotest.test_case "random semantics (sync)" `Quick test_random_semantics_sync;
          Alcotest.test_case "random semantics (async)" `Quick test_random_semantics_async;
          Alcotest.test_case "completions match the oplog" `Quick test_completions_match_oplog;
          Alcotest.test_case "message bits flat in Λ" `Quick test_message_bits_independent_of_rate;
          Alcotest.test_case "rounds logarithmic" `Slow test_rounds_logarithmic;
          Alcotest.test_case "fairness" `Quick test_fairness;
          Alcotest.test_case "kselect diagnostics" `Quick test_kselect_diagnostics_surface;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "stream n=4096, 2^18 ops" `Slow test_stream_large_n;
          Alcotest.test_case "oplog digests pinned" `Quick test_oplog_digests_pinned;
          Alcotest.test_case "pass counts pinned" `Quick test_pass_counts_pinned;
          Alcotest.test_case "taken memo = explicit up pass" `Quick test_taken_memo_matches_up;
          QCheck_alcotest.to_alcotest prop_delete_positions_match_sorted_reference;
          QCheck_alcotest.to_alcotest prop_seap_semantics;
        ] );
      ( "sequential-mode",
        [
          Alcotest.test_case "local consistency" `Quick test_sequential_mode_local_consistency;
          Alcotest.test_case "leading runs only" `Quick test_sequential_mode_leading_runs_only;
          Alcotest.test_case "serializable mode differs" `Quick test_serializable_mode_differs;
          Alcotest.test_case "drains" `Quick test_sequential_mode_drains;
          QCheck_alcotest.to_alcotest prop_sequential_mode_semantics;
        ] );
    ]
