open Dpq_dht
module Ldb = Dpq_overlay.Ldb
module Element = Dpq_util.Element

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* The vnode managing [key]'s point: where its primary copy lives. *)
let manager_of_key dht key = Ldb.manager_of_point (Dht.ldb dht) (Dht.key_point dht key)

let mk_dht ~n ~seed = Dht.create ~ldb:(Ldb.build ~n ~seed) ~seed:(seed + 1000) ()
let elt ?(prio = 1) ?(origin = 0) ?(seq = 0) () = Element.make ~prio ~origin ~seq ()

let test_put_then_get () =
  let dht = mk_dht ~n:10 ~seed:1 in
  let e = elt ~prio:3 () in
  let cs, _ = Dht.run_batch_sync dht [ Dht.Put { origin = 2; key = 99; elt = e; confirm = false } ] in
  checki "no completions for unconfirmed put" 0 (List.length cs);
  checki "one stored" 1 (Dht.size dht);
  let cs, _ = Dht.run_batch_sync dht [ Dht.Get { origin = 5; key = 99 } ] in
  (match cs with
  | [ Dht.Got { origin = 5; key = 99; elt = e' } ] ->
      checkb "same element" true (Element.equal e e')
  | _ -> Alcotest.fail "expected exactly one Got for node 5");
  checki "emptied" 0 (Dht.size dht)

let test_put_confirm () =
  let dht = mk_dht ~n:8 ~seed:2 in
  let cs, _ =
    Dht.run_batch_sync dht [ Dht.Put { origin = 3; key = 7; elt = elt (); confirm = true } ]
  in
  match cs with
  | [ Dht.Put_confirmed { origin = 3; key = 7 } ] -> ()
  | _ -> Alcotest.fail "expected a confirmation back at node 3"

let test_get_before_put_parks_and_meets () =
  (* Same batch: gets and puts race; every get must still be satisfied. *)
  let dht = mk_dht ~n:12 ~seed:3 in
  let ops =
    List.concat_map
      (fun k ->
        [
          Dht.Get { origin = k mod 12; key = k };
          Dht.Put { origin = (k + 5) mod 12; key = k; elt = elt ~seq:k (); confirm = false };
        ])
      (List.init 30 (fun i -> i))
  in
  let cs, _ = Dht.run_batch_sync dht ops in
  checki "all 30 gets satisfied" 30
    (List.length (List.filter (function Dht.Got _ -> true | _ -> false) cs));
  checki "nothing parked" 0 (Dht.pending_gets dht);
  checki "store empty" 0 (Dht.size dht)

let test_get_with_no_put_parks () =
  let dht = mk_dht ~n:6 ~seed:4 in
  let cs, _ = Dht.run_batch_sync dht [ Dht.Get { origin = 1; key = 42 } ] in
  checki "no completion" 0 (List.length cs);
  checki "parked" 1 (Dht.pending_gets dht);
  (* The put arrives in a later batch; the parked get must be satisfied. *)
  let cs, _ =
    Dht.run_batch_sync dht [ Dht.Put { origin = 0; key = 42; elt = elt (); confirm = false } ]
  in
  checki "late rendezvous" 1 (List.length cs);
  checki "unparked" 0 (Dht.pending_gets dht)

let test_same_key_multiple_elements_fifo () =
  let dht = mk_dht ~n:5 ~seed:5 in
  let e1 = elt ~seq:1 () and e2 = elt ~seq:2 () in
  ignore (Dht.run_batch_sync dht [ Dht.Put { origin = 0; key = 1; elt = e1; confirm = false } ]);
  ignore (Dht.run_batch_sync dht [ Dht.Put { origin = 0; key = 1; elt = e2; confirm = false } ]);
  let cs, _ = Dht.run_batch_sync dht [ Dht.Get { origin = 0; key = 1 } ] in
  (match cs with
  | [ Dht.Got { elt = e; _ } ] -> checkb "fifo order" true (Element.equal e e1)
  | _ -> Alcotest.fail "expected one Got");
  checki "one remains" 1 (Dht.size dht)

let test_keys_route_to_manager () =
  let dht = mk_dht ~n:20 ~seed:6 in
  for k = 0 to 50 do
    let p = Dht.key_point dht k in
    checkb "point in range" true (p >= 0.0 && p < 1.0);
    let owner = Ldb.owner (Ldb.manager_of_point (Dht.ldb dht) p) in
    let before = (Dht.stored_counts dht).(owner) in
    ignore
      (Dht.run_batch_sync dht [ Dht.Put { origin = 0; key = k; elt = elt ~seq:k (); confirm = false } ]);
    checki "stored at the key's manager" (before + 1) (Dht.stored_counts dht).(owner)
  done

let test_load_roughly_uniform () =
  (* Lemma 2.2(iv): m elements over n nodes, each stores ~m/n on expectation. *)
  let n = 32 in
  let dht = mk_dht ~n ~seed:7 in
  let m = 6400 in
  let ops =
    List.init m (fun k -> Dht.Put { origin = k mod n; key = k; elt = elt ~seq:k (); confirm = false })
  in
  ignore (Dht.run_batch_sync dht ops);
  checki "all stored" m (Dht.size dht);
  let counts = Dht.stored_counts dht in
  let total = Array.fold_left ( + ) 0 counts in
  checki "counts add up" m total;
  let mean = float_of_int m /. float_of_int n in
  let maxl = Array.fold_left max 0 counts in
  checkb "max load within 4x mean" true (float_of_int maxl < 4.0 *. mean)

let test_rounds_logarithmic () =
  let run n =
    let dht = mk_dht ~n ~seed:8 in
    let ops = List.init 20 (fun k -> Dht.Put { origin = k mod n; key = k; elt = elt ~seq:k (); confirm = false }) in
    let _, report = Dht.run_batch_sync dht ops in
    float_of_int report.Dpq_aggtree.Phase.rounds
  in
  let r16 = run 16 and r1024 = run 1024 in
  checkb "rounds grow slowly" true (r1024 < r16 *. 3.5)

let test_async_rendezvous_all_policies () =
  List.iter
    (fun policy ->
      let dht = mk_dht ~n:10 ~seed:9 in
      let ops =
        List.concat_map
          (fun k ->
            [
              Dht.Get { origin = k mod 10; key = k };
              Dht.Put { origin = (k + 3) mod 10; key = k; elt = elt ~seq:k (); confirm = false };
            ])
          (List.init 25 (fun i -> i))
      in
      let cs = Dht.run_batch_async dht ~seed:33 ~policy ops in
      checki "all gets satisfied" 25
        (List.length (List.filter (function Dht.Got _ -> true | _ -> false) cs));
      checki "nothing parked" 0 (Dht.pending_gets dht))
    [
      Dpq_simrt.Async_engine.Uniform (1.0, 50.0);
      Dpq_simrt.Async_engine.Exponential 10.0;
      Dpq_simrt.Async_engine.Adversarial_lifo;
    ]

let test_async_matches_sync_results () =
  (* The set of (key, element) matches must be delivery-order independent
     when each key has exactly one put and one get. *)
  let collect run =
    List.filter_map (function Dht.Got { key; elt; _ } -> Some (key, elt) | _ -> None) run
    |> List.sort compare
  in
  let ops n =
    List.concat_map
      (fun k ->
        [
          Dht.Put { origin = k mod n; key = k; elt = elt ~prio:(k mod 5) ~seq:k (); confirm = false };
          Dht.Get { origin = (k * 7) mod n; key = k };
        ])
      (List.init 40 (fun i -> i))
  in
  let dht1 = mk_dht ~n:9 ~seed:10 in
  let sync_res, _ = Dht.run_batch_sync dht1 (ops 9) in
  let dht2 = mk_dht ~n:9 ~seed:10 in
  let async_res = Dht.run_batch_async dht2 ~seed:77 (ops 9) in
  Alcotest.(check int) "same matches" (List.length (collect sync_res)) (List.length (collect async_res));
  checkb "identical matchings" true (collect sync_res = collect async_res)

let test_set_topology_counts_moves () =
  let n = 16 in
  let ldb = Ldb.build ~n ~seed:21 in
  let dht = Dht.create ~ldb ~seed:22 () in
  let m = 800 in
  let ops = List.init m (fun k -> Dht.Put { origin = k mod n; key = k; elt = elt ~seq:k (); confirm = false }) in
  ignore (Dht.run_batch_sync dht ops);
  let moved = Dht.set_topology dht (Ldb.join ldb) in
  checkb "some elements moved" true (moved > 0);
  checkb "a minority moved" true (moved < m / 2);
  checki "nothing lost" m (Dht.size dht);
  (* retrieval still works against the new topology *)
  let cs, _ = Dht.run_batch_sync dht [ Dht.Get { origin = 0; key = 5 } ] in
  checki "still retrievable" 1 (List.length cs)

let test_single_node_dht () =
  let dht = mk_dht ~n:1 ~seed:11 in
  let cs, _ =
    Dht.run_batch_sync dht
      [
        Dht.Put { origin = 0; key = 5; elt = elt (); confirm = true };
        Dht.Get { origin = 0; key = 5 };
      ]
  in
  checki "both completions" 2 (List.length cs)

(* --- replication, permanent loss and anti-entropy repair --- *)

let mk_repl ~n ~k ~seed = Dht.create ~k ~ldb:(Ldb.build ~n ~seed) ~seed:(seed + 1000) ()

let test_replica_zero_is_legacy_placement () =
  (* Replica 0 is the primary every rendezvous decision is made on: its
     placement must be bit-identical to the unreplicated DHT. *)
  let d1 = mk_dht ~n:16 ~seed:31 in
  let d3 = mk_repl ~n:16 ~k:3 ~seed:31 in
  for key = 0 to 63 do
    checkb "primary point unchanged" true (Dht.replica_point d3 0 key = Dht.key_point d1 key);
    checki "manager unchanged" (manager_of_key d1 key) (manager_of_key d3 key)
  done

(* The recursive definition replica placement had before it was computed
   in one ordered pass: each replica recomputes every lower one, 2^r calls
   for replica r.  Kept here as the oracle the pass must reproduce. *)
let rec recursive_replica_point d ~k r key =
  let ldb = Dht.ldb d in
  if r = 0 then Dht.key_point d key
  else begin
    let p = Dht.key_point d key +. (float_of_int r /. float_of_int k) in
    let p = if p >= 1.0 then p -. 1.0 else p in
    let used =
      List.init r (fun r' ->
          Ldb.owner (Ldb.manager_of_point ldb (recursive_replica_point d ~k r' key)))
    in
    let rec walk p steps =
      let m = Ldb.manager_of_point ldb p in
      if steps > 3 * Ldb.n ldb || not (List.mem (Ldb.owner m) used) then p
      else walk (Ldb.label ldb (Ldb.succ ldb m)) (steps + 1)
    in
    walk p 0
  end

let test_replica_points_match_recursive_definition () =
  List.iter
    (fun (n, seed) ->
      let k = 3 in
      let d = mk_repl ~n ~k ~seed in
      for key = 0 to 199 do
        for r = 0 to k - 1 do
          checkb
            (Printf.sprintf "n=%d key=%d replica %d" n key r)
            true
            (Dht.replica_point d r key = recursive_replica_point d ~k r key)
        done
      done)
    [ (4, 7); (5, 3); (16, 31) ]

(* Replica 31 of 32 took 2^31 placement calls under the recursive
   definition.  Placing all 32 replicas of 64 keys, and a batch that
   stores and takes them, must be quick; it runs in milliseconds. *)
let test_k32_placement_is_fast () =
  let t0 = Sys.time () in
  let d = mk_repl ~n:4 ~k:32 ~seed:5 in
  for key = 0 to 63 do
    ignore (Dht.replica_point d 31 key)
  done;
  let puts = List.init 8 (fun key -> Dht.Put { origin = key mod 4; key; elt = elt ~seq:key (); confirm = false }) in
  ignore (Dht.run_batch_sync d puts);
  let gets = List.init 8 (fun key -> Dht.Get { origin = key mod 4; key }) in
  let cs, _ = Dht.run_batch_sync d gets in
  checki "every get answered" 8 (List.length cs);
  let cpu = Sys.time () -. t0 in
  checkb (Printf.sprintf "k=32, n=4 took %.3f s of CPU, < 1 s" cpu) true (cpu < 1.0)

let test_parked_get_survives_crash_window () =
  let dht = mk_dht ~n:8 ~seed:41 in
  let key = 42 in
  let cs, _ = Dht.run_batch_sync dht [ Dht.Get { origin = 1; key } ] in
  checki "no completion yet" 0 (List.length cs);
  checki "parked" 1 (Dht.pending_gets dht);
  (* The manager stalls for a window covering the start of the next batch;
     reliable delivery retransmits around the outage, so the parked get
     still meets its put once the node recovers. *)
  let mgr = Ldb.owner (manager_of_key dht key) in
  let faults = Dpq_simrt.Fault_plan.of_string ~seed:5 (Printf.sprintf "crash=%d@0-40" mgr) in
  let cs, _ =
    Dht.run_batch_sync ~faults dht [ Dht.Put { origin = 0; key; elt = elt (); confirm = false } ]
  in
  checki "late rendezvous across the crash" 1 (List.length cs);
  checki "unparked" 0 (Dht.pending_gets dht)

let test_parked_get_rehomed_on_kill () =
  let n = 10 in
  let dht = mk_repl ~n ~k:3 ~seed:51 in
  let key = 7 in
  let victim = Ldb.owner (manager_of_key dht key) in
  let requester = (victim + 1) mod n in
  ignore (Dht.run_batch_sync dht [ Dht.Get { origin = requester; key } ]);
  checki "parked at the primary" 1 (Dht.pending_gets dht);
  let report = Dht.kill_node dht ~node:victim in
  checkb "the kill destroyed stored state" true (report.Dht.destroyed > 0);
  checki "the park survived the kill" 1 (Dht.pending_gets dht);
  checkb "key re-homed off the dead node" true
    (Ldb.owner (manager_of_key dht key) <> victim);
  let origin = (victim + 2) mod n in
  let cs, _ = Dht.run_batch_sync dht [ Dht.Put { origin; key; elt = elt (); confirm = false } ] in
  (match cs with
  | [ Dht.Got { origin = o; key = k'; _ } ] ->
      checki "delivered to the original requester" requester o;
      checki "for the original key" key k'
  | _ -> Alcotest.fail "expected the re-homed parked get to complete");
  checki "unparked" 0 (Dht.pending_gets dht)

let test_kill_preserves_every_element () =
  let n = 12 in
  let dht = mk_repl ~n ~k:3 ~seed:61 in
  let m = 200 in
  let ops =
    List.init m (fun k -> Dht.Put { origin = k mod n; key = k; elt = elt ~seq:k (); confirm = false })
  in
  ignore (Dht.run_batch_sync dht ops);
  checki "all stored" m (Dht.size dht);
  let report = Dht.kill_node dht ~node:4 in
  checkb "state destroyed with the node" true (report.Dht.destroyed > 0);
  checki "size restored by repair" m (Dht.size dht);
  let alive o = if o = 4 then 5 else o in
  let gets = List.init m (fun k -> Dht.Get { origin = alive ((k + 1) mod n); key = k }) in
  let cs, _ = Dht.run_batch_sync dht gets in
  checki "every element retrieved from the survivors" m
    (List.length (List.filter (function Dht.Got _ -> true | _ -> false) cs));
  checki "emptied" 0 (Dht.size dht)

let test_repair_clean_ships_nothing () =
  let n = 8 in
  let dht = mk_repl ~n ~k:3 ~seed:71 in
  let ops =
    List.init 100 (fun k -> Dht.Put { origin = k mod n; key = k; elt = elt ~seq:k (); confirm = false })
  in
  ignore (Dht.run_batch_sync dht ops);
  let st = Dht.repair dht in
  checkb "sessions ran" true (st.Dht.sessions > 0);
  checki "nothing pulled" 0 st.Dht.keys_pulled;
  checki "nothing shipped" 0 st.Dht.elements_shipped

let test_repair_traffic_delta_log_m () =
  (* ISSUE acceptance: plant a divergence of exactly δ entries in one
     replica and check the repair traffic beyond the δ=0 session baseline
     stays within O(δ log m) bits. *)
  let n = 16 and m = 512 in
  let dht = mk_repl ~n ~k:3 ~seed:81 in
  let ops =
    List.init m (fun i ->
        Dht.Put
          {
            origin = i mod n;
            key = 10_000 + i;
            elt = elt ~prio:(1 + (i mod 7)) ~origin:(i mod n) ~seq:i ();
            confirm = false;
          })
  in
  ignore (Dht.run_batch_sync dht ops);
  let log2m = int_of_float (ceil (log (float_of_int m) /. log 2.0)) in
  let bits_for delta =
    let dropped = Dht.drop_replica_entries dht ~r:1 ~f:(fun ~key -> key < 10_000 + delta) in
    checki "planted divergence has the requested size" delta dropped;
    let trace = Dpq_obs.Trace.create () in
    let st = Dht.repair ~trace dht in
    (* Shipping granularity is a whole differing leaf range, so a leaf
       co-resident can ride along redundantly — but the set of keys whose
       content actually changed is exactly the planted divergence. *)
    checki "repair closes exactly the planted divergence" delta st.Dht.keys_pulled;
    checkb "ships at least the missing entries" true (st.Dht.elements_shipped >= delta);
    checki "trace-derived repair bits agree with the stats" st.Dht.repair_bits
      (Dpq_obs.Trace.repair_bits trace);
    st.Dht.repair_bits
  in
  let base = bits_for 0 in
  List.iter
    (fun delta ->
      let bits = bits_for delta in
      checkb
        (Printf.sprintf "delta=%d: traffic increment within O(delta log m)" delta)
        true
        (bits - base <= 80 * delta * log2m))
    [ 4; 16; 64; 256 ]

(* --- per-owner bucketing: elements_by_node / take_matching_by_node --- *)

let elt_t =
  Alcotest.testable (fun fmt e -> Format.pp_print_string fmt (Element.to_string e)) Element.equal

(* [m] elements over [m * 3 / 4] keys, so some keys hold several. *)
let stored_pairs m =
  List.init m (fun i -> (i mod (m * 3 / 4), elt ~prio:(1 + (i * 37 mod 101)) ~origin:(i mod 5) ~seq:i ()))

let put_all dht ~n pairs =
  ignore
    (Dht.run_batch_sync dht
       (List.mapi (fun i (key, e) -> Dht.Put { origin = i mod n; key; elt = e; confirm = false }) pairs))

(* Brute force: each (key, element) goes to the real node owning the key's
   primary manager. *)
let by_owner_reference dht pairs =
  let buckets = Array.make (Ldb.n (Dht.ldb dht)) [] in
  List.iter
    (fun (key, e) ->
      let owner = Ldb.owner (manager_of_key dht key) in
      buckets.(owner) <- e :: buckets.(owner))
    pairs;
  buckets

let check_buckets msg expected got =
  checki (msg ^ ": one bucket per node") (Array.length expected) (Array.length got);
  Array.iteri
    (fun v exp ->
      Alcotest.check (Alcotest.list elt_t)
        (Printf.sprintf "%s: node %d (as a multiset)" msg v)
        (List.sort Element.compare exp)
        (List.sort Element.compare got.(v)))
    expected

let test_by_node_matches_reference k () =
  let n = 12 and m = 240 in
  let dht = mk_repl ~n ~k ~seed:91 in
  let pairs = stored_pairs m in
  put_all dht ~n pairs;
  check_buckets "elements_by_node" (by_owner_reference dht pairs) (Dht.elements_by_node dht);
  let f e = Element.prio e <= 30 in
  let taken = Dht.take_matching_by_node dht ~f in
  check_buckets "take_matching_by_node"
    (by_owner_reference dht (List.filter (fun (_, e) -> f e) pairs))
    taken;
  let rest = List.filter (fun (_, e) -> not (f e)) pairs in
  checki "size drops by the take" (List.length rest) (Dht.size dht);
  check_buckets "elements_by_node after the take" (by_owner_reference dht rest)
    (Dht.elements_by_node dht);
  checkb "nothing left to take" true
    (Array.for_all (( = ) []) (Dht.take_matching_by_node dht ~f))

let test_by_node_after_kill () =
  let n = 12 and m = 240 and victim = 5 in
  let dht = mk_repl ~n ~k:3 ~seed:93 in
  let pairs = stored_pairs m in
  put_all dht ~n pairs;
  ignore (Dht.kill_node dht ~node:victim);
  let by_node = Dht.elements_by_node dht in
  Alcotest.check (Alcotest.list elt_t) "dead slot is empty" [] by_node.(victim);
  check_buckets "elements_by_node after a kill" (by_owner_reference dht pairs) by_node;
  let taken = Dht.take_matching_by_node dht ~f:(fun e -> Element.prio e > 90) in
  Alcotest.check (Alcotest.list elt_t) "dead slot takes nothing" [] taken.(victim)

let test_take_drops_every_replica () =
  (* If a backup copy kept a taken element, killing its primary owner would
     let repair pull it back from that copy. *)
  let n = 12 and m = 240 in
  let dht = mk_repl ~n ~k:3 ~seed:95 in
  let pairs = stored_pairs m in
  put_all dht ~n pairs;
  let taken = Dht.take_matching_by_node dht ~f:(fun e -> Element.prio e <= 40) in
  let victim = ref 0 in
  Array.iteri (fun v l -> if List.length l > List.length taken.(!victim) then victim := v) taken;
  let victim = !victim in
  checkb "the victim owned taken elements" true (taken.(victim) <> []);
  let size = Dht.size dht in
  let report = Dht.kill_node dht ~node:victim in
  checkb "the kill destroyed stored state" true (report.Dht.destroyed > 0);
  checki "size unchanged by kill + repair" size (Dht.size dht);
  let stored = List.concat (Array.to_list (Dht.elements_by_node dht)) in
  Array.iter
    (List.iter (fun e ->
         checkb
           (Printf.sprintf "taken %s does not reappear" (Element.to_string e))
           false
           (List.exists (Element.equal e) stored)))
    taken

(* 1 024 Put+Get pairs on a warmed n = 256 DHT: routes are walked into the
   batch's arena, payloads go into its columns and the batch runs on the
   DHT's one engine, so what is left per operation is the store's queues,
   the completions the caller receives and the buffers' growth. *)
let test_batch_allocation () =
  let n = 256 in
  let dht = mk_dht ~n ~seed:81 in
  let pairs base =
    List.concat
      (List.init 1024 (fun i ->
           let key = base + i in
           [
             Dht.Put { origin = i mod n; key; elt = elt ~seq:key (); confirm = false };
             Dht.Get { origin = (7 * i) mod n; key };
           ]))
  in
  (* Warm up: the engine's queue and the store's table grow to their
     working size on the first batch. *)
  ignore (Dht.run_batch_sync dht (pairs 0));
  let ops = pairs 1024 in
  let before = Gc.minor_words () in
  let cs, _ = Sys.opaque_identity (Dht.run_batch_sync dht ops) in
  let per_op = (Gc.minor_words () -. before) /. float_of_int (List.length ops) in
  checki "every get met its put" 1024 (List.length cs);
  checkb (Printf.sprintf "%.2f minor words per op <= 20" per_op) true (per_op <= 20.0)

(* A DHT reuses one engine across batches; it must answer exactly as one
   that builds a fresh engine for every batch.  The reference passes a new
   FIFO scheduler on each call — FIFO delivers exactly as no scheduler, and
   a different scheduler forces a new engine — while the DHT under test
   passes none, so it reuses its engine except where the overlay or the
   fault plan changed.  Both see the same operations, kills, joins and
   (separate, identically seeded) fault plans. *)
let test_reused_engine_equals_fresh () =
  let n = 24 in
  let mk () = mk_repl ~n ~k:3 ~seed:71 in
  let reused = mk () and fresh = mk () in
  let fifo () = Dpq_simrt.Sched.create ~seed:0 Dpq_simrt.Sched.Fifo in
  let plan seed = Dpq_simrt.Fault_plan.of_string ~seed "drop=0.2,dup=0.1" in
  let batch ~tag ~origins =
    let m = Array.length origins in
    List.concat
      (List.init 40 (fun i ->
           let key = (tag * 1000) + (i mod 30) in
           let o j = origins.((i + j) mod m) in
           [
             Dht.Get { origin = o 0; key };
             Dht.Put { origin = o 5; key; elt = elt ~seq:((tag * 100) + i) (); confirm = i mod 3 = 0 };
           ]
           @ if i mod 4 = 0 then [ Dht.Get { origin = o 9; key = key + 500 } ] else []))
  in
  let live dht =
    let ldb = Dht.ldb dht in
    Array.of_list (List.filter (fun id -> Ldb.is_present ldb ~id) (List.init (Ldb.n ldb) Fun.id))
  in
  let step name ?faults_r ?faults_f tag =
    let ops = batch ~tag ~origins:(live reused) in
    let cs, rep = Dht.run_batch_sync ?faults:faults_r reused ops in
    let cs', rep' = Dht.run_batch_sync ?faults:faults_f ~sched:(fifo ()) fresh ops in
    checkb (name ^ ": completions") true (cs = cs');
    checkb (name ^ ": report") true (rep = rep');
    checki (name ^ ": stored") (Dht.size fresh) (Dht.size reused);
    checki (name ^ ": parked") (Dht.pending_gets fresh) (Dht.pending_gets reused);
    checkb (name ^ ": elements") true (Dht.elements_by_node reused = Dht.elements_by_node fresh)
  in
  step "first batch" 1;
  step "reused engine" 2;
  let kr = Dht.kill_node reused ~node:5 and kf = Dht.kill_node fresh ~node:5 in
  checkb "kill reports" true (kr = kf);
  step "after kill_node" 3;
  step "reused after kill" 4;
  checki "join moves the same share"
    (Dht.set_topology fresh (Ldb.join (Dht.ldb fresh)))
    (Dht.set_topology reused (Ldb.join (Dht.ldb reused)));
  step "after a join" 5;
  let r1 = plan 7 and f1 = plan 7 in
  step "faults added" ~faults_r:r1 ~faults_f:f1 6;
  step "same faults again" ~faults_r:r1 ~faults_f:f1 7;
  let r2 = plan 8 and f2 = plan 8 in
  step "faults changed" ~faults_r:r2 ~faults_f:f2 8;
  step "faults removed" 9;
  checkb "fault draws match" true
    (Dpq_simrt.Fault_plan.stats r1 = Dpq_simrt.Fault_plan.stats f1
    && Dpq_simrt.Fault_plan.stats r2 = Dpq_simrt.Fault_plan.stats f2)

let () =
  Alcotest.run "dpq_dht"
    [
      ( "dht",
        [
          Alcotest.test_case "put then get" `Quick test_put_then_get;
          Alcotest.test_case "put confirm" `Quick test_put_confirm;
          Alcotest.test_case "racing rendezvous" `Quick test_get_before_put_parks_and_meets;
          Alcotest.test_case "get parks across batches" `Quick test_get_with_no_put_parks;
          Alcotest.test_case "same key fifo" `Quick test_same_key_multiple_elements_fifo;
          Alcotest.test_case "keys route to manager" `Quick test_keys_route_to_manager;
          Alcotest.test_case "load uniform" `Quick test_load_roughly_uniform;
          Alcotest.test_case "rounds logarithmic" `Quick test_rounds_logarithmic;
          Alcotest.test_case "async rendezvous" `Quick test_async_rendezvous_all_policies;
          Alcotest.test_case "async = sync matching" `Quick test_async_matches_sync_results;
          Alcotest.test_case "set_topology" `Quick test_set_topology_counts_moves;
          Alcotest.test_case "single node" `Quick test_single_node_dht;
          Alcotest.test_case "batch allocation per op" `Quick test_batch_allocation;
          Alcotest.test_case "reused engine equals fresh" `Quick test_reused_engine_equals_fresh;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica 0 = legacy placement" `Quick
            test_replica_zero_is_legacy_placement;
          Alcotest.test_case "parked get survives crash window" `Quick
            test_parked_get_survives_crash_window;
          Alcotest.test_case "parked get re-homed on kill" `Quick test_parked_get_rehomed_on_kill;
          Alcotest.test_case "kill preserves every element" `Quick test_kill_preserves_every_element;
          Alcotest.test_case "clean repair ships nothing" `Quick test_repair_clean_ships_nothing;
          Alcotest.test_case "repair traffic O(delta log m)" `Quick
            test_repair_traffic_delta_log_m;
          Alcotest.test_case "k=3 placement = recursive definition" `Quick
            test_replica_points_match_recursive_definition;
          Alcotest.test_case "k=32 placement on 4 nodes is fast" `Quick test_k32_placement_is_fast;
        ] );
      ( "by-node",
        [
          Alcotest.test_case "buckets match per-owner reference, k=1" `Quick
            (test_by_node_matches_reference 1);
          Alcotest.test_case "buckets match per-owner reference, k=3" `Quick
            (test_by_node_matches_reference 3);
          Alcotest.test_case "buckets after a kill" `Quick test_by_node_after_kill;
          Alcotest.test_case "take drops every replica" `Quick test_take_drops_every_replica;
        ] );
    ]
