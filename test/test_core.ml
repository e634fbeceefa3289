module H = Dpq.Dpq_heap
module E = Dpq_util.Element

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let test_skeap_backend () =
  let h = H.create ~n:4 (H.Skeap { num_prios = 3 }) in
  checkb "backend" true (H.backend h = H.Skeap { num_prios = 3 });
  checki "n" 4 (H.n h);
  let e = H.insert h ~node:0 ~prio:2 in
  H.delete_min h ~node:3;
  checki "pending" 2 (H.pending_ops h);
  let r = H.process h in
  checki "completions" 2 (List.length r.H.completions);
  let got =
    List.find_map (fun c -> match c.H.outcome with `Got x -> Some x | _ -> None) r.H.completions
  in
  checkb "element roundtrip" true (E.equal e (Option.get got));
  checkb "verify" true (H.verify h = Ok ())

let test_seap_backend () =
  let h = H.create ~n:4 H.Seap in
  ignore (H.insert h ~node:0 ~prio:1_000_000);
  ignore (H.insert h ~node:1 ~prio:3);
  H.delete_min h ~node:2;
  let r = H.process h in
  let got =
    List.filter_map
      (fun c -> match c.H.outcome with `Got e -> Some (E.prio e) | _ -> None)
      r.H.completions
  in
  Alcotest.(check (list int)) "min first" [ 3 ] got;
  checkb "verify" true (H.verify h = Ok ())

let test_heap_size_tracking () =
  let h = H.create ~n:3 (H.Skeap { num_prios = 2 }) in
  for i = 0 to 9 do
    ignore (H.insert h ~node:(i mod 3) ~prio:(1 + (i mod 2)))
  done;
  ignore (H.process h);
  checki "size 10" 10 (H.heap_size h);
  for _ = 1 to 4 do
    H.delete_min h ~node:0
  done;
  ignore (H.process h);
  checki "size 6" 6 (H.heap_size h)

let test_drain () =
  let h = H.create ~n:4 H.Seap in
  for i = 0 to 11 do
    ignore (H.insert h ~node:(i mod 4) ~prio:(i + 1))
  done;
  let rs = H.drain h in
  checkb "at least one iteration" true (rs <> []);
  checki "nothing pending" 0 (H.pending_ops h)

let test_result_metrics_populated () =
  let h = H.create ~n:8 (H.Skeap { num_prios = 2 }) in
  for v = 0 to 7 do
    ignore (H.insert h ~node:v ~prio:1)
  done;
  let r = H.process h in
  checkb "rounds" true (r.H.rounds > 0);
  checkb "messages" true (r.H.messages > 0);
  checkb "bits" true (r.H.max_message_bits > 0)

let test_stored_per_node () =
  let h = H.create ~n:8 H.Seap in
  for i = 0 to 79 do
    ignore (H.insert h ~node:(i mod 8) ~prio:(i + 1))
  done;
  ignore (H.process h);
  let counts = H.stored_per_node h in
  checki "total" 80 (Array.fold_left ( + ) 0 counts)

let test_both_backends_agree_on_min () =
  List.iter
    (fun backend ->
      let h = H.create ~seed:5 ~n:4 backend in
      ignore (H.insert h ~node:0 ~prio:3);
      ignore (H.insert h ~node:1 ~prio:1);
      ignore (H.insert h ~node:2 ~prio:2);
      ignore (H.process h);
      H.delete_min h ~node:3;
      let r = H.process h in
      let got =
        List.filter_map
          (fun c -> match c.H.outcome with `Got e -> Some (E.prio e) | _ -> None)
          r.H.completions
      in
      Alcotest.(check (list int)) "the minimum" [ 1 ] got)
    [ H.Skeap { num_prios = 3 }; H.Seap ]

let all_backends =
  [ H.Skeap { num_prios = 3 }; H.Seap; H.Centralized; H.Unbatched { num_prios = 3 } ]

let test_all_backends_unified () =
  List.iter
    (fun backend ->
      let h = H.create ~seed:5 ~n:4 backend in
      checkb "backend" true (H.backend h = backend);
      for i = 0 to 11 do
        ignore (H.insert h ~node:(i mod 4) ~prio:(1 + (i mod 3)))
      done;
      ignore (H.process h);
      checki "size 12" 12 (H.heap_size h);
      (* One churn step where the backend supports it; the static baselines
         must refuse. *)
      (match backend with
      | H.Skeap _ | H.Seap ->
          let c = H.add_node h in
          checkb "join cost" true (c.H.join_messages > 0);
          ignore (H.remove_last_node h);
          checki "back to 4 nodes" 4 (H.n h)
      | H.Centralized | H.Unbatched _ ->
          checkb "add_node raises" true
            (try
               ignore (H.add_node h);
               false
             with Invalid_argument _ -> true));
      for v = 0 to 3 do
        H.delete_min h ~node:v
      done;
      let rs = H.drain h in
      checkb "drained" true (rs <> []);
      checki "pending" 0 (H.pending_ops h);
      checki "size 8" 8 (H.heap_size h);
      checki "stored total" 8 (Array.fold_left ( + ) 0 (H.stored_per_node h));
      checkb (Printf.sprintf "%s verifies" (H.backend_name backend)) true (H.verify h = Ok ()))
    all_backends

(* Every backend runs the same client-side checks: a node outside [0, n),
   a priority below 1, one above [num_prios] where the universe is bounded,
   and (Skeap/Seap) a node a fault plan has killed. *)
let test_client_checks () =
  let raises what f =
    checkb what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun backend ->
      let name = H.backend_name backend in
      let h = H.create ~n:4 backend in
      List.iter
        (fun node ->
          raises (Printf.sprintf "%s: insert at node %d" name node) (fun () ->
              ignore (H.insert h ~node ~prio:1));
          raises (Printf.sprintf "%s: delete at node %d" name node) (fun () ->
              H.delete_min h ~node))
        [ -1; 4 ];
      List.iter
        (fun prio ->
          raises (Printf.sprintf "%s: priority %d" name prio) (fun () ->
              ignore (H.insert h ~node:1 ~prio)))
        (match backend with
        | H.Skeap { num_prios } | H.Unbatched { num_prios } -> [ 0; -3; num_prios + 1 ]
        | H.Seap | H.Centralized -> [ 0; -3 ]);
      checki (name ^ ": nothing buffered") 0 (H.pending_ops h))
    all_backends;
  List.iter
    (fun backend ->
      let name = H.backend_name backend in
      let faults = Dpq_simrt.Fault_plan.of_string ~seed:1 "kill=1@0" in
      let h = H.create ~replication:3 ~faults ~n:4 backend in
      ignore (H.insert h ~node:0 ~prio:1);
      ignore (H.process h);
      checkb (name ^ ": killed node not live") false (H.live h ~node:1);
      raises (name ^ ": insert at killed node") (fun () -> ignore (H.insert h ~node:1 ~prio:1));
      raises (name ^ ": delete at killed node") (fun () -> H.delete_min h ~node:1);
      checki (name ^ ": nothing buffered") 0 (H.pending_ops h))
    [ H.Skeap { num_prios = 3 }; H.Seap ]

let test_backend_names () =
  Alcotest.(check (list string))
    "names"
    [ "skeap"; "seap"; "centralized"; "unbatched" ]
    (List.map H.backend_name all_backends)

let test_baselines_reject_async_dht () =
  List.iter
    (fun backend ->
      let h = H.create ~n:4 backend in
      ignore (H.insert h ~node:0 ~prio:1);
      checkb "async rejected" true
        (try
           ignore
             (H.process
                ~dht_mode:(H.Dht_async { seed = 1; policy = Dpq_simrt.Async_engine.Uniform (1.0, 4.0) })
                h);
           false
         with Invalid_argument _ -> true);
      (* Plain sync mode is the default everywhere and must keep working. *)
      ignore (H.process ~dht_mode:H.Dht_sync h);
      checkb "verify" true (H.verify h = Ok ()))
    [ H.Centralized; H.Unbatched { num_prios = 3 } ]

let prop_facade_verifies_random_runs =
  let gen =
    QCheck.Gen.(
      pair bool
        (list_size (0 -- 25)
           (pair (0 -- 3) (frequency [ (3, map (fun p -> Some (1 + (p mod 3))) small_nat); (2, return None) ]))))
  in
  QCheck.Test.make ~name:"facade verifies random runs on both backends" ~count:30
    (QCheck.make gen)
    (fun (use_seap, ops) ->
      let backend = if use_seap then H.Seap else H.Skeap { num_prios = 3 } in
      let h = H.create ~seed:9 ~n:4 backend in
      List.iter
        (fun (node, op) ->
          match op with
          | Some p -> ignore (H.insert h ~node ~prio:p)
          | None -> H.delete_min h ~node)
        ops;
      ignore (H.drain h);
      H.verify h = Ok ())

let () =
  Alcotest.run "dpq_core"
    [
      ( "facade",
        [
          Alcotest.test_case "skeap backend" `Quick test_skeap_backend;
          Alcotest.test_case "seap backend" `Quick test_seap_backend;
          Alcotest.test_case "heap size" `Quick test_heap_size_tracking;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "metrics populated" `Quick test_result_metrics_populated;
          Alcotest.test_case "stored per node" `Quick test_stored_per_node;
          Alcotest.test_case "backends agree" `Quick test_both_backends_agree_on_min;
          Alcotest.test_case "all four backends, one API" `Quick test_all_backends_unified;
          Alcotest.test_case "backend names" `Quick test_backend_names;
          Alcotest.test_case "baselines reject async dht" `Quick test_baselines_reject_async_dht;
          Alcotest.test_case "client checks on every backend" `Quick test_client_checks;
          QCheck_alcotest.to_alcotest prop_facade_verifies_random_runs;
        ] );
    ]
