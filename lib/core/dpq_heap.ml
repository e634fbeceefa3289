module Element = Dpq_util.Element
module Phase = Dpq_aggtree.Phase
module Types = Dpq_types.Types
module Clients = Dpq_types.Clients
module Skeap_impl = Dpq_skeap.Skeap
module Seap_impl = Dpq_seap.Seap
module Centralized_impl = Dpq_baselines.Centralized
module Unbatched_impl = Dpq_baselines.Unbatched

type backend = Types.backend =
  | Skeap of { num_prios : int }
  | Seap
  | Centralized
  | Unbatched of { num_prios : int }

let backend_name = Types.backend_name
let pp_backend = Types.pp_backend

type dht_mode = Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type impl =
  | I_skeap of Skeap_impl.t
  | I_seap of Seap_impl.t
  | I_centralized of Centralized_impl.t
  | I_unbatched of Unbatched_impl.t

type t = {
  backend : backend;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  impl : impl;
  clients : Clients.t;  (* the backend's own client side *)
}

let create ?(seed = 1) ?(replication = 1) ?(domains = 1) ?trace ?faults ?sched ?gossip ~n backend =
  if replication < 1 then invalid_arg "Dpq_heap.create: replication must be >= 1";
  if domains < 1 then invalid_arg "Dpq_heap.create: domains must be >= 1";
  let no_replication () =
    if replication > 1 then
      invalid_arg
        (Printf.sprintf "Dpq_heap.create: %s backend does not support replication"
           (backend_name backend))
  in
  let no_gossip () =
    if gossip <> None then
      invalid_arg
        (Printf.sprintf "Dpq_heap.create: %s backend does not support gossip load estimation"
           (backend_name backend))
  in
  let impl =
    match backend with
    | Skeap { num_prios } ->
        I_skeap
          (Skeap_impl.create ~seed ~replication ~domains ?trace ?faults ?sched ?gossip ~n ~num_prios
             ())
    | Seap ->
        I_seap (Seap_impl.create ~seed ~replication ?trace ?faults ?sched ?gossip ~n ())
    | Centralized ->
        no_replication ();
        no_gossip ();
        I_centralized (Centralized_impl.create ~seed ?trace ?faults ?sched ~n ())
    | Unbatched { num_prios } ->
        no_replication ();
        no_gossip ();
        I_unbatched (Unbatched_impl.create ~seed ?trace ?faults ?sched ~n ~num_prios ())
  in
  let clients =
    match impl with
    | I_skeap h -> Skeap_impl.clients h
    | I_seap h -> Seap_impl.clients h
    | I_centralized h -> Centralized_impl.clients h
    | I_unbatched h -> Unbatched_impl.clients h
  in
  { backend; trace; faults; sched; impl; clients }

let backend t = t.backend
let trace t = t.trace
let faults t = t.faults
let sched t = t.sched

let n t = Clients.n t.clients

let replication t =
  match t.impl with
  | I_skeap h -> Skeap_impl.replication h
  | I_seap h -> Seap_impl.replication h
  | I_centralized _ | I_unbatched _ -> 1

let live t ~node = Clients.live t.clients ~node
let insert t ~node ~prio = Clients.insert t.clients ~node ~prio
let delete_min t ~node = Clients.delete_min t.clients ~node
let pending_ops t = Clients.pending_ops t.clients

let heap_size t =
  match t.impl with
  | I_skeap h -> Skeap_impl.heap_size h
  | I_seap h -> Seap_impl.heap_size h
  | I_centralized h -> Centralized_impl.heap_size h
  | I_unbatched h -> Unbatched_impl.heap_size h

let load_estimate t =
  match t.impl with
  | I_skeap h -> Skeap_impl.load_estimate h
  | I_seap h -> Seap_impl.load_estimate h
  | I_centralized _ | I_unbatched _ -> None

type outcome = [ `Inserted of Element.t | `Got of Element.t | `Empty ]
type completion = Types.completion = { node : int; local_seq : int; outcome : outcome }

type result = {
  completions : completion list;
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  hotspot_load : int;
}

let of_report (report : Phase.report) completions =
  {
    completions;
    rounds = report.Phase.rounds;
    messages = report.Phase.messages;
    max_congestion = report.Phase.max_congestion;
    max_message_bits = report.Phase.max_message_bits;
    total_bits = report.Phase.total_bits;
    hotspot_load = report.Phase.busiest_node_load;
  }

let reject_async backend = function
  | Some (Dht_async _) ->
      invalid_arg
        (Printf.sprintf "Dpq_heap.process: %s backend has no asynchronous DHT phase"
           (backend_name backend))
  | Some Dht_sync | None -> ()

let process ?dht_mode t =
  match t.impl with
  | I_skeap h ->
      let r = Skeap_impl.process_batch ?dht_mode h in
      of_report r.Skeap_impl.report r.Skeap_impl.completions
  | I_seap h ->
      let r = Seap_impl.process_round ?dht_mode h in
      of_report r.Seap_impl.report r.Seap_impl.completions
  | I_centralized h ->
      reject_async t.backend dht_mode;
      let r = Centralized_impl.process h in
      of_report r.Centralized_impl.report r.Centralized_impl.completions
  | I_unbatched h ->
      reject_async t.backend dht_mode;
      let r = Unbatched_impl.process h in
      of_report r.Unbatched_impl.report r.Unbatched_impl.completions

let drain ?dht_mode t = Clients.drain t.clients (fun () -> process ?dht_mode t)

type churn_cost = Types.churn_cost = { join_messages : int; moved_elements : int }

let no_churn backend =
  invalid_arg
    (Printf.sprintf "Dpq_heap: %s backend does not support membership changes"
       (backend_name backend))

let add_node t =
  match t.impl with
  | I_skeap h -> Skeap_impl.add_node h
  | I_seap h -> Seap_impl.add_node h
  | I_centralized _ | I_unbatched _ -> no_churn t.backend

let remove_last_node t =
  match t.impl with
  | I_skeap h -> Skeap_impl.remove_last_node h
  | I_seap h -> Seap_impl.remove_last_node h
  | I_centralized _ | I_unbatched _ -> no_churn t.backend

let oplog t = Clients.oplog t.clients
let take_oplog t = Clients.take_log t.clients

let online_contract t =
  match t.impl with
  | I_seap _ -> Dpq_semantics.Checker.Online.Seap_contract
  (* Both baselines serialize at a single point under synchronous delivery,
     so they are held to the stronger (sequential-consistency) contract. *)
  | I_skeap _ | I_centralized _ | I_unbatched _ -> Dpq_semantics.Checker.Online.Skeap_contract

let online_checker t = Dpq_semantics.Checker.Online.create (online_contract t)

let verify t = Dpq_semantics.Checker.check (online_contract t) (oplog t)

let stored_per_node t =
  match t.impl with
  | I_skeap h -> Skeap_impl.stored_per_node h
  | I_seap h -> Seap_impl.stored_per_node h
  | I_centralized h -> Centralized_impl.stored_per_node h
  | I_unbatched h -> Unbatched_impl.stored_per_node h
