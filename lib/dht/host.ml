module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Gossip = Dpq_gossip.Gossip
module Clients = Dpq_types.Clients
module Types = Dpq_types.Types

type t = {
  name : string;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  dht : Dht.t;
  clients : Clients.t;
  gossip : Gossip.t option;
  mutable tree : Aggtree.t;
}

let create ~name ?max_prio ?trace ?faults ?sched ?gossip ~seed ~replication ~n () =
  let ldb = Ldb.build ~n ~seed in
  {
    name;
    trace;
    faults;
    sched;
    dht = Dht.create ~k:replication ~ldb ~seed:(seed + 7919) ();
    clients = Clients.create ~name ?max_prio ~n ();
    gossip = Option.map (fun config -> Gossip.create ~config ~seed ~n ()) gossip;
    tree = Aggtree.of_ldb ldb;
  }

let ldb h = Dht.ldb h.dht
let n h = Clients.n h.clients
let anchor h = Ldb.owner (Aggtree.root h.tree)

let load_estimate h =
  match h.gossip with None -> None | Some g -> Gossip.estimate g ~node:(anchor h)

let run_dht h ~dht_mode ops =
  match (dht_mode : Types.dht_mode) with
  | Dht_sync -> Dht.run_batch_sync ?trace:h.trace ?faults:h.faults ?sched:h.sched h.dht ops
  | Dht_async { seed; policy } ->
      let cs = Dht.run_batch_async ?trace:h.trace ?faults:h.faults ?sched:h.sched h.dht ~seed ~policy ops in
      (cs, Phase.empty_report)

(* The local observation diffs the monotone per-node issue counters, so
   operations still buffered count once, when issued. *)
let exchange_gossip ?par h =
  match h.gossip with
  | None -> Phase.empty_report
  | Some g ->
      Gossip.exchange ?trace:h.trace ?faults:h.faults ?sched:h.sched ?par g
        ~live:(fun v -> Clients.live h.clients ~node:v)
        ~cumulative:(Clients.issued h.clients) ~anchor:(anchor h) ()

let commit_kills h ~step =
  match h.faults with
  | None -> ()
  | Some plan ->
      List.iter
        (fun node ->
          if node >= n h then
            invalid_arg
              (Printf.sprintf "%s: fault plan kills node %d but the heap has %d nodes" h.name node (n h));
          if Ldb.is_present (ldb h) ~id:node then begin
            Clients.kill h.clients ~node;
            ignore (Dht.kill_node ?trace:h.trace h.dht ~node);
            h.tree <- Aggtree.of_ldb (ldb h);
            step ()
          end;
          Dpq_simrt.Fault_plan.commit_kill plan h.trace ~node)
        (Dpq_simrt.Fault_plan.pending_kills plan)

let retopology h ldb' ~step =
  let moved = Dht.set_topology h.dht ldb' in
  h.tree <- Aggtree.of_ldb ldb';
  step ();
  moved

let add_node h ~step =
  let join_messages = Ldb.join_cost_hops (ldb h) in
  let moved_elements = retopology h (Ldb.join (ldb h)) ~step in
  Clients.add_node h.clients;
  Option.iter (fun g -> Gossip.grow g (n h)) h.gossip;
  Dpq_obs.Trace.churn h.trace ~kind:"join" ~n:(n h) ~join_messages ~moved_elements;
  { Types.join_messages; moved_elements }

let remove_last_node h ~step =
  if n h <= 1 then invalid_arg (h.name ^ ".remove_last_node: cannot empty the heap");
  let leaving = n h - 1 in
  Clients.remove_last_node h.clients;
  let ldb' = Ldb.leave (ldb h) ~id:leaving in
  let moved_elements = retopology h ldb' ~step in
  let join_messages = Ldb.join_cost_hops ldb' in
  Dpq_obs.Trace.churn h.trace ~kind:"leave" ~n:(n h) ~join_messages ~moved_elements;
  { Types.join_messages; moved_elements }
