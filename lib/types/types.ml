module Element = Dpq_util.Element

type outcome = [ `Inserted of Element.t | `Got of Element.t | `Empty ]
type completion = { node : int; local_seq : int; outcome : outcome }

type dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type churn_cost = { join_messages : int; moved_elements : int }

type backend =
  | Skeap of { num_prios : int }
  | Seap
  | Centralized
  | Unbatched of { num_prios : int }

let backend_name = function
  | Skeap _ -> "skeap"
  | Seap -> "seap"
  | Centralized -> "centralized"
  | Unbatched _ -> "unbatched"
