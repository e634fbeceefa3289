module Sync = Dpq_simrt.Sync_engine
module Trace = Dpq_obs.Trace
module Rng = Dpq_util.Rng
module Phase = Dpq_aggtree.Phase

type config = {
  extra_rounds : int;
  alpha : float;
}

(* ~0.75x worst-case relative error per extra wave (measured): 12 extra
   waves land the estimate within ~5% of the true mean at n=32. *)
let default_config = { extra_rounds = 12; alpha = 0.5 }

type t = {
  config : config;
  rng : Rng.t;  (* peer-table draws; advanced only at exchange kickoff *)
  mutable n : int;
  mutable last_cum : float array;  (* cumulative obs at the previous exchange *)
  mutable est : float array;  (* EWMA'd push-sum estimate per node *)
  mutable have : bool array;  (* est.(v) valid *)
  mutable exchanges : int;
}

let create ?(config = default_config) ~seed ~n () =
  if n <= 0 then invalid_arg "Gossip.create: n must be positive";
  if config.alpha <= 0.0 || config.alpha > 1.0 then
    invalid_arg "Gossip.create: alpha must be in (0, 1]";
  {
    config;
    rng = Rng.named ~seed "gossip";
    n;
    last_cum = Array.make n 0.0;
    est = Array.make n 0.0;
    have = Array.make n false;
    exchanges = 0;
  }

let grow t n' =
  if n' > t.n then begin
    let extend a fill =
      let b = Array.make n' fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.last_cum <- extend t.last_cum 0.0;
    t.est <- extend t.est 0.0;
    t.have <- extend t.have false;
    t.n <- n'
  end

let estimate t ~node =
  if node < 0 || node >= t.n then None
  else if t.have.(node) then Some t.est.(node)
  else None

(* One push-sum message: a (sum, weight) share.  Charged two 64-bit words
   on the wire, like the other protocol payload floats. *)
type msg = { s : float; w : float }

let msg_bits = 128

let absorb t ~alpha ~node ~value =
  if t.have.(node) then t.est.(node) <- (alpha *. value) +. ((1.0 -. alpha) *. t.est.(node))
  else begin
    t.est.(node) <- value;
    t.have.(node) <- true
  end

let exchange ?trace ?faults ?sched t ~live ~cumulative ~anchor () =
  let n = t.n in
  let span = Trace.phase_start trace "gossip" in
  (* Local observation: ops injected at this node since the last exchange.
     The diff is kept inside the gossip state so callers only expose their
     monotone cumulative counters. *)
  let obs = Array.make n 0.0 in
  for v = 0 to n - 1 do
    if live v then begin
      let cum = float_of_int (cumulative v) in
      obs.(v) <- cum -. t.last_cum.(v);
      t.last_cum.(v) <- cum
    end
  done;
  let report, engine_rounds =
    if n = 1 then begin
      (* Degenerate overlay: the estimate is the local observation. *)
      absorb t ~alpha:t.config.alpha ~node:0 ~value:obs.(0);
      (Phase.empty_report, 0)
    end
    else begin
      let s = Array.copy obs in
      let w = Array.make n 0.0 in
      for v = 0 to n - 1 do
        if live v then w.(v) <- 1.0
      done;
      (* ceil(log2 n) + extra rounds suffice for push-sum to concentrate
         (mass-conservation diffusion halves the spread each round). *)
      let kmax =
        let rec lg k acc = if k >= n then acc else lg (2 * k) (acc + 1) in
        lg 1 0 + t.config.extra_rounds
      in
      (* Peer tables drawn up front from the dedicated gossip stream: the
         engine never touches the RNG mid-round, so the schedule does not
         depend on delivery order within a round. *)
      let peers =
        Array.init kmax (fun _ ->
            Array.init n (fun v ->
                let r = Rng.int t.rng (n - 1) in
                if r >= v then r + 1 else r))
      in
      let handler _eng ~dst ~src:_ m =
        s.(dst) <- s.(dst) +. m.s;
        w.(dst) <- w.(dst) +. m.w
      in
      let halve_and_send eng k v =
        let hs = s.(v) /. 2.0 and hw = w.(v) /. 2.0 in
        s.(v) <- hs;
        w.(v) <- hw;
        Sync.send eng ~src:v ~dst:peers.(k).(v) { s = hs; w = hw }
      in
      let activate eng v =
        (* Round r's activations run before r's deliveries and the round
           counter advances after the step, so this is wave [round + 1];
           wave 0 is kicked off manually below (a quiescent engine runs no
           rounds at all). *)
        let k = Sync.round eng + 1 in
        if k < kmax && live v then halve_and_send eng k v
      in
      let eng =
        Sync.create ~n ~size_bits:(fun _ -> msg_bits) ~handler ~activate ?trace ?faults ?sched ()
      in
      for v = 0 to n - 1 do
        if live v then halve_and_send eng 0 v
      done;
      let rounds = Sync.run_to_quiescence eng in
      for v = 0 to n - 1 do
        if live v && w.(v) > 0.0 then absorb t ~alpha:t.config.alpha ~node:v ~value:(s.(v) /. w.(v))
      done;
      (* rounds = 0: exchanges piggyback on the protocol's own batch
         delivery, so they cost wire traffic but no extra rounds. *)
      (Phase.report_of_metrics (Sync.metrics eng) 0, rounds)
    end
  in
  t.exchanges <- t.exchanges + 1;
  let est_milli =
    match estimate t ~node:anchor with
    | Some e -> int_of_float (Float.round (e *. 1000.0))
    | None -> -1
  in
  Trace.gossip_round trace ~exchange:(t.exchanges - 1) ~rounds:engine_rounds
    ~messages:report.Phase.messages ~est_milli;
  Phase.trace_phase_end trace span "gossip" report;
  report
