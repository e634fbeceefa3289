module Rng = Dpq_util.Rng
module Types = Dpq_types.Types
module Sched = Dpq_simrt.Sched
module Async = Dpq_simrt.Async_engine
module Fault_plan = Dpq_simrt.Fault_plan
module Trace = Dpq_obs.Trace
module Oplog = Dpq_semantics.Oplog
module Checker = Dpq_semantics.Checker
module Workload = Dpq_workloads.Workload
module Runner = Dpq_workloads.Runner
module Batch_ctl = Dpq_gossip.Batch_ctl

type engine = Sync | Async of Async.delay_policy

type config = {
  seed : int;
  backend : Types.backend;
  n : int;
  replication : int;
  engine : engine;
  sched : Sched.policy;
  faults : string option;
  corrupt : Corrupt.t option;
  adaptive : Batch_ctl.spec;
  workload : Workload.t;
  gen : Workload.Gen.spec option;
}

type outcome = { digest : string; violation : Checker.violation option; ops : int }

(* Independent named streams off the master seed: the workload draw, the
   fault draw and the async delay draw never share randomness, so shrinking
   one axis (say, dropping the fault plan) cannot silently reshuffle
   another. *)
let sub_seed seed name = Rng.bits (Rng.named ~seed name)

let run cfg =
  (match (cfg.backend, cfg.engine) with
  | (Types.Centralized | Types.Unbatched _), Async _ ->
      invalid_arg "Explore.run: baselines have no asynchronous DHT phase"
  | _ -> ());
  let trace = Trace.create () in
  let faults =
    Option.map (fun spec -> Fault_plan.of_string ~seed:(sub_seed cfg.seed "fault") spec) cfg.faults
  in
  let sched =
    match cfg.sched with Sched.Fifo -> None | p -> Some (Sched.create ~seed:cfg.seed p)
  in
  let dht_mode =
    match cfg.engine with
    | Sync -> Types.Dht_sync
    | Async policy -> Types.Dht_async { seed = sub_seed cfg.seed "delay"; policy }
  in
  (* Both drivers hand every drained batch to [sink]; the log is rebuilt
     from the chunks so [Corrupt] can rewrite the whole run before the check. *)
  let chunks = ref [] in
  let sink records = chunks := List.rev_append records !chunks in
  let (_ : Runner.summary) =
    match cfg.adaptive with
    | Batch_ctl.Off ->
        Runner.run ~seed:cfg.seed ~replication:cfg.replication ~trace ?faults ?sched ~dht_mode ~sink
          ~n:cfg.n cfg.backend cfg.workload
    | Batch_ctl.On ctl ->
        (* Adaptive runs are open-loop: the gossip-fed controller needs the
           tick stream, so only generator-spec workloads qualify (a
           materialized round dump has no arrival process attached). *)
        let spec =
          match cfg.gen with
          | Some spec -> spec
          | None -> invalid_arg "Explore.run: adaptive configs need a generator-spec workload"
        in
        Runner.run_open ~seed:cfg.seed ~replication:cfg.replication ~trace ?faults ?sched ~dht_mode
          ~sink ~window:(Runner.Adaptive ctl) ~n:cfg.n cfg.backend (Workload.Gen.create spec)
  in
  let log = Oplog.of_list (List.rev !chunks) in
  let log = match cfg.corrupt with None -> log | Some c -> Corrupt.apply c log in
  let violation =
    match Checker.explain (Dpq.Dpq_heap.contract ~sched:cfg.sched cfg.backend) log with
    | Ok () -> None
    | Error v -> Some v
  in
  { digest = Run_digest.of_run ~oplog:log ~trace; violation; ops = Oplog.length log }

(* ---------------------------------------------------------------- sweep *)

type combo = {
  backend : Types.backend;
  engine : engine;
  faults : string option;
  replication : int;
  adaptive : Batch_ctl.spec;
  n_override : int option;
}

let num_prios = 4
let drop_dup_spec = "drop=0.2,dup=0.05"
let kill_spec = "kill=1@8"

let default_combos =
  let backends =
    [ Types.Skeap { num_prios }; Types.Seap; Types.Centralized; Types.Unbatched { num_prios } ]
  in
  let engines = [ Sync; Async (Async.Uniform (1.0, 10.0)) ] in
  let faultss = [ None; Some drop_dup_spec ] in
  let base =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun engine ->
            match (backend, engine) with
            | (Types.Centralized | Types.Unbatched _), Async _ -> []
            | _ ->
                List.map
                  (fun faults ->
                    {
                      backend;
                      engine;
                      faults;
                      replication = 1;
                      adaptive = Batch_ctl.Off;
                      n_override = None;
                    })
                  faultss)
          engines)
      backends
  in
  (* Replicated permanent-loss cells: a kill mid-run with k = 3 must leave
     the verdict as clean as the fault-free cells (the loss is <= k - 1
     replicas of every key). *)
  let killed =
    List.concat_map
      (fun backend ->
        List.map
          (fun faults ->
            {
              backend;
              engine = Sync;
              faults = Some faults;
              replication = 3;
              adaptive = Batch_ctl.Off;
              n_override = None;
            })
          [ kill_spec; drop_dup_spec ^ "," ^ kill_spec ])
      [ Types.Skeap { num_prios }; Types.Seap ]
  in
  (* Adaptive open-loop cells: the gossip-fed batch controller under bursty
     arrivals, clean and under drop+dup, for both gossip-capable backends.
     Semantics must hold batch-for-batch no matter how the window moves. *)
  let adaptive =
    List.concat_map
      (fun backend ->
        List.map
          (fun faults ->
            {
              backend;
              engine = Sync;
              faults;
              replication = 1;
              adaptive = Batch_ctl.On Batch_ctl.default_config;
              n_override = None;
            })
          [ None; Some drop_dup_spec ])
      [ Types.Skeap { num_prios }; Types.Seap ]
  in
  (* Large-n Seap cells: the aggregated KSelect path only differs from the
     pairwise one in routing volume, so the sweep must exercise it where the
     comparison-vector batching actually multiplexes (n >> the default 6).
     Fault-free and sync — the point is arbitrary-priority semantics at
     scale, not fault interleavings (those are covered at small n above). *)
  let seap_large =
    List.map
      (fun n ->
        {
          backend = Types.Seap;
          engine = Sync;
          faults = None;
          replication = 1;
          adaptive = Batch_ctl.Off;
          n_override = Some n;
        })
      [ 128; 256 ]
  in
  base @ killed @ adaptive @ seap_large

let default_policies =
  [
    Sched.Fifo;
    Sched.Shuffle { burst = 4; starvation = 0.1 };
    Sched.Crossing_pairs;
    Sched.Channel_bias { src = None; dst = Some 0; factor = 4 };
  ]

let prio_for = function
  | Types.Skeap _ | Types.Unbatched _ -> Workload.Constant_set num_prios
  | Types.Seap | Types.Centralized -> Workload.Uniform (1, 50)

let gen_spec ~seed ~n ~rounds ~lambda backend =
  Workload.Gen.
    {
      n;
      rounds;
      lambda;
      insert_ratio = 0.5;
      dist = prio_for backend;
      seed;
      arrival = Workload.Closed;
    }

let gen_workload ~seed ~n ~rounds ~lambda backend =
  Workload.of_gen (gen_spec ~seed ~n ~rounds ~lambda backend)

let config_of_combo ?(n = 6) ?(rounds = 2) ?(lambda = 2) ~seed ~policy combo =
  let n = match combo.n_override with Some n' -> n' | None -> n in
  let spec = gen_spec ~seed ~n ~rounds ~lambda combo.backend in
  let spec =
    (* Adaptive cells drive the open loop under an on/off burst so the
       controller actually sees a load swing within the sweep's short runs. *)
    match combo.adaptive with
    | Batch_ctl.Off -> spec
    | Batch_ctl.On _ ->
        {
          spec with
          Workload.Gen.arrival =
            Workload.Burst { on = 3; off = 5; high = 2.0 *. float_of_int lambda; low = 0.25 };
        }
  in
  {
    seed;
    backend = combo.backend;
    n;
    replication = combo.replication;
    engine = combo.engine;
    sched = policy;
    faults = combo.faults;
    corrupt = None;
    adaptive = combo.adaptive;
    workload = Workload.of_gen spec;
    gen = Some spec;
  }

type failure = { config : config; violation : Checker.violation }
type sweep_result = { runs : int; failures : failure list; digest : string }

let sweep ?n ?rounds ?lambda ?(combos = default_combos) ?(policies = default_policies) ~seeds () =
  if combos = [] then invalid_arg "Explore.sweep: empty combo list";
  if policies = [] then invalid_arg "Explore.sweep: empty policy list";
  let ncombos = List.length combos and npolicies = List.length policies in
  let runs = ref 0 and failures = ref [] in
  let fp = Buffer.create 4096 in
  List.iteri
    (fun i seed ->
      (* Round-robin the grid over the seed list with coprime-ish strides so
         consecutive seeds hit different (combo, policy) cells. *)
      let combo = List.nth combos (i mod ncombos) in
      let policy = List.nth policies (i / ncombos mod npolicies) in
      let cfg = config_of_combo ?n ?rounds ?lambda ~seed ~policy combo in
      incr runs;
      let out = run cfg in
      Buffer.add_string fp
        (Printf.sprintf "%s %s %d\n" out.digest
           (match out.violation with
           | None -> "ok"
           | Some v -> Checker.clause_name v.Checker.clause)
           out.ops);
      match out.violation with
      | None -> ()
      | Some violation -> failures := { config = cfg; violation } :: !failures)
    seeds;
  {
    runs = !runs;
    failures = List.rev !failures;
    digest = Digest.to_hex (Digest.string (Buffer.contents fp));
  }

(* --------------------------------------------------------------- shrink *)

let violates_same clause cfg =
  match try Some (run cfg) with _ -> None with
  | Some { violation = Some v; _ } -> v.Checker.clause = clause
  | _ -> false

let shrink_candidates cfg =
  (* a shrunk workload is no longer the generator's output, so the spec
     provenance is dropped *)
  let with_workload w = { cfg with workload = w; gen = None } in
  (* an adaptive run consumes the generator spec's tick stream, so round-dump
     workload shrinks only apply once the controller has been shrunk away *)
  let workload_cands =
    if cfg.adaptive <> Batch_ctl.Off then []
    else List.map with_workload (Workload.shrink_candidates cfg.workload)
  in
  let adaptive_cands =
    if cfg.adaptive = Batch_ctl.Off then [] else [ { cfg with adaptive = Batch_ctl.Off } ]
  in
  let sched_cands = if cfg.sched = Sched.Fifo then [] else [ { cfg with sched = Sched.Fifo } ] in
  let fault_cands = if cfg.faults = None then [] else [ { cfg with faults = None } ] in
  let repl_cands = if cfg.replication = 1 then [] else [ { cfg with replication = 1 } ] in
  (* Axis simplifications first: they cut the most replay state at once. *)
  adaptive_cands @ sched_cands @ fault_cands @ repl_cands @ workload_cands

let shrink ?(max_attempts = 400) cfg clause =
  let attempts = ref 0 in
  let try_cand cand =
    if !attempts >= max_attempts then false
    else begin
      incr attempts;
      violates_same clause cand
    end
  in
  let rec descend cfg =
    match List.find_opt try_cand (shrink_candidates cfg) with
    | Some smaller -> descend smaller
    | None -> cfg
  in
  if not (violates_same clause cfg) then
    invalid_arg "Explore.shrink: configuration does not exhibit the violation";
  descend cfg

(* -------------------------------------------------------- repro files *)

let backend_to_string = function
  | Types.Skeap { num_prios } -> Printf.sprintf "skeap:%d" num_prios
  | Types.Seap -> "seap"
  | Types.Centralized -> "centralized"
  | Types.Unbatched { num_prios } -> Printf.sprintf "unbatched:%d" num_prios

let backend_of_string s =
  let fail () = Error (Printf.sprintf "Explore: bad backend %S" s) in
  match String.split_on_char ':' (String.trim s) with
  | [ "seap" ] -> Ok Types.Seap
  | [ "centralized" ] -> Ok Types.Centralized
  | [ "skeap"; c ] -> (
      match int_of_string_opt c with
      | Some num_prios when num_prios >= 1 -> Ok (Types.Skeap { num_prios })
      | _ -> fail ())
  | [ "unbatched"; c ] -> (
      match int_of_string_opt c with
      | Some num_prios when num_prios >= 1 -> Ok (Types.Unbatched { num_prios })
      | _ -> fail ())
  | _ -> fail ()

let engine_to_string = function
  | Sync -> "sync"
  | Async policy -> "async:" ^ Async.policy_to_string policy

let engine_of_string s =
  let s = String.trim s in
  if s = "sync" then Ok Sync
  else if String.length s > 6 && String.sub s 0 6 = "async:" then
    Result.map (fun p -> Async p)
      (Async.policy_of_string (String.sub s 6 (String.length s - 6)))
  else Error (Printf.sprintf "Explore: bad engine %S" s)

let all_clauses = Checker.[ Well_formedness; Local_consistency; Serializability ]

let clause_of_string s =
  let s = String.trim s in
  match List.find_opt (fun c -> Checker.clause_name c = s) all_clauses with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "Explore: unknown clause %S" s)

type expectation = { expect_clause : Checker.clause option; expect_digest : string }

let magic = "dpq-repro v1"

let repro_to_string cfg (o : outcome) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" magic;
  line "seed %d" cfg.seed;
  line "backend %s" (backend_to_string cfg.backend);
  line "nodes %d" cfg.n;
  line "replication %d" cfg.replication;
  line "engine %s" (engine_to_string cfg.engine);
  line "sched %s" (Sched.policy_to_string cfg.sched);
  line "faults %s" (match cfg.faults with None -> "none" | Some s -> s);
  line "corrupt %s" (match cfg.corrupt with None -> "none" | Some c -> Corrupt.to_string c);
  (* only emitted when on: files written by non-adaptive runs stay
     byte-identical to the pre-gossip format *)
  (match cfg.adaptive with
  | Batch_ctl.Off -> ()
  | spec -> line "adaptive %s" (Batch_ctl.spec_to_string spec));
  line "expect-clause %s"
    (match o.violation with None -> "none" | Some v -> Checker.clause_name v.Checker.clause);
  line "expect-digest %s" o.digest;
  line "workload";
  (match cfg.gen with
  | Some spec -> line "gen: %s" (Workload.Gen.spec_to_string spec)
  | None -> List.iter (fun r -> line "%s" (Workload.round_to_string r)) cfg.workload);
  Buffer.contents buf

(* Every header key the v1 format has ever used.  The parser is strict:
   a key outside this list (or a line that isn't "key value") is a hard
   error with its line number, so a file from a *newer* format revision —
   say one with extra fields — fails loudly instead of silently dropping
   the lines this revision doesn't know about. *)
let known_keys =
  [
    "seed";
    "backend";
    "nodes";
    "replication";
    "domains";
    "engine";
    "sched";
    "faults";
    "corrupt";
    "adaptive";
    "expect-clause";
    "expect-digest";
  ]

let repro_of_string text =
  let ( let* ) = Result.bind in
  (* Keep 1-based source line numbers through the blank/comment filter so
     every rejection can point at the offending line. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let at ln = Result.map_error (fun e -> Printf.sprintf "Explore: line %d: %s" ln e) in
  match lines with
  | (_, m) :: rest when m = magic ->
      (* Header is a sequence of "key value" lines up to "workload";
         everything after is round lines. *)
      let rec split_header acc = function
        | (_, "workload") :: rounds -> Ok (List.rev acc, rounds)
        | (ln, kv) :: rest -> (
            match String.index_opt kv ' ' with
            | None -> fail "Explore: line %d: malformed repro line %S (want \"key value\")" ln kv
            | Some i ->
                let k = String.sub kv 0 i in
                let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                if not (List.mem k known_keys) then
                  fail "Explore: line %d: unknown repro key %S" ln k
                else if List.exists (fun (k', _) -> k' = k) acc then
                  fail "Explore: line %d: duplicate repro key %S" ln k
                else split_header ((k, (ln, v)) :: acc) rest)
        | [] -> fail "Explore: repro file has no workload section"
      in
      let* header, round_lines = split_header [] rest in
      let field k =
        match List.assoc_opt k header with
        | Some lv -> Ok lv
        | None -> fail "Explore: repro file missing %S" k
      in
      let int_field k =
        let* ln, v = field k in
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> fail "Explore: line %d: bad %s %S" ln k v
      in
      (* keys absent from files written before their feature existed parse
         to that feature's "off" value *)
      let opt_field k ~default parse =
        match List.assoc_opt k header with
        | None -> Ok default
        | Some (ln, v) -> at ln (parse v)
      in
      let pos_int_field k ~default =
        opt_field k ~default (fun v ->
            match int_of_string_opt v with
            | Some i when i >= 1 -> Ok i
            | _ -> fail "bad %s %S" k v)
      in
      let sub_parse k parse =
        let* ln, v = field k in
        at ln (parse v)
      in
      let* seed = int_field "seed" in
      let* n = int_field "nodes" in
      let* replication = pos_int_field "replication" ~default:1 in
      (* [domains] (the removed parallel engine's shard count) never
         affected a digest: still validated, otherwise ignored *)
      let* (_ : int) = pos_int_field "domains" ~default:1 in
      let* backend = sub_parse "backend" backend_of_string in
      let* engine = sub_parse "engine" engine_of_string in
      let* sched = sub_parse "sched" Sched.policy_of_string in
      let* faults =
        sub_parse "faults" (fun v ->
            if v = "none" then Ok None
            else begin
              (* Validate eagerly so a bad spec fails at parse, not
                 mid-replay. *)
              match Fault_plan.of_string ~seed:0 v with
              | (_ : Fault_plan.t) -> Ok (Some v)
              | exception Invalid_argument m -> Error m
            end)
      in
      let* corrupt =
        sub_parse "corrupt" (fun v ->
            if v = "none" then Ok None else Result.map Option.some (Corrupt.of_string v))
      in
      let* adaptive = opt_field "adaptive" ~default:Batch_ctl.Off Batch_ctl.spec_of_string in
      let* expect_clause =
        sub_parse "expect-clause" (fun v ->
            if v = "none" then Ok None else Result.map Option.some (clause_of_string v))
      in
      let* _, expect_digest = field "expect-digest" in
      let* workload, gen =
        (* Two forms, both accepted by Workload.of_string: a [gen:] line
           referencing a generator spec, or materialized round lines. *)
        match round_lines with
        | [ (ln, line) ] when String.length line > 4 && String.sub line 0 4 = "gen:" ->
            let* spec =
              at ln (Workload.Gen.spec_of_string (String.sub line 4 (String.length line - 4)))
            in
            Ok (Workload.of_gen spec, Some spec)
        | _ ->
            let* wl =
              List.fold_left
                (fun acc (ln, line) ->
                  let* acc = acc in
                  let* r = at ln (Workload.round_of_string line) in
                  Ok (r :: acc))
                (Ok []) round_lines
              |> Result.map List.rev
            in
            Ok (wl, None)
      in
      let* () =
        if adaptive <> Batch_ctl.Off && gen = None then
          fail "Explore: adaptive repro files need a gen: workload line"
        else Ok ()
      in
      Ok
        ( {
            seed;
            backend;
            n;
            replication;
            engine;
            sched;
            faults;
            corrupt;
            adaptive;
            workload;
            gen;
          },
          { expect_clause; expect_digest } )
  | _ -> fail "Explore: not a %s file" magic

let write_repro ~path cfg outcome =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (repro_to_string cfg outcome))

let read_repro path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> repro_of_string (In_channel.input_all ic))

type replay_report = {
  config : config;
  outcome : outcome;
  digest_matches : bool;
  clause_matches : bool;
}

let replay path =
  Result.map
    (fun (cfg, expect) ->
      let o = run cfg in
      {
        config = cfg;
        outcome = o;
        digest_matches = String.equal o.digest expect.expect_digest;
        clause_matches =
          (match (expect.expect_clause, o.violation) with
          | None, None -> true
          | Some c, Some v -> v.Checker.clause = c
          | _ -> false);
      })
    (read_repro path)
