(* The digest-gated regression grid (EXPERIMENTS.md §S2): one JSON row per
   cell in BENCH_grid.jsonl, re-run and compared by --compare.

     --record          run the whole grid (backend × n × Λ) and rewrite
                       BENCH_grid.jsonl with one row per cell — events/sec,
                       minor words/op, peak heap words, run digest.  The
                       grid ends with the streamed large-n cells (mode
                       "stream": skeap at n = 4096, 16384, 65536 with 2²⁰
                       ops each) — generated on demand, digested and checked
                       online, never materialized; they run last, ascending
                       in n, because Gc top_heap_words is process-global and
                       monotonic.
       --faults SPEC   run the grid over the faulty network (e.g.
                       "drop=0.1,dup=0.05"); the spec is stored per row and
                       replayed by --compare.
     --record-open     append only the open-loop cells (mode "open": burst /
                       diurnal arrivals x fixed windows + the adaptive
                       gossip-fed controller, EXPERIMENTS.md §S6) to an
                       existing BENCH_grid.jsonl; every pre-existing row is
                       left byte-for-byte untouched.  --record includes the
                       same cells when rewriting the whole grid.  Takes
                       --faults like --record.
     --compare         re-run every cell recorded in BENCH_grid.jsonl and
                       fail (exit 1) if any digest changed, throughput
                       regressed more than --tolerance (default 0.4), a
                       stream cell's peak heap exceeded the recorded value
                       by more than --heap-tolerance (default 0.5, i.e. a
                       1.5x ceiling), or messages_per_op grew past the
                       recorded value by more than --msg-tolerance (default
                       0.25) — the message gate is what pins stream cells,
                       whose oplog-only digests cannot see wire traffic.
       --max-n N       skip cells with n > N (CI smoke caps at 4096 to
                       bound wall-clock).
       --domains N     re-run every cell on N OCaml domains instead of the
                       recorded value; digests must still match bit-for-bit
                       — the cross-domain-count identity gate (DESIGN.md
                       §9).  The recorded grid itself also carries explicit
                       domains=4 stream cells whose digests equal their
                       domains=1 twins.
       --out FILE      also write the freshly measured rows to FILE (CI
                       uploads them as an artifact).

   The mode flag comes first.  Without one, or with a malformed value,
   bench prints a message and exits 2. *)

module Rng = Dpq_util.Rng
module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Batch_ctl = Dpq_gossip.Batch_ctl
module Fault_plan = Dpq_simrt.Fault_plan
module Heap = Dpq.Dpq_heap
module Run_digest = Dpq_explore.Run_digest

let grid_file = "BENCH_grid.jsonl"
let faults_seed = 271828

(* The smoke grid. *)
let grid =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun n -> List.map (fun lambda -> (backend, n, lambda)) [ 2; 4 ])
        [ 16; 32 ])
    [ Dpq_types.Types.Skeap { num_prios = 4 }; Dpq_types.Types.Seap ]

(* The scale-frontier cells (EXPERIMENTS.md §S3): one streamed pass each,
   2²⁰ operations, generated on demand and checked online.  Kept in
   ascending n and always run AFTER the eager grid: Gc top_heap_words is
   process-global and monotonic, so each cell's reading is only meaningful
   if nothing larger ran before it. *)
let stream_grid =
  (* domains > 1 cells sit next to their domains = 1 twin at the same n so
     the ascending-n ordering (and thus the top_heap_words reading) holds;
     their digests must equal the twin's bit-for-bit.  The seap cells are
     2^18 ops each (vs skeap's 2^20): a Seap round costs a KSelect run plus
     two DHT storms, so op-for-op parity would put minutes-long cells into
     the smoke gate for no added coverage. *)
  let skeap = Dpq_types.Types.Skeap { num_prios = 4 } in
  [
    (skeap, 4096, 1, 256, 1);
    (skeap, 4096, 1, 256, 4);
    (Dpq_types.Types.Seap, 4096, 1, 64, 1);
    (skeap, 16384, 1, 64, 1);
    (Dpq_types.Types.Seap, 16384, 1, 16, 1);
    (skeap, 65536, 1, 16, 1);
    (skeap, 65536, 1, 16, 4);
  ]

let cell_workload ?(wl_rounds = 4) ~n ~lambda () =
  W.generate ~rng:(Rng.create ~seed:3) ~n ~rounds:wl_rounds ~lambda ~prio:(W.Constant_set 4) ()

let stream_spec ~n ~lambda ~wl_rounds =
  W.Gen.
    {
      n;
      rounds = wl_rounds;
      lambda;
      insert_ratio = 0.5;
      dist = W.Constant_set 4;
      seed = 3;
      arrival = W.Closed;
    }

(* The open-loop frontier cells (EXPERIMENTS.md §S6): skeap under burst and
   diurnal arrivals at every fixed window plus the adaptive controller, and
   one seap adaptive cell — these are the digest-gated raw rows behind the
   adaptive-vs-fixed latency/throughput table.  Each tuple is
   (backend, n, ticks, arrival spec, window spec) where the window spec is
   either "fixed:W" or a Batch_ctl spec ("on", "on:...").  *)
let open_grid =
  let burst = "burst:5:15:3:0.2" and diurnal = "diurnal:32:3:0.3" in
  let windows = [ "fixed:1"; "fixed:4"; "fixed:16"; "fixed:32"; "on" ] in
  List.concat_map
    (fun arrival ->
      List.map
        (fun w -> (Dpq_types.Types.Skeap { num_prios = 4 }, 16, 192, arrival, w))
        windows)
    [ burst; diurnal ]
  @ [ (Dpq_types.Types.Seap, 16, 192, burst, "on") ]

type cell_stats = {
  c_backend : string;
  c_n : int;
  c_lambda : int;
  c_mode : string; (* "eager" | "stream" | "open" *)
  c_wl_rounds : int; (* injection rounds of the cell's workload *)
  c_domains : int; (* OCaml domains the cell ran on (1 = sequential) *)
  c_faults : string; (* fault-plan spec, "" when fault-free *)
  c_ops : int;
  c_rounds : int;
  c_messages : int;
  c_total_bits : int;
  c_wall : float; (* best of the timed repetitions, protocol only *)
  c_eps : float; (* delivered messages ("events") per second *)
  c_minor_words_per_op : float;
  c_peak_heap_words : int; (* max top_heap_words over all domains after the run *)
  c_peak_live : int; (* online checker's live-element high-water mark; 0 for eager *)
  c_digest : string;
  c_ok : bool;
  (* open-loop cells only (zero / "" elsewhere) *)
  c_arrival : string; (* arrival-process spec *)
  c_window : string; (* "fixed:W" or a Batch_ctl spec *)
  c_p50 : int;
  c_p99 : int;
  c_p999 : int;
  c_makespan : int;
  c_ops_per_tick : float;
}

let fault_plan faults_spec =
  if faults_spec = "" then None else Some (Fault_plan.of_string ~seed:faults_seed faults_spec)

(* One full workload pass through the facade: inject each round, process,
   accumulate cost counters.  This is Runner.run minus the online checker,
   and it stays a hand-rolled loop on purpose: the eager cells' recorded
   events/sec time protocol work only, so moving them onto Runner would
   shift every recorded eager throughput. *)
let drive ?trace ?faults ?domains ~backend ~n wl =
  let h = Heap.create ~seed:1 ?domains ?trace ?faults ~n backend in
  let rounds = ref 0 and messages = ref 0 and total_bits = ref 0 in
  List.iter
    (fun round ->
      List.iter
        (fun (op : W.op) ->
          match op.W.action with
          | `Ins p -> ignore (Heap.insert h ~node:op.W.node ~prio:p)
          | `Del -> Heap.delete_min h ~node:op.W.node)
        round;
      let r = Heap.process h in
      rounds := !rounds + r.Heap.rounds;
      messages := !messages + r.Heap.messages;
      total_bits := !total_bits + r.Heap.total_bits)
    wl;
  (h, !rounds, !messages, !total_bits)

(* Run [f] once, returning its result, wall seconds and minor words. *)
let measure f =
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (x, wall, Gc.minor_words () -. m0)

(* The row of a single-pass Runner cell (stream or open): costs and the
   checker verdict straight from the summary. *)
let summary_row ~mode ~lambda ~wl_rounds ~domains ~faults_spec ~wall ~minor ~digest
    (s : R.summary) =
  {
    c_backend = R.protocol_name s;
    c_n = s.R.n;
    c_lambda = lambda;
    c_mode = mode;
    c_wl_rounds = wl_rounds;
    c_domains = domains;
    c_faults = faults_spec;
    c_ops = s.R.ops;
    c_rounds = s.R.rounds;
    c_messages = s.R.messages;
    c_total_bits = s.R.total_bits;
    c_wall = wall;
    c_eps = (if wall > 0.0 then float_of_int s.R.messages /. wall else 0.0);
    c_minor_words_per_op = minor /. float_of_int (max 1 s.R.ops);
    (* max over every domain's major heap, not just the coordinator's: a
       worker ballooning its own heap must not slip past the gate *)
    c_peak_heap_words = Dpq_simrt.Domain_pool.peak_heap_words ();
    c_peak_live = s.R.peak_live;
    c_digest = digest;
    c_ok = s.R.semantics_ok;
    c_arrival = "";
    c_window = "";
    c_p50 = 0;
    c_p99 = 0;
    c_p999 = 0;
    c_makespan = 0;
    c_ops_per_tick = 0.0;
  }

(* A streamed cell: Runner pulls rounds from the generator on demand and
   hands every drained batch to the incremental digest and the online
   checker — nothing O(total ops) is ever held, which is what makes the
   n=65536 cell fit in one process.  A single timed pass: at 2²⁰ ops per
   cell the run is long enough that warmup and repetition buy nothing, and
   the eager grid already ran. *)
let run_stream_cell ?(faults_spec = "") ?(domains = 1) (backend, n, lambda, wl_rounds) =
  let spec = stream_spec ~n ~lambda ~wl_rounds in
  let faults = fault_plan faults_spec in
  let acc = Run_digest.start () in
  let s, wall, minor =
    measure (fun () ->
        R.run_gen ~seed:1 ?faults ~domains ~sink:(Run_digest.feed_records acc) ~n backend
          (W.Gen.create spec))
  in
  summary_row ~mode:"stream" ~lambda ~wl_rounds ~domains ~faults_spec ~wall ~minor
    ~digest:(Run_digest.finish acc) s

let parse_window window_s =
  if String.length window_s > 6 && String.sub window_s 0 6 = "fixed:" then
    match int_of_string_opt (String.sub window_s 6 (String.length window_s - 6)) with
    | Some w when w >= 1 -> R.Fixed w
    | _ -> failwith (Printf.sprintf "bench: bad window spec %S" window_s)
  else
    match Batch_ctl.spec_of_string window_s with
    | Ok (Batch_ctl.On c) -> R.Adaptive c
    | Ok Batch_ctl.Off | Error _ -> failwith (Printf.sprintf "bench: bad window spec %S" window_s)

(* One open-loop pass: the generator's tick stream against a batch window,
   oplog records digested incrementally through the sink, latency
   percentiles straight from the summary.  Single timed pass like the
   stream cells — the digest, not the clock, is the hard gate here. *)
let run_open_cell ?(faults_spec = "") ?(domains = 1) (backend, n, ticks, arrival_s, window_s) =
  let arrival =
    match W.arrival_of_string arrival_s with Ok a -> a | Error e -> failwith ("bench: " ^ e)
  in
  let window = parse_window window_s in
  let spec =
    W.Gen.
      { n; rounds = ticks; lambda = 2; insert_ratio = 0.5; dist = W.Constant_set 4; seed = 3; arrival }
  in
  let faults = fault_plan faults_spec in
  let trace = Dpq_obs.Trace.create () in
  let acc = Run_digest.start () in
  let s, wall, minor =
    measure (fun () ->
        R.run_open ~seed:1 ?faults ~domains ~trace ~sink:(Run_digest.feed_records acc) ~window ~n
          backend (W.Gen.create spec))
  in
  {
    (summary_row ~mode:"open" ~lambda:spec.W.Gen.lambda ~wl_rounds:ticks ~domains ~faults_spec
       ~wall ~minor ~digest:(Run_digest.finish ~trace acc) s)
    with
    c_arrival = arrival_s;
    c_window = window_s;
    c_p50 = s.R.p50_latency;
    c_p99 = s.R.p99_latency;
    c_p999 = s.R.p999_latency;
    c_makespan = s.R.makespan;
    c_ops_per_tick = R.open_throughput s;
  }

let run_cell ?(faults_spec = "") ?(wl_rounds = 4) ?(domains = 1) (backend, n, lambda) =
  let wl = cell_workload ~wl_rounds ~n ~lambda () in
  let timed () =
    let faults = fault_plan faults_spec in
    let (_, _, messages, total_bits), wall, minor =
      measure (fun () -> drive ?faults ~domains ~backend ~n wl)
    in
    (wall, messages, total_bits, minor)
  in
  (* One untimed warmup settles caches, branch predictors and the GC
     before measurement; the min over five timed repetitions then estimates
     peak attainable throughput rather than scheduler luck. *)
  ignore (timed ());
  let wall, messages, total_bits, minor =
    List.fold_left
      (fun (w, _, _, mi) (w', m', b', mi') -> ((min w w' : float), m', b', min mi mi'))
      (infinity, 0, 0, infinity)
      (List.init 5 (fun _ -> timed ()))
  in
  (* A separate traced run pins the schedule identity: the digest must be
     bit-for-bit stable across any engine optimisation. *)
  let trace = Dpq_obs.Trace.create () in
  let h, rounds, messages', total_bits' =
    drive ~trace ?faults:(fault_plan faults_spec) ~domains ~backend ~n wl
  in
  assert (messages' = messages && total_bits' = total_bits);
  let ops = W.total_ops wl in
  {
    c_backend = Dpq_types.Types.backend_name backend;
    c_n = n;
    c_lambda = lambda;
    c_mode = "eager";
    c_wl_rounds = wl_rounds;
    c_domains = domains;
    c_faults = faults_spec;
    c_ops = ops;
    c_rounds = rounds;
    c_messages = messages;
    c_total_bits = total_bits;
    c_wall = wall;
    c_eps = (if wall > 0.0 then float_of_int messages /. wall else 0.0);
    c_minor_words_per_op = minor /. float_of_int (max 1 ops);
    c_peak_heap_words = Dpq_simrt.Domain_pool.peak_heap_words ();
    c_peak_live = 0;
    c_digest = Run_digest.of_run ~oplog:(Heap.oplog h) ~trace;
    c_ok = Heap.verify h = Ok ();
    c_arrival = "";
    c_window = "";
    c_p50 = 0;
    c_p99 = 0;
    c_p999 = 0;
    c_makespan = 0;
    c_ops_per_tick = 0.0;
  }

let messages_per_op c = float_of_int c.c_messages /. float_of_int (max 1 c.c_ops)

let row_to_json c =
  (* Open-loop fields are emitted only for open cells; messages_per_op is
     derived (messages / ops) but recorded explicitly so the gate and any
     external tooling read the same number the gate enforces. *)
  let open_fields =
    if c.c_mode <> "open" then ""
    else
      Printf.sprintf
        ", \"arrival\": %S, \"window\": %S, \"p50_latency\": %d, \"p99_latency\": %d, \
         \"p999_latency\": %d, \"makespan\": %d, \"ops_per_tick\": %.4f"
        c.c_arrival c.c_window c.c_p50 c.c_p99 c.c_p999 c.c_makespan c.c_ops_per_tick
  in
  Printf.sprintf
    "{\"backend\": %S, \"n\": %d, \"lambda\": %d, \"mode\": %S, \"wl_rounds\": %d, \"domains\": %d, \
     \"faults\": %S, \"ops\": %d, \"rounds\": %d, \"messages\": %d, \"messages_per_op\": %.2f, \
     \"total_bits\": %d, \
     \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, \"minor_words_per_op\": %.1f, \
     \"peak_heap_words\": %d, \"peak_live\": %d%s, \"digest\": %S, \"semantics_ok\": %b}"
    c.c_backend c.c_n c.c_lambda c.c_mode c.c_wl_rounds c.c_domains c.c_faults c.c_ops c.c_rounds
    c.c_messages (messages_per_op c) c.c_total_bits c.c_wall c.c_eps c.c_minor_words_per_op
    c.c_peak_heap_words c.c_peak_live open_fields c.c_digest c.c_ok

(* Minimal flat-JSON-object reader — just enough for our own rows (string /
   number / bool values, no nesting, no escapes), so the gate needs no JSON
   dependency. *)
let parse_flat_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "bench: bad JSON row (%s) at %d: %s" msg !pos s) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let string_lit () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' do
      incr pos
    done;
    let v = String.sub s start (!pos - start) in
    expect '"';
    v
  in
  let scalar () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with ',' | '}' | ' ' | '\t' | '\n' | '\r' -> false | _ -> true) do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if !pos < n && s.[!pos] = '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      skip_ws ();
      let k = string_lit () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v = if !pos < n && s.[!pos] = '"' then string_lit () else scalar () in
      fields := (k, v) :: !fields;
      skip_ws ();
      if !pos < n && s.[!pos] = ',' then incr pos else (expect '}'; continue := false)
    done
  end;
  List.rev !fields

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> failwith (Printf.sprintf "bench: baseline row missing field %S" k)

let backend_of_name = function
  | "skeap" -> Dpq_types.Types.Skeap { num_prios = 4 }
  | "seap" -> Dpq_types.Types.Seap
  | "centralized" -> Dpq_types.Types.Centralized
  | "unbatched" -> Dpq_types.Types.Unbatched { num_prios = 4 }
  | s -> failwith (Printf.sprintf "bench: unknown backend %S in baseline" s)

(* A short untimed spin before the first measured cell: in a cold process
   the first cell otherwise absorbs CPU frequency ramp-up and code-page
   faults, which read as noise on its events/sec — it was reliably the
   worst-measuring cell of the grid. *)
let spinup () =
  let wl = cell_workload ~n:16 ~lambda:2 () in
  for _ = 1 to 3 do
    ignore (drive ~backend:(Dpq_types.Types.Skeap { num_prios = 4 }) ~n:16 wl)
  done

let pp_row c =
  Printf.printf "%-12s n=%-5d lambda=%-2d %-6s%s %9d msgs %9.4fs %8.2fM ev/s %8.1f w/op%s ok=%b\n%!"
    c.c_backend c.c_n c.c_lambda c.c_mode
    (if c.c_domains > 1 then Printf.sprintf " d=%d" c.c_domains else "")
    c.c_messages c.c_wall (c.c_eps /. 1e6) c.c_minor_words_per_op
    (match c.c_mode with
    | "stream" -> Printf.sprintf " live<=%d" c.c_peak_live
    | "open" ->
        Printf.sprintf " %s w=%s p99=%d tp=%.2f" c.c_arrival c.c_window c.c_p99 c.c_ops_per_tick
    | _ -> "")
    c.c_ok

let run_all f cells =
  List.map
    (fun cell ->
      let c = f cell in
      pp_row c;
      c)
    cells

let write_rows ?(append = false) file rows =
  let oc =
    if append then open_out_gen [ Open_append; Open_wronly ] 0o644 file else open_out file
  in
  List.iter (fun c -> output_string oc (row_to_json c ^ "\n")) rows;
  close_out oc

let record_grid ?faults_spec () =
  spinup ();
  (* Sequential lets, not one [@] chain: OCaml leaves the evaluation order
     of operands unspecified, and the cells must run in this order. *)
  let eager = run_all (run_cell ?faults_spec) grid in
  (* Open-loop cells next: still small (n = 16), so they cannot disturb the
     stream cells' ascending top_heap_words readings. *)
  let open_rows = run_all (run_open_cell ?faults_spec) open_grid in
  (* Stream cells last, ascending n (see the comment on [stream_grid]). *)
  let stream =
    run_all
      (fun (backend, n, lambda, wl_rounds, domains) ->
        run_stream_cell ?faults_spec ~domains (backend, n, lambda, wl_rounds))
      stream_grid
  in
  let rows = eager @ open_rows @ stream in
  write_rows grid_file rows;
  Printf.printf "wrote %s (%d cells)\n" grid_file (List.length rows)

(* Append ONLY the open-loop cells to an existing grid: every pre-existing
   row (and its digest) is preserved byte-for-byte, which is the
   --adaptive off compatibility invariant. *)
let record_open ?faults_spec () =
  if not (Sys.file_exists grid_file) then begin
    Printf.eprintf "bench --record-open: no %s baseline; run `bench -- --record` first\n" grid_file;
    exit 2
  end;
  spinup ();
  let rows = run_all (run_open_cell ?faults_spec) open_grid in
  write_rows ~append:true grid_file rows;
  Printf.printf "appended %d open-loop cells to %s\n" (List.length rows) grid_file

let read_lines file =
  let ic = open_in file in
  let rec go acc = match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let compare_grid ~tolerance ~heap_tolerance ~msg_tolerance ~max_n ~domains_override ~out () =
  if not (Sys.file_exists grid_file) then begin
    Printf.eprintf "bench --compare: no %s baseline; run `bench -- --record` first\n" grid_file;
    exit 2
  end;
  let baselines = List.map parse_flat_json (read_lines grid_file) in
  spinup ();
  let failures = ref 0 and skipped = ref 0 in
  let current =
    List.filter_map
      (fun base ->
        let backend = backend_of_name (field base "backend") in
        let n = int_of_string (field base "n") in
        let lambda = int_of_string (field base "lambda") in
        (* Pre-streaming baselines carry neither field: those rows are all
           eager 4-round cells. *)
        let mode = match List.assoc_opt "mode" base with Some m -> m | None -> "eager" in
        let wl_rounds =
          match List.assoc_opt "wl_rounds" base with Some r -> int_of_string r | None -> 4
        in
        (* Pre-parallelism baselines carry no domains field: all sequential.
           --domains overrides every cell — digests must still match, which
           is exactly the cross-domain-count identity check CI leans on. *)
        let recorded_domains =
          match List.assoc_opt "domains" base with Some d -> int_of_string d | None -> 1
        in
        let domains = Option.value domains_override ~default:recorded_domains in
        (* A cell re-run on a different domain count than its baseline is a
           different configuration: its digest, heap ceiling and semantics
           still gate, but its wall clock does not — on few-core hosts the
           barrier overhead would fail every cell for a reason the gate is
           not about. *)
        let same_config = domains = recorded_domains in
        let faults_spec = field base "faults" in
        if n > max_n then begin
          incr skipped;
          Printf.printf "skip %-12s n=%-5d lambda=%-2d %-6s (over --max-n %d)\n%!"
            (field base "backend") n lambda mode max_n;
          None
        end
        else begin
          let c =
            if mode = "stream" then
              run_stream_cell ~faults_spec ~domains (backend, n, lambda, wl_rounds)
            else if mode = "open" then
              run_open_cell ~faults_spec ~domains
                (backend, n, wl_rounds, field base "arrival", field base "window")
            else run_cell ~faults_spec ~wl_rounds ~domains (backend, n, lambda)
          in
          let base_eps = float_of_string (field base "events_per_sec") in
          let base_digest = field base "digest" in
          let ratio = if base_eps > 0.0 then c.c_eps /. base_eps else infinity in
          let digest_ok = String.equal base_digest c.c_digest in
          (* Open-loop cells are single ~tens-of-ms passes recorded without
             warmup or repetition: their wall clock is scheduler noise, so
             they gate on digest and semantics only. *)
          let eps_ok = (not same_config) || mode = "open" || ratio >= 1.0 -. tolerance in
          (* The memory half of the gate, stream cells only: eager cells are
             too small for top_heap_words to move, and a streamed run whose
             peak heap grows past the ceiling has lost its O(live) bound. *)
          let heap_ok, heap_note =
            match (mode, List.assoc_opt "peak_heap_words" base) with
            | "stream", Some w ->
                let base_heap = int_of_string w in
                let ceiling =
                  int_of_float (float_of_int base_heap *. (1.0 +. heap_tolerance))
                in
                ( c.c_peak_heap_words <= ceiling,
                  Printf.sprintf "  heap %dw (ceiling %dw)" c.c_peak_heap_words ceiling )
            | _ -> (true, "")
          in
          (* The message-count half of the gate.  Eager and open cells pin
             their message schedule through the digest already; stream
             digests are oplog-only, so without this gate a message-count
             regression there would ride through unnoticed.  Old baselines
             lack the explicit field but always carried messages and ops,
             so the ratio is derivable for every row ever recorded. *)
          let msg_ok, msg_note =
            let base_mpo =
              match List.assoc_opt "messages_per_op" base with
              | Some v -> float_of_string v
              | None ->
                  float_of_string (field base "messages")
                  /. float_of_int (max 1 (int_of_string (field base "ops")))
            in
            if base_mpo <= 0.0 then (true, "")
            else
              let cur = messages_per_op c in
              let ceiling = base_mpo *. (1.0 +. msg_tolerance) in
              ( cur <= ceiling,
                Printf.sprintf "  %.1f msg/op (ceiling %.1f)" cur ceiling )
          in
          if not (digest_ok && eps_ok && heap_ok && msg_ok && c.c_ok) then incr failures;
          Printf.printf
            "%-4s %-12s n=%-5d lambda=%-2d %-6s%s %8.2fM ev/s vs %8.2fM baseline (%.2fx)  digest %s%s%s%s\n%!"
            (if digest_ok && eps_ok && heap_ok && msg_ok && c.c_ok then "ok" else "FAIL")
            c.c_backend c.c_n c.c_lambda c.c_mode
            (if c.c_domains > 1 then Printf.sprintf " d=%d" c.c_domains else "")
            (c.c_eps /. 1e6) (base_eps /. 1e6) ratio
            (if digest_ok then "unchanged"
             else Printf.sprintf "CHANGED (%s -> %s)" base_digest c.c_digest)
            (if heap_ok then heap_note else heap_note ^ "  peak heap OVER CEILING")
            (if msg_ok then msg_note else msg_note ^ "  messages OVER CEILING")
            (if c.c_ok then "" else "  semantics BROKEN");
          Some c
        end)
      baselines
  in
  (match out with
  | None -> ()
  | Some file ->
      write_rows file current;
      Printf.printf "wrote %s (%d cells)\n" file (List.length current));
  if !failures > 0 then begin
    Printf.printf "bench --compare: %d of %d cells FAILED (tolerance %.0f%%)\n" !failures
      (List.length current) (tolerance *. 100.0);
    exit 1
  end
  else
    Printf.printf
      "bench --compare: all %d cells within tolerance (%.0f%%), digests bit-identical%s\n"
      (List.length current) (tolerance *. 100.0)
      (if !skipped > 0 then Printf.sprintf " (%d skipped over --max-n)" !skipped else "")

let usage =
  "usage: bench --record [--faults SPEC]\n\
  \       bench --record-open [--faults SPEC]\n\
  \       bench --compare [--tolerance F] [--heap-tolerance F] [--msg-tolerance F]\n\
  \                       [--max-n N] [--domains N] [--out FILE]\n"

(* Each mode and the value flags it takes. *)
let modes =
  [
    ("--record", [ "--faults" ]);
    ("--record-open", [ "--faults" ]);
    ( "--compare",
      [ "--tolerance"; "--heap-tolerance"; "--msg-tolerance"; "--max-n"; "--domains"; "--out" ] );
  ]

let usage_error msg =
  Printf.eprintf "bench: %s\n%s" msg usage;
  exit 2

(* The mode and its (flag, value) pairs; a flag the mode does not take is
   a usage error. *)
let parse_args = function
  | mode :: rest when List.mem_assoc mode modes ->
      let takes = List.assoc mode modes in
      let rec go acc = function
        | [] -> (mode, acc)
        | flag :: value :: rest when List.mem flag takes -> go ((flag, value) :: acc) rest
        | [ flag ] when List.mem flag takes -> usage_error (flag ^ " needs a value")
        | arg :: _ -> usage_error (Printf.sprintf "%s does not take %S" mode arg)
      in
      go [] rest
  | [] -> usage_error "no mode given"
  | arg :: _ -> usage_error (Printf.sprintf "unknown mode %S" arg)

(* The value of [flag], or [default] when absent; a value [parse] rejects
   exits 2 naming the flag and what it expects. *)
let flag_value flags flag ~expects ~default parse =
  match List.assoc_opt flag flags with
  | None -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
          Printf.eprintf "bench: %s expects %s, got %S\n" flag expects v;
          exit 2)

let non_negative_float v =
  match float_of_string_opt v with Some f when f >= 0.0 -> Some f | _ -> None

let positive_int v = match int_of_string_opt v with Some i when i >= 1 -> Some i | _ -> None

let () =
  let mode, flags = parse_args (List.tl (Array.to_list Sys.argv)) in
  let tolerance flag ~default =
    flag_value flags flag ~expects:"a number >= 0" ~default non_negative_float
  in
  (* Validate the spec before spending any benchmark time on it. *)
  let faults_spec =
    flag_value flags "--faults" ~expects:"a fault-plan spec such as drop=0.1,dup=0.05"
      ~default:None (fun s ->
        match Fault_plan.of_string ~seed:0 s with
        | (_ : Fault_plan.t) -> Some (Some s)
        | exception Invalid_argument _ -> None)
  in
  match mode with
  | "--record" -> record_grid ?faults_spec ()
  | "--record-open" -> record_open ?faults_spec ()
  | _ ->
      compare_grid
        ~tolerance:(tolerance "--tolerance" ~default:0.4)
        ~heap_tolerance:(tolerance "--heap-tolerance" ~default:0.5)
        ~msg_tolerance:(tolerance "--msg-tolerance" ~default:0.25)
        ~max_n:(flag_value flags "--max-n" ~expects:"a positive integer" ~default:max_int positive_int)
        ~domains_override:
          (flag_value flags "--domains" ~expects:"a positive integer" ~default:None (fun v ->
               Option.map Option.some (positive_int v)))
        ~out:(List.assoc_opt "--out" flags) ()
