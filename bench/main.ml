(* The digest-gated regression grid (EXPERIMENTS.md §S2): one JSON row per
   cell in BENCH_grid.jsonl, re-run and compared by --compare.

     --record          run the whole grid and rewrite BENCH_grid.jsonl with
                       one row per cell — events/sec, minor words/op, peak
                       heap words, run digest.  Every cell runs a
                       Workload.Gen spec through Runner: the small closed-
                       loop cells (mode "eager", backend × n × Λ), the
                       open-loop cells (mode "open": burst / diurnal
                       arrivals x fixed windows + the adaptive gossip-fed
                       controller, EXPERIMENTS.md §S6), and last the
                       streamed large-n cells (mode "stream": skeap and
                       seap at n = 4096, 16384, 65536, with 2²⁰ ops per
                       skeap cell and 2¹⁸ per seap cell), ascending in
                       n, because Gc top_heap_words is process-global and
                       monotonic.
       --faults SPEC   run the grid over the faulty network (e.g.
                       "drop=0.1,dup=0.05"); the spec is stored per row and
                       replayed by --compare.
     --compare         re-run every cell recorded in BENCH_grid.jsonl and
                       fail (exit 1) if any digest changed, throughput
                       regressed more than --tolerance (default 0.4), a
                       stream cell's peak heap exceeded the recorded value
                       by more than --heap-tolerance (default 0.5, i.e. a
                       1.5x ceiling), messages, total bits or rounds
                       differ at all from the recorded row — they repeat
                       exactly for a given binary, and they are what pins
                       stream cells, whose oplog-only digests cannot see
                       wire traffic — or minor words per op exceed the
                       recorded value by more than 5% (they too repeat
                       for a given binary; the margin absorbs compiler
                       versions).
       --max-n N       skip cells with n > N (CI smoke caps at 4096 to
                       bound wall-clock).
       --out FILE      also write the freshly measured rows to FILE (CI
                       uploads them as an artifact).

   The mode flag comes first.  Without one, or with a malformed value,
   bench prints a message and exits 2. *)

module W = Dpq_workloads.Workload
module R = Dpq_workloads.Runner
module Batch_ctl = Dpq_gossip.Batch_ctl
module Fault_plan = Dpq_simrt.Fault_plan
module Run_digest = Dpq_explore.Run_digest

let grid_file = "BENCH_grid.jsonl"
let faults_seed = 271828

(* The smoke grid: (backend, n, lambda, workload rounds). *)
let grid =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun n -> List.map (fun lambda -> (backend, n, lambda, 4)) [ 2; 4 ])
        [ 16; 32 ])
    [ Dpq_types.Types.Skeap { num_prios = 4 }; Dpq_types.Types.Seap ]

(* The scale-frontier cells (EXPERIMENTS.md §S3): one streamed pass each,
   2²⁰ operations, generated on demand and checked online.  Kept in
   ascending n and always run AFTER the eager grid: Gc top_heap_words is
   process-global and monotonic, so each cell's reading is only meaningful
   if nothing larger ran before it. *)
let stream_grid =
  (* The seap cells are 2^18 ops each (vs skeap's 2^20): a Seap round
     costs a KSelect run plus two DHT storms, so op-for-op parity would put
     minutes-long cells into the smoke gate for no added coverage. *)
  let skeap = Dpq_types.Types.Skeap { num_prios = 4 } in
  [
    (skeap, 4096, 1, 256);
    (Dpq_types.Types.Seap, 4096, 1, 64);
    (skeap, 16384, 1, 64);
    (Dpq_types.Types.Seap, 16384, 1, 16);
    (skeap, 65536, 1, 16);
    (Dpq_types.Types.Seap, 65536, 1, 4);
  ]

let cell_spec ~n ~lambda ~wl_rounds =
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
  c_faults : string; (* fault-plan spec, "" when fault-free *)
  c_ops : int;
  c_rounds : int;
  c_messages : int;
  c_total_bits : int;
  c_wall : float; (* the timed pass; eager cells: the fastest of five *)
  c_eps : float; (* delivered messages ("events") per second *)
  c_minor_words_per_op : float;
  c_peak_heap_words : int; (* process top_heap_words after the run *)
  c_peak_live : int; (* online checker's live-element high-water mark *)
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

(* Run [f] once, returning its result, wall seconds and minor words. *)
let measure f =
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (x, wall, Gc.minor_words () -. m0)

(* The row of a single-pass Runner cell (stream or open): costs and the
   checker verdict straight from the summary. *)
let summary_row ~mode ~lambda ~wl_rounds ~faults_spec ~wall ~minor ~digest (s : R.summary) =
  {
    c_backend = R.protocol_name s;
    c_n = s.R.n;
    c_lambda = lambda;
    c_mode = mode;
    c_wl_rounds = wl_rounds;
    c_faults = faults_spec;
    c_ops = s.R.ops;
    c_rounds = s.R.rounds;
    c_messages = s.R.messages;
    c_total_bits = s.R.total_bits;
    c_wall = wall;
    c_eps = (if wall > 0.0 then float_of_int s.R.messages /. wall else 0.0);
    c_minor_words_per_op = minor /. float_of_int (max 1 s.R.ops);
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

(* A closed-loop cell: Runner pulls rounds from the generator on demand
   and hands every drained batch to the incremental digest and the online
   checker.  A stream cell never holds anything O(total ops), which is what
   makes the n=65536 cell fit in one process; it is one untraced timed pass,
   since at 2²⁰ ops warmup and repetition buy nothing.  An eager cell is
   small: it is traced, so its digest pins the message schedule as well as
   the oplog, and after one untimed warmup (caches, branch predictors, the
   GC) it keeps the fastest of five timed passes and their lowest minor
   words per op. *)
let run_closed_cell ~mode ?(faults_spec = "") (backend, n, lambda, wl_rounds) =
  let spec = cell_spec ~n ~lambda ~wl_rounds in
  let pass () =
    let trace = if mode = "eager" then Some (Dpq_obs.Trace.create ()) else None in
    let acc = Run_digest.start () in
    let s, wall, minor =
      measure (fun () ->
          R.run_gen ~seed:1 ?faults:(fault_plan faults_spec) ?trace
            ~sink:(Run_digest.feed_records acc) ~n backend (W.Gen.create spec))
    in
    summary_row ~mode ~lambda ~wl_rounds ~faults_spec ~wall ~minor
      ~digest:(Run_digest.finish ?trace acc) s
  in
  if mode = "stream" then pass ()
  else begin
    ignore (pass ());
    let passes = List.init 5 (fun _ -> pass ()) in
    let fastest =
      List.fold_left (fun a c -> if c.c_wall < a.c_wall then c else a) (List.hd passes) passes
    in
    let minor = List.fold_left (fun m c -> Float.min m c.c_minor_words_per_op) infinity passes in
    { fastest with c_minor_words_per_op = minor }
  end

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
let run_open_cell ?(faults_spec = "") (backend, n, ticks, arrival_s, window_s) =
  let arrival =
    match W.arrival_of_string arrival_s with Ok a -> a | Error e -> failwith ("bench: " ^ e)
  in
  let window = parse_window window_s in
  let spec = { (cell_spec ~n ~lambda:2 ~wl_rounds:ticks) with W.Gen.arrival } in
  let faults = fault_plan faults_spec in
  let trace = Dpq_obs.Trace.create () in
  let acc = Run_digest.start () in
  let s, wall, minor =
    measure (fun () ->
        R.run_open ~seed:1 ?faults ~trace ~sink:(Run_digest.feed_records acc) ~window ~n
          backend (W.Gen.create spec))
  in
  {
    (summary_row ~mode:"open" ~lambda:spec.W.Gen.lambda ~wl_rounds:ticks ~faults_spec ~wall
       ~minor ~digest:(Run_digest.finish ~trace acc) s)
    with
    c_arrival = arrival_s;
    c_window = window_s;
    c_p50 = s.R.p50_latency;
    c_p99 = s.R.p99_latency;
    c_p999 = s.R.p999_latency;
    c_makespan = s.R.makespan;
    c_ops_per_tick = R.open_throughput s;
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
    "{\"backend\": %S, \"n\": %d, \"lambda\": %d, \"mode\": %S, \"wl_rounds\": %d, \
     \"faults\": %S, \"ops\": %d, \"rounds\": %d, \"messages\": %d, \"messages_per_op\": %.2f, \
     \"total_bits\": %d, \
     \"wall_seconds\": %.6f, \"events_per_sec\": %.1f, \"minor_words_per_op\": %.1f, \
     \"peak_heap_words\": %d, \"peak_live\": %d%s, \"digest\": %S, \"semantics_ok\": %b}"
    c.c_backend c.c_n c.c_lambda c.c_mode c.c_wl_rounds c.c_faults c.c_ops c.c_rounds
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
let spinup () = ignore (run_closed_cell ~mode:"eager" (List.hd grid))

let pp_row c =
  Printf.printf "%-12s n=%-5d lambda=%-2d %-6s %9d msgs %9.4fs %8.2fM ev/s %8.1f w/op%s ok=%b\n%!"
    c.c_backend c.c_n c.c_lambda c.c_mode c.c_messages c.c_wall (c.c_eps /. 1e6)
    c.c_minor_words_per_op
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

let write_rows file rows =
  let oc = open_out file in
  List.iter (fun c -> output_string oc (row_to_json c ^ "\n")) rows;
  close_out oc

let record_grid ?faults_spec () =
  spinup ();
  (* Sequential lets, not one [@] chain: OCaml leaves the evaluation order
     of operands unspecified, and the cells must run in this order. *)
  let eager = run_all (run_closed_cell ~mode:"eager" ?faults_spec) grid in
  (* Open-loop cells next: still small (n = 16), so they cannot disturb the
     stream cells' ascending top_heap_words readings. *)
  let open_rows = run_all (run_open_cell ?faults_spec) open_grid in
  (* Stream cells last, ascending n (see the comment on [stream_grid]). *)
  let stream = run_all (run_closed_cell ~mode:"stream" ?faults_spec) stream_grid in
  let rows = eager @ open_rows @ stream in
  write_rows grid_file rows;
  Printf.printf "wrote %s (%d cells)\n" grid_file (List.length rows)

let read_lines file =
  let ic = open_in file in
  let rec go acc = match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

(* How far above its recorded row a cell's minor words per op may go. *)
let minor_words_slack = 0.05

let compare_grid ~tolerance ~heap_tolerance ~max_n ~out () =
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
        let mode = field base "mode" in
        let wl_rounds = int_of_string (field base "wl_rounds") in
        (* Old rows' "domains" field (always 1 now) is ignored. *)
        let faults_spec = field base "faults" in
        if n > max_n then begin
          incr skipped;
          Printf.printf "skip %-12s n=%-5d lambda=%-2d %-6s (over --max-n %d)\n%!"
            (field base "backend") n lambda mode max_n;
          None
        end
        else begin
          let c =
            match mode with
            | "open" ->
                run_open_cell ~faults_spec
                  (backend, n, wl_rounds, field base "arrival", field base "window")
            | "eager" | "stream" -> run_closed_cell ~mode ~faults_spec (backend, n, lambda, wl_rounds)
            | m -> failwith (Printf.sprintf "bench: unknown mode %S in baseline" m)
          in
          let base_eps = float_of_string (field base "events_per_sec") in
          let base_digest = field base "digest" in
          let ratio = if base_eps > 0.0 then c.c_eps /. base_eps else infinity in
          let digest_ok = String.equal base_digest c.c_digest in
          (* Open-loop cells are single ~tens-of-ms passes recorded without
             warmup or repetition: their wall clock is scheduler noise, so
             they gate on digest and semantics only. *)
          let eps_ok = mode = "open" || ratio >= 1.0 -. tolerance in
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
          (* The cost half of the gate: messages, total bits and rounds are
             deterministic, so they must equal the recorded row.  Eager and
             open cells pin their message schedule through the digest too;
             stream digests are oplog-only, so without this gate a cost
             change there would ride through unnoticed. *)
          let costs_ok, costs_note =
            let base_counts =
              ( int_of_string (field base "messages"),
                int_of_string (field base "total_bits"),
                int_of_string (field base "rounds") )
            in
            let counts = (c.c_messages, c.c_total_bits, c.c_rounds) in
            let show (m, b, r) = Printf.sprintf "%d msgs / %d bits / %d rounds" m b r in
            ( base_counts = counts,
              Printf.sprintf "  %s (recorded %s)" (show counts) (show base_counts) )
          in
          (* The allocation half: minor words repeat for a given binary
             too, so a cell may allocate at most [minor_words_slack] more
             per op than its recorded row. *)
          let words_ok, words_note =
            let base_words = float_of_string (field base "minor_words_per_op") in
            let ceiling = base_words *. (1.0 +. minor_words_slack) in
            ( c.c_minor_words_per_op <= ceiling,
              Printf.sprintf "  %.1f minor words/op (ceiling %.1f)" c.c_minor_words_per_op ceiling )
          in
          let ok = digest_ok && eps_ok && heap_ok && costs_ok && words_ok && c.c_ok in
          if not ok then incr failures;
          Printf.printf
            "%-4s %-12s n=%-5d lambda=%-2d %-6s %8.2fM ev/s vs %8.2fM baseline (%.2fx)  digest %s%s%s%s%s\n%!"
            (if ok then "ok" else "FAIL")
            c.c_backend c.c_n c.c_lambda c.c_mode (c.c_eps /. 1e6) (base_eps /. 1e6) ratio
            (if digest_ok then "unchanged"
             else Printf.sprintf "CHANGED (%s -> %s)" base_digest c.c_digest)
            (if heap_ok then heap_note else heap_note ^ "  peak heap OVER CEILING")
            (if costs_ok then "" else costs_note ^ "  COSTS DIFFER")
            (if words_ok then "" else words_note ^ "  ALLOCATION GREW")
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
      "bench --compare: all %d cells within tolerance (%.0f%%), digests bit-identical, \
       messages/bits/rounds exact, minor words within %.0f%%%s\n"
      (List.length current) (tolerance *. 100.0) (minor_words_slack *. 100.0)
      (if !skipped > 0 then Printf.sprintf " (%d skipped over --max-n)" !skipped else "")

let usage =
  "usage: bench --record [--faults SPEC]\n\
  \       bench --compare [--tolerance F] [--heap-tolerance F] [--max-n N] [--out FILE]\n"

(* Each mode and the value flags it takes. *)
let modes =
  [
    ("--record", [ "--faults" ]);
    ("--compare", [ "--tolerance"; "--heap-tolerance"; "--max-n"; "--out" ]);
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
  | _ ->
      compare_grid
        ~tolerance:(tolerance "--tolerance" ~default:0.4)
        ~heap_tolerance:(tolerance "--heap-tolerance" ~default:0.5)
        ~max_n:(flag_value flags "--max-n" ~expects:"a positive integer" ~default:max_int positive_int)
        ~out:(List.assoc_opt "--out" flags) ()
