(* The dpq_sim, experiments and bench command lines, driven as
   subprocesses. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let exe dir name = Filename.concat (Filename.concat Filename.parent_dir_name dir) name
let sim_exe = exe "bin" "dpq_sim.exe"
let experiments_exe = exe "bin" "experiments.exe"
let bench_exe = exe "bench" "main.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [prog] with [args]; returns (exit code, stdout, stderr). *)
let run_exe prog args =
  let out = Filename.temp_file "dpq-cli" ".out" and err = Filename.temp_file "dpq-cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (prog :: args))
    ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote err
  in
  let code = Sys.command cmd in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let run_sim = run_exe sim_exe

let small_run = [ "--protocol"; "seap"; "--nodes"; "4"; "--rounds"; "1" ]

(* A path inside a directory that does not exist. *)
let missing_dir_path () =
  let dir = Filename.temp_file "dpq-cli" ".d" in
  Sys.remove dir;
  (dir, Filename.concat dir "run.trace.jsonl")

let test_trace_in_missing_directory () =
  let dir, path = missing_dir_path () in
  let code, out, err = run_sim (small_run @ [ "--trace"; path ]) in
  checki "exit code" 1 code;
  checkb "names the problem" true (String.starts_with ~prefix:"dpq_sim: cannot write trace " err);
  checkb "fails before the run (no summary printed)" true (out = "");
  checkb "nothing created" false (Sys.file_exists dir)

let test_experiments_trace_in_missing_directory () =
  let dir, path = missing_dir_path () in
  let code, out, err = run_exe experiments_exe [ "--only"; "t6"; "--trace"; path ] in
  checki "exit code" 1 code;
  checkb "names the problem" true
    (String.starts_with ~prefix:"experiments: cannot write trace " err);
  checkb "fails before any table runs" true (out = "");
  checkb "nothing created" false (Sys.file_exists dir)

(* One line on stderr, starting with [prefix]. *)
let check_one_line_error ~what ~prefix err =
  checkb (Printf.sprintf "%s: message %S starts with %S" what err prefix) true
    (String.starts_with ~prefix err);
  checki (what ^ ": one line") 1
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err)))

(* Out-of-range values the library would reject mid-run: each must fail
   before the run, exit 1, and name its flag. *)
let test_sim_rejects_bad_values () =
  List.iter
    (fun (args, prefix) ->
      let what = String.concat " " args in
      let code, out, err = run_sim ("--rounds" :: "1" :: args) in
      checki (what ^ ": exit code") 1 code;
      checkb (what ^ ": no run") true (out = "");
      check_one_line_error ~what ~prefix err)
    [
      ([ "--drop"; "2" ], "dpq_sim: --drop ");
      ([ "--dup=-0.5" ], "dpq_sim: --dup ");
      (* 1.5 once ran as all inserts, and NaN as all deletes *)
      ([ "--insert-ratio"; "1.5" ], "dpq_sim: --insert-ratio must be in [0,1], got 1.5");
      ([ "--insert-ratio"; "nan" ], "dpq_sim: --insert-ratio must be in [0,1], got nan");
      ([ "--insert-ratio=-0.1" ], "dpq_sim: --insert-ratio ");
      ([ "--nodes"; "0" ], "dpq_sim: --nodes ");
      ([ "--replication"; "0" ], "dpq_sim: --replication ");
      ([ "--prios"; "0" ], "dpq_sim: --prios ");
      ([ "--nodes"; "32"; "--faults"; "kill=99@5" ], "dpq_sim: --faults kills node 99 ");
      ([ "--faults"; "garbage" ], "dpq_sim: --faults");
      (* NaN once passed the range check: the run went ahead fault-free *)
      ([ "--faults"; "drop=nan" ], "dpq_sim: --faults: ");
      (* an infinite rate once overflowed the stack sizing the first round *)
      ([ "--arrival"; "poisson:inf"; "--window"; "4" ], "dpq_sim: --arrival: ");
      ([ "--arrival"; "poisson:1e400"; "--window"; "4" ], "dpq_sim: --arrival: ");
      (* NaN once passed the controller's range checks *)
      ([ "--adaptive"; "on:1:256:nan:0.25" ], "dpq_sim: --adaptive: ");
      ([ "--adaptive"; "on:1:256:0.8:nan" ], "dpq_sim: --adaptive: ");
    ]

(* Malformed grid flags exit 2 naming the flag, before any cell runs. *)
let test_bench_rejects_bad_values () =
  List.iter
    (fun (args, prefix) ->
      let what = String.concat " " args in
      let code, out, err = run_exe bench_exe args in
      checki (what ^ ": exit code") 2 code;
      checkb (what ^ ": no cell run") true (out = "");
      checkb (Printf.sprintf "%s: message %S starts with %S" what err prefix) true
        (String.starts_with ~prefix err))
    [
      ([ "--compare"; "--tolerance"; "abc" ], "bench: --tolerance expects a number >= 0, got \"abc\"");
      ([ "--compare"; "--heap-tolerance"; "x" ], "bench: --heap-tolerance expects ");
      (* messages, bits and rounds are gated exactly: there is no tolerance knob *)
      ([ "--compare"; "--msg-tolerance"; "0.25" ], "bench: --compare does not take \"--msg-tolerance\"");
      ([ "--compare"; "--max-n"; "x" ], "bench: --max-n expects a positive integer, got \"x\"");
      ([ "--record"; "--faults"; "garbage" ], "bench: --faults expects ");
      ([ "--record"; "--faults"; "drop=2" ], "bench: --faults expects ");
      ([ "--compare"; "--faults"; "drop=0.1" ], "bench: --compare does not take \"--faults\"");
      ([ "--compare"; "--max-n" ], "bench: --max-n needs a value");
      ([], "bench: no mode given");
      ([ "--trace"; "t.jsonl" ], "bench: unknown mode \"--trace\"");
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The domain-parallel engine and its --domains flag are gone: passing the
   flag is a usage error, not a silently ignored option. *)
let test_domains_flag_rejected () =
  List.iter
    (fun (prog, args, usage) ->
      let what = String.concat " " (Filename.basename prog :: args) in
      let code, out, err = run_exe prog args in
      checkb (Printf.sprintf "%s: non-zero exit (got %d)" what code) true (code <> 0);
      checkb (what ^ ": no run") true (out = "");
      checkb (Printf.sprintf "%s: names the flag in %S" what err) true (contains err "--domains");
      checkb (Printf.sprintf "%s: usage message in %S" what err) true (contains err usage))
    [
      (sim_exe, [ "--rounds"; "1"; "--domains"; "2" ], "Usage: dpq_sim");
      (sim_exe, [ "explore"; "--seeds"; "1"; "--domains"; "2" ], "Usage: dpq_sim explore");
      (bench_exe, [ "--compare"; "--domains"; "2" ], "usage: bench");
    ]

let test_trace_written () =
  let path = Filename.temp_file "dpq-cli" ".trace.jsonl" in
  let code, _, err = run_sim (small_run @ [ "--trace"; path ]) in
  let trace = read_file path in
  Sys.remove path;
  checki (Printf.sprintf "exit code (stderr: %s)" err) 0 code;
  checkb "trace written" true (String.starts_with ~prefix:"{\"ev\":" trace)

(* The --faults doc shows its example verbatim; a stray escape in the doc
   string makes cmdliner print an error and drop the '@'. *)
let test_experiments_help () =
  let code, out, err = run_exe experiments_exe [ "--help=plain" ] in
  checki "exit code" 0 code;
  checkb "example rendered" true (contains out "crash=3@100-200");
  checkb "no cmdliner error" false (contains (out ^ err) "cmdliner error")

let () =
  Alcotest.run "dpq_cli"
    [
      ( "trace",
        [
          Alcotest.test_case "path in a missing directory" `Quick test_trace_in_missing_directory;
          Alcotest.test_case "path written after the run" `Quick test_trace_written;
          Alcotest.test_case "experiments: path in a missing directory" `Quick
            test_experiments_trace_in_missing_directory;
        ] );
      ( "bad values",
        [
          Alcotest.test_case "dpq_sim exits 1 naming the flag" `Quick test_sim_rejects_bad_values;
          Alcotest.test_case "bench exits 2 naming the flag" `Quick test_bench_rejects_bad_values;
          Alcotest.test_case "--domains is a usage error" `Quick test_domains_flag_rejected;
        ] );
      ("help", [ Alcotest.test_case "experiments --help renders" `Quick test_experiments_help ]);
    ]
