(* The dpq_sim, experiments and bench command lines, driven as
   subprocesses. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let exe dir name = Filename.concat (Filename.concat Filename.parent_dir_name dir) name
let sim_exe = exe "bin" "dpq_sim.exe"
let experiments_exe = exe "bin" "experiments.exe"
let bench_exe = exe "bench" "main.exe"
let profile_exe = exe "bench" "profile.exe"

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
      (* a window on a missing node once ran silently with no crash at all *)
      ([ "--nodes"; "32"; "--faults"; "crash=99@1-2" ], "dpq_sim: --faults crashes node 99 ");
      ([ "--nodes"; "32"; "--crash"; "99@1-2" ], "dpq_sim: --crash crashes node 99 ");
      (* --crash once had its own parser, and an empty window escaped it as
         an uncaught exception (exit 125) *)
      ([ "--crash"; "1@5-2" ], "dpq_sim: --crash: ");
      ([ "--crash"; "1@2-3,drop=0.5" ], "dpq_sim: --crash: ");
      (* the node's sign was once read as the window's '-' *)
      ( [ "--crash=-1@2-3" ],
        "dpq_sim: --crash: Fault_plan.of_string: \"crash=-1@2-3\" (Fault_plan: crash window \
         names a negative node)" );
      ([ "--faults"; "garbage" ], "dpq_sim: --faults");
      (* NaN once passed the range check: the run went ahead fault-free *)
      ([ "--faults"; "drop=nan" ], "dpq_sim: --faults: ");
      (* an infinite rate once overflowed the stack sizing the first round *)
      ([ "--arrival"; "poisson:inf"; "--window"; "4" ], "dpq_sim: --arrival: ");
      ([ "--arrival"; "poisson:1e400"; "--window"; "4" ], "dpq_sim: --arrival: ");
      (* NaN once passed the controller's range checks *)
      ([ "--adaptive"; "on:1:256:nan:0.25" ], "dpq_sim: --adaptive: ");
      ([ "--adaptive"; "on:1:256:0.8:nan" ], "dpq_sim: --adaptive: ");
    ];
  (* A repro whose workload the backend cannot run: an out-of-range
     priority once died with an uncaught Invalid_argument (exit 125), and a
     node id >= nodes once ran silently with its ops dropped. *)
  List.iter
    (fun (backend, round, prefix) ->
      let file = Filename.temp_file "dpq-cli" ".repro" in
      Out_channel.with_open_bin file (fun oc ->
          Printf.fprintf oc
            "dpq-repro v1\nseed 1\nnodes 2\nbackend %s\nengine sync\nsched fifo\nfaults none\n\
             corrupt none\nexpect-clause none\nexpect-digest 0\nworkload\n%s\n"
            backend round);
      let what = Printf.sprintf "--replay of backend %s, round %s" backend round in
      let code, out, err = run_sim [ "--replay"; file ] in
      Sys.remove file;
      checki (what ^ ": exit code") 1 code;
      checkb (what ^ ": no run") true (out = "");
      check_one_line_error ~what ~prefix err)
    [
      ("seap", "0:I-3", "replay: Explore: line 12: priority -3 outside the backend's range");
      ("skeap:4", "0:I9", "replay: Explore: line 12: priority 9 outside the backend's range");
      ("skeap:4", "5:I2", "replay: Explore: line 12: node 5 but nodes is 2");
      ( "seap",
        "gen: n=2 rounds=1 lambda=1 ratio=0.5 dist=uniform:-5:5 seed=3",
        "replay: Explore: line 12: the gen: distribution can draw priority -5 outside" );
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

(* The profiler checks its arguments before it runs anything. *)
let test_profile_rejects_bad_values () =
  List.iter
    (fun (args, prefix) ->
      let what = String.concat " " args in
      let code, out, err = run_exe profile_exe args in
      checki (what ^ ": exit code") 2 code;
      checkb (what ^ ": nothing profiled") true (out = "");
      checkb (Printf.sprintf "%s: message %S starts with %S" what err prefix) true
        (String.starts_with ~prefix err))
    [
      ([], "profile: --workload is required");
      ([ "--workload"; "nope" ], "profile: unknown workload \"nope\" (known: skeap-closed, ");
      ([ "--workload"; "skeap-faults"; "--seconds"; "0" ], "profile: --seconds expects a positive integer");
      ([ "--workload"; "skeap-faults"; "--seed"; "x" ], "profile: --seed expects an integer");
      ([ "--workload"; "skeap-faults"; "--seed" ], "profile: unknown or incomplete argument \"--seed\"");
      ([ "--workload"; "skeap-faults"; "--hz"; "100" ], "profile: unknown or incomplete argument \"--hz\"");
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

(* An unknown --only id fails the whole run, naming it and the known ids,
   instead of running the known ones and dropping the rest. *)
let test_experiments_unknown_only () =
  let code, out, err = run_exe experiments_exe [ "--only"; "t10,bogus" ] in
  checki "exit code" 1 code;
  checkb "no table runs" true (out = "");
  check_one_line_error ~what:"--only t10,bogus" ~prefix:"experiments: unknown --only id(s) \"bogus\"" err;
  checkb (Printf.sprintf "lists the known ids in %S" err) true (contains err "known: t1, t2,")

(* The experiments' bodies, keyed by id: the lines after each "### ID"
   header, minus the timing lines. *)
let experiment_sections out =
  let sections = Hashtbl.create 32 and current = ref None in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"### " line then begin
        let id = List.nth (String.split_on_char ' ' line) 1 in
        current := Some id;
        Hashtbl.replace sections id []
      end
      else
        match !current with
        | Some id when not (String.starts_with ~prefix:"[" line) ->
            Hashtbl.replace sections id (line :: Hashtbl.find sections id)
        | _ -> ())
    (String.split_on_char '\n' out);
  sections

(* --seed moves every seeded table; the two exact figure reproductions do
   not depend on it. *)
let test_experiments_seed_moves_tables () =
  let seeded = [ "T1"; "T2"; "T3"; "T4"; "T5"; "T7"; "T8"; "T9"; "T11"; "A1"; "A2"; "F2"; "F3" ] in
  let run seed =
    let only = String.concat "," (List.map String.lowercase_ascii (seeded @ [ "Fig1"; "Fig2" ])) in
    let code, out, err = run_exe experiments_exe [ "--only"; only; "--seed"; seed ] in
    checki (Printf.sprintf "--seed %s exit code (stderr: %s)" seed err) 0 code;
    experiment_sections out
  in
  let a = run "1" and b = run "2" in
  let body s id =
    match Hashtbl.find_opt s id with Some lines -> lines | None -> Alcotest.failf "%s missing" id
  in
  List.iter (fun id -> checkb (id ^ " differs between seeds 1 and 2") true (body a id <> body b id)) seeded;
  List.iter (fun id -> checkb (id ^ " is seed-independent") true (body a id = body b id)) [ "Fig1"; "Fig2" ]

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
          Alcotest.test_case "profile exits 2 naming the flag" `Quick
            test_profile_rejects_bad_values;
        ] );
      ("help", [ Alcotest.test_case "experiments --help renders" `Quick test_experiments_help ]);
      ( "exp flags",
        [
          Alcotest.test_case "--only rejects unknown ids" `Quick test_experiments_unknown_only;
          Alcotest.test_case "--seed moves every seeded table" `Quick
            test_experiments_seed_moves_tables;
        ] );
    ]
