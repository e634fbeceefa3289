(* The dpq_sim command line, driven as a subprocess. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "dpq_sim.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run dpq_sim with [args]; returns (exit code, stdout, stderr). *)
let run_sim args =
  let out = Filename.temp_file "dpq-cli" ".out" and err = Filename.temp_file "dpq-cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (exe :: args))
    ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote err
  in
  let code = Sys.command cmd in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let small_run = [ "--protocol"; "seap"; "--nodes"; "4"; "--rounds"; "1" ]

let test_trace_in_missing_directory () =
  let dir = Filename.temp_file "dpq-cli" ".d" in
  Sys.remove dir;
  let path = Filename.concat dir "run.trace.jsonl" in
  let code, out, err = run_sim (small_run @ [ "--trace"; path ]) in
  checki "exit code" 1 code;
  checkb "names the problem" true (String.starts_with ~prefix:"dpq_sim: cannot write trace " err);
  checkb "fails before the run (no summary printed)" true (out = "");
  checkb "nothing created" false (Sys.file_exists dir)

let test_trace_written () =
  let path = Filename.temp_file "dpq-cli" ".trace.jsonl" in
  let code, _, err = run_sim (small_run @ [ "--trace"; path ]) in
  let trace = read_file path in
  Sys.remove path;
  checki (Printf.sprintf "exit code (stderr: %s)" err) 0 code;
  checkb "trace written" true (String.starts_with ~prefix:"{\"ev\":" trace)

let () =
  Alcotest.run "dpq_cli"
    [
      ( "trace",
        [
          Alcotest.test_case "path in a missing directory" `Quick test_trace_in_missing_directory;
          Alcotest.test_case "path written after the run" `Quick test_trace_written;
        ] );
    ]
