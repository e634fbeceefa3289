(* A sampling profiler for one perfbench workload:

     dune exec bench/profile.exe -- --workload skeap-faults --seconds 10

   Runs whole instances of the workload (through the perfbench library,
   exactly as perfbench/main.exe runs them, after the same warm-up) for
   about --seconds of wall time, with a CPU-time interval timer (SIGPROF)
   set to fire every millisecond.  Each signal records the OCaml call
   stack (Printexc.get_callstack); at the end the samples are folded into
   each function's self share (the function was on top of the stack) and
   inclusive share (it was anywhere on the stack, once per sample), and
   the same per module, [top] rows of each.  --seed moves the workload
   generator (default 3), as in perfbench.

   Bias.  OCaml runs a signal handler only at a poll point: an
   allocation, a function prologue or a loop back-edge.  A sample is
   therefore charged to the innermost frame that reaches a poll point
   after the timer fired: a callee that neither allocates nor loops nor
   calls (a short leaf, or code the compiler inlined) is charged to its
   caller, and time in C (the GC, blits, Printf's C primitives) to the
   OCaml frame that entered it.  Stacks deeper than [depth] frames lose
   their outermost frames, which then under-count inclusively.  Read the
   shares as "where the interrupted OCaml code was", at the resolution
   of a poll point.  The timer cannot fire faster than the kernel's
   tick, so the rate actually reached can be well below 1000 per second
   (about 245 on a 2-core Linux host); the first line of the output
   gives the number of samples taken. *)

open Perfbench

let usage = "usage: profile.exe --workload NAME [--seed N] [--seconds S]"
let hz = 1000
let top = 25
let depth = 256

let fail_usage msg =
  prerr_endline ("profile: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : Drive.workload; seconds : float }

let parse_args argv =
  let name = ref None and seed = ref 3 and seconds = ref 10 in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        name := Some v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := s
        | None -> fail_usage (Printf.sprintf "--seed expects an integer, got %S" v));
        go rest
    | "--seconds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 1 -> seconds := s
        | _ -> fail_usage (Printf.sprintf "--seconds expects a positive integer, got %S" v));
        go rest
    | flag :: _ -> fail_usage (Printf.sprintf "unknown or incomplete argument %S" flag)
  in
  go argv;
  match !name with
  | None -> fail_usage "--workload is required"
  | Some name -> (
      match Drive.find name with
      | None ->
          fail_usage
            (Printf.sprintf "unknown workload %S (known: %s)" name
               (String.concat ", " (List.map (fun w -> w.Drive.name) Drive.workloads)))
      | Some w -> { workload = Drive.with_seed !seed w; seconds = float_of_int !seconds })

(* "Dpq_simrt__Reliable.scan_packet" -> "Reliable.scan_packet": the
   library prefix dune adds says nothing the module name does not. *)
let short name =
  let stop = Option.value ~default:(String.length name) (String.index_opt name '.') in
  (* the last "__" before the first dot *)
  let rec sep i =
    if i < 1 then None else if name.[i] = '_' && name.[i - 1] = '_' then Some i else sep (i - 1)
  in
  match sep (stop - 1) with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let frame_names raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match Printexc.Slot.name slot with
             | Some n -> Some (short n)
             | None -> (
                 match Printexc.Slot.location slot with
                 | Some l -> Some (Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number)
                 | None -> None))

let module_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* This file's frames (the handler on top, the loop at the bottom) are
   not the workload's. *)
let own name = module_of name = "Profile"

type tally = { self : (string, int) Hashtbl.t; incl : (string, int) Hashtbl.t }

let tally () = { self = Hashtbl.create 256; incl = Hashtbl.create 256 }
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let add t stack =
  match stack with
  | [] -> ()
  | top :: _ ->
      bump t.self top;
      List.iter (bump t.incl) (List.sort_uniq String.compare stack)

let print_table ~title ~samples t =
  Printf.printf "\n%s (%d samples)\n%7s %7s  %s\n" title samples "self%" "incl%" "name";
  let pct v = 100.0 *. float_of_int v /. float_of_int (max 1 samples) in
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.incl []
    |> List.map (fun (k, incl) -> (k, Option.value ~default:0 (Hashtbl.find_opt t.self k), incl))
    |> List.sort (fun (k1, s1, i1) (k2, s2, i2) -> compare (s2, i2, k1) (s1, i1, k2))
  in
  List.iteri
    (fun i (k, self, incl) ->
      if i < top then Printf.printf "%6.1f%% %6.1f%%  %s\n" (pct self) (pct incl) k)
    rows

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let w = args.workload in
  for _ = 1 to 3 do
    ignore (Drive.run (Drive.shrink w))
  done;
  let samples = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := Printexc.get_callstack depth :: !samples));
  let period = 1.0 /. float_of_int hz in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period });
  let t0 = Unix.gettimeofday () in
  let instances = ref 0 in
  while !instances = 0 || Unix.gettimeofday () -. t0 < args.seconds do
    ignore (Drive.run w);
    incr instances
  done;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let by_fun = tally () and by_module = tally () in
  let n = ref 0 in
  List.iter
    (fun raw ->
      match List.filter (fun f -> not (own f)) (frame_names raw) with
      | [] -> ()
      | stack ->
          incr n;
          add by_fun stack;
          add by_module (List.map module_of stack))
    !samples;
  Printf.printf "workload %s: %d instances in %.1f s, %d samples (timer every %g ms)\n"
    w.Drive.name !instances wall !n (1000.0 /. float_of_int hz);
  print_table ~title:"by module" ~samples:!n by_module;
  print_table ~title:"by function" ~samples:!n by_fun
