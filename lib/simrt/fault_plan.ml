module Rng = Dpq_util.Rng
module Trace = Dpq_obs.Trace
module Itbl = Hashtbl.Make (Int)

type crash_window = { node : int; from_tick : int; until_tick : int }
type kill = { node : int; at_tick : int }

type stats = {
  mutable drops : int;
  mutable duplicates : int;
  mutable delay_spikes : int;
  mutable crash_drops : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable dups_suppressed : int;
  mutable dead_letters : int;
}

let empty_stats () =
  {
    drops = 0;
    duplicates = 0;
    delay_spikes = 0;
    crash_drops = 0;
    retransmits = 0;
    acks_sent = 0;
    dups_suppressed = 0;
    dead_letters = 0;
  }

type t = {
  drop : float;
  duplicate : float;
  delay_spike : float;
  delay_factor : float;
  crashes : crash_window list;
  kills : kill list;
  seed : int;
  (* Fault draws are pinned to message identity, not draw order: the k-th
     transmission on channel (src, dst) always sees the same randomness, no
     matter how deliveries interleave with other channels.  A shared
     sequential stream would make every fault decision depend on the global
     delivery order — poison for any engine optimisation that wants to
     reproduce a run bit-for-bit while processing it in a different
     internal order.  One counter per (channel, purpose). *)
  transmit_counts : int Itbl.t;
  delay_counts : int Itbl.t;
  stats : stats;
  mutable tick : int;
  (* nodes currently inside a crash window, for edge-triggered trace events *)
  down_now : (int, unit) Hashtbl.t;
  (* kills the host has acted on: state destroyed, node permanently dead *)
  killed : (int, unit) Hashtbl.t;
}

(* Written so that NaN fails too. *)
let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault_plan: %s probability %g outside [0,1]" name p)

let create ?(drop = 0.0) ?(duplicate = 0.0) ?(delay_spike = 0.0) ?(delay_factor = 8.0)
    ?(crashes = []) ?(kills = []) ~seed () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "delay_spike" delay_spike;
  if not (Float.is_finite delay_factor && delay_factor >= 1.0) then
    invalid_arg (Printf.sprintf "Fault_plan: delay_factor %g must be finite and >= 1" delay_factor);
  List.iter
    (fun (w : crash_window) ->
      if w.node < 0 then invalid_arg "Fault_plan: crash window names a negative node";
      if w.until_tick <= w.from_tick then
        invalid_arg "Fault_plan: crash window must satisfy from_tick < until_tick")
    crashes;
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (k : kill) ->
      if k.node < 0 then invalid_arg "Fault_plan: kill names a negative node";
      if k.at_tick < 0 then invalid_arg "Fault_plan: kill names a negative tick";
      if Hashtbl.mem seen k.node then
        invalid_arg (Printf.sprintf "Fault_plan: node %d is killed twice" k.node);
      Hashtbl.replace seen k.node ())
    kills;
  {
    drop;
    duplicate;
    delay_spike;
    delay_factor;
    crashes;
    kills;
    seed;
    transmit_counts = Itbl.create 64;
    delay_counts = Itbl.create 16;
    stats = empty_stats ();
    tick = 0;
    down_now = Hashtbl.create 4;
    killed = Hashtbl.create 4;
  }

let stats t = t.stats
let drop t = t.drop
let duplicate t = t.duplicate
let delay_spike t = t.delay_spike
let delay_factor t = t.delay_factor
let crash_windows t = t.crashes
let kills t = t.kills

(* A direct recursion rather than [List.exists]: the engines ask this on
   every delivery, and a closure over [node] would be allocated each time. *)
let rec in_window tick node = function
  | [] -> false
  | (w : crash_window) :: rest ->
      (w.node = node && w.from_tick <= tick && tick < w.until_tick) || in_window tick node rest

let is_killed t ~node = Hashtbl.mem t.killed node
let is_down t ~node = Hashtbl.mem t.killed node || in_window t.tick node t.crashes
let killed_count t = Hashtbl.length t.killed

(* Kills whose tick has arrived but which the host has not yet committed,
   in plan order (deterministic). *)
let pending_kills t =
  List.filter_map
    (fun (k : kill) ->
      if k.at_tick <= t.tick && not (Hashtbl.mem t.killed k.node) then Some k.node else None)
    t.kills

let commit_kill t trace ~node =
  if not (List.exists (fun (k : kill) -> k.node = node) t.kills) then
    invalid_arg (Printf.sprintf "Fault_plan.commit_kill: node %d has no scheduled kill" node);
  if not (Hashtbl.mem t.killed node) then begin
    Hashtbl.replace t.killed node ();
    Trace.node_crashed trace ~node ~kind:"killed" ~at:t.tick
  end

let crashed_nodes t =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (w : crash_window) -> if w.from_tick <= t.tick && t.tick < w.until_tick then Some w.node else None)
       t.crashes)

(* Advance the global fault clock one step and emit edge-triggered
   Node_crashed events for every window entered or left. *)
let tick t trace =
  t.tick <- t.tick + 1;
  if t.crashes <> [] then begin
    let now_down = crashed_nodes t in
    List.iter
      (fun node ->
        if not (Hashtbl.mem t.down_now node) then begin
          Hashtbl.replace t.down_now node ();
          Trace.node_crashed trace ~node ~kind:"down" ~at:t.tick
        end)
      now_down;
    Hashtbl.iter
      (fun node () ->
        if not (List.mem node now_down) then Trace.node_crashed trace ~node ~kind:"up" ~at:t.tick)
      t.down_now;
    Hashtbl.iter
      (fun node () -> if not (List.mem node now_down) then Hashtbl.remove t.down_now node)
      (Hashtbl.copy t.down_now)
  end

(* Fault draws are keyed by (master seed, purpose salt, channel,
   per-channel event count): the xor-multiply fold spreads that identity
   over the seed, and the draw is the [index]-th value of the SplitMix64
   stream [Rng.create ~seed:key] would give, computed directly
   ({!Rng.bernoulli_at}).  Nothing is allocated per draw. *)
let draw_key t counters ~salt ~src ~dst =
  let chan = (src lsl 24) lor dst in
  let count =
    match Itbl.find counters chan with
    | c ->
        Itbl.replace counters chan (c + 1);
        c
    | exception Not_found ->
        Itbl.add counters chan 1;
        0
  in
  let fold h x = (h lxor x) * 0x2545F4914F6CDD1D in
  fold (fold (fold (t.seed lxor (salt * 0x9E3779B9)) src) dst) count

let transmit_copies t trace ~src ~dst =
  if t.drop > 0.0 || t.duplicate > 0.0 then begin
    let key = draw_key t t.transmit_counts ~salt:1 ~src ~dst in
    if t.drop > 0.0 && Rng.bernoulli_at ~seed:key ~index:1 ~p:t.drop then begin
      t.stats.drops <- t.stats.drops + 1;
      Trace.fault_injected trace ~kind:"drop" ~src ~dst;
      0
    end
    else if
      t.duplicate > 0.0
      (* a drop probability in (0,1) used the first draw; >= 1 never gets here *)
      && Rng.bernoulli_at ~seed:key ~index:(if t.drop > 0.0 then 2 else 1) ~p:t.duplicate
    then begin
      t.stats.duplicates <- t.stats.duplicates + 1;
      Trace.fault_injected trace ~kind:"dup" ~src ~dst;
      2
    end
    else 1
  end
  else 1

let delay_multiplier t trace ~src ~dst =
  if
    t.delay_spike > 0.0
    && Rng.bernoulli_at
         ~seed:(draw_key t t.delay_counts ~salt:2 ~src ~dst)
         ~index:1 ~p:t.delay_spike
  then begin
    t.stats.delay_spikes <- t.stats.delay_spikes + 1;
    Trace.fault_injected trace ~kind:"delay" ~src ~dst;
    t.delay_factor
  end
  else 1.0

let note_crash_drop t trace ~src ~dst =
  t.stats.crash_drops <- t.stats.crash_drops + 1;
  Trace.fault_injected trace ~kind:"crash_drop" ~src ~dst

let note_dead_letter t trace ~src ~dst =
  t.stats.dead_letters <- t.stats.dead_letters + 1;
  Trace.fault_injected trace ~kind:"dead_letter" ~src ~dst

let note_retransmit t = t.stats.retransmits <- t.stats.retransmits + 1
let note_ack t = t.stats.acks_sent <- t.stats.acks_sent + 1
let note_dup_suppressed t = t.stats.dups_suppressed <- t.stats.dups_suppressed + 1

let total_injected t =
  t.stats.drops + t.stats.duplicates + t.stats.delay_spikes + t.stats.crash_drops
  + t.stats.dead_letters

(* ----------------------------------------------------------- spec parsing *)

(* "drop=0.2,dup=0.05,spike=0.1x8,crash=3@100-200,kill=2@40" —
   comma-separated key=value items; crash and kill may repeat. *)
let of_string ~seed spec =
  let drop = ref 0.0
  and dup = ref 0.0
  and spike = ref 0.0
  and factor = ref 8.0
  and crashes = ref []
  and kills = ref [] in
  let fail item reason =
    invalid_arg (Printf.sprintf "Fault_plan.of_string: bad item %S (%s)" item reason)
  in
  let parse_float item s =
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> fail item "expected a number"
  in
  let parse_int item s =
    match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> fail item "expected an integer"
  in
  String.split_on_char ',' spec
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '=' with
           | None -> fail item "expected key=value"
           | Some i -> (
               let key = String.sub item 0 i in
               let v = String.sub item (i + 1) (String.length item - i - 1) in
               match key with
               | "drop" -> drop := parse_float item v
               | "dup" -> dup := parse_float item v
               | "spike" -> (
                   match String.index_opt v 'x' with
                   | Some j ->
                       spike := parse_float item (String.sub v 0 j);
                       factor := parse_float item (String.sub v (j + 1) (String.length v - j - 1))
                   | None -> spike := parse_float item v)
               | "crash" -> (
                   match (String.index_opt v '@', String.index_opt v '-') with
                   | Some a, Some d when d > a ->
                       let node = parse_int item (String.sub v 0 a) in
                       let from_tick = parse_int item (String.sub v (a + 1) (d - a - 1)) in
                       let until_tick =
                         parse_int item (String.sub v (d + 1) (String.length v - d - 1))
                       in
                       crashes := { node; from_tick; until_tick } :: !crashes
                   | _ -> fail item "expected crash=NODE@FROM-UNTIL")
               | "kill" -> (
                   match String.index_opt v '@' with
                   | Some a ->
                       let node = parse_int item (String.sub v 0 a) in
                       let at_tick = parse_int item (String.sub v (a + 1) (String.length v - a - 1)) in
                       kills := { node; at_tick } :: !kills
                   | None -> fail item "expected kill=NODE@TICK")
               | _ -> fail item "unknown key (drop|dup|spike|crash|kill)"))
  |> ignore;
  match
    create ~drop:!drop ~duplicate:!dup ~delay_spike:!spike ~delay_factor:!factor
      ~crashes:(List.rev !crashes) ~kills:(List.rev !kills) ~seed ()
  with
  | t -> t
  | exception Invalid_argument m ->
      invalid_arg (Printf.sprintf "Fault_plan.of_string: %S (%s)" spec m)

(* Shortest float literal that reads back exactly. *)
let float_repr f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Canonical spec: omitted defaults, fields in a fixed order, so
   [of_string (to_string t)] rebuilds an equivalent plan. *)
let to_string t =
  let items = ref [] in
  let add s = items := s :: !items in
  if t.drop > 0.0 then add (Printf.sprintf "drop=%s" (float_repr t.drop));
  if t.duplicate > 0.0 then add (Printf.sprintf "dup=%s" (float_repr t.duplicate));
  if t.delay_spike > 0.0 then
    if t.delay_factor = 8.0 then add (Printf.sprintf "spike=%s" (float_repr t.delay_spike))
    else
      add (Printf.sprintf "spike=%sx%s" (float_repr t.delay_spike) (float_repr t.delay_factor));
  List.iter
    (fun (w : crash_window) -> add (Printf.sprintf "crash=%d@%d-%d" w.node w.from_tick w.until_tick))
    t.crashes;
  List.iter (fun (k : kill) -> add (Printf.sprintf "kill=%d@%d" k.node k.at_tick)) t.kills;
  String.concat "," (List.rev !items)

