type span = int

let no_span = -1

type event =
  | Phase_start of { span : span; name : string }
  | Phase_end of {
      span : span;
      name : string;
      rounds : int;
      messages : int;
      max_congestion : int;
      max_message_bits : int;
      total_bits : int;
    }
  | Msg_delivered of { span : span; round : int; src : int; dst : int; bits : int }
  | Anchor_assign of { batch_inserts : int; batch_deletes : int; heap_size : int }
  | Dht_put of { span : span; origin : int; key : int; manager : int }
  | Dht_get of { span : span; origin : int; key : int; manager : int }
  | Kselect_round of { stage : string; iteration : int; candidates : int; messages : int }
  | Churn of { kind : string; n : int; join_messages : int; moved_elements : int }
  | Fault_injected of { span : span; kind : string; src : int; dst : int }
  | Retransmit of { span : span; src : int; dst : int; attempt : int }
  | Node_crashed of { node : int; kind : string; at : int }
  | Sched_perturbed of { span : span; kind : string; src : int; dst : int }
  | Repair_start of { span : span; node : int; reason : string; entries_lost : int }
  | Repair_session of { span : span; src : int; dst : int; keys_pulled : int; elements_shipped : int }
  | Repair_end of { span : span; sessions : int; keys_pulled : int; elements_shipped : int }
  | Gossip_round of { span : span; exchange : int; rounds : int; messages : int; est_milli : int }
  | Window_change of { at_batch : int; window : int; est_milli : int }

type t = {
  mutable rev_events : event list;
  mutable count : int;
  mutable span_stack : span list;
  mutable next_span : span;
}

let create () = { rev_events = []; count = 0; span_stack = []; next_span = 0 }
let events t = List.rev t.rev_events
let num_events t = t.count

let clear t =
  t.rev_events <- [];
  t.count <- 0;
  t.span_stack <- [];
  t.next_span <- 0

let push t ev =
  t.rev_events <- ev :: t.rev_events;
  t.count <- t.count + 1

let current_span t = match t.span_stack with [] -> no_span | s :: _ -> s

(* ------------------------------------------------------------- emitters *)

let phase_start topt name =
  match topt with
  | None -> no_span
  | Some t ->
      let span = t.next_span in
      t.next_span <- span + 1;
      t.span_stack <- span :: t.span_stack;
      push t (Phase_start { span; name });
      span

let phase_end topt ~span ~name ~rounds ~messages ~max_congestion ~max_message_bits ~total_bits =
  match topt with
  | None -> ()
  | Some t ->
      (match t.span_stack with
      | s :: tl when s = span -> t.span_stack <- tl
      | stack -> t.span_stack <- List.filter (fun s -> s <> span) stack);
      push t
        (Phase_end { span; name; rounds; messages; max_congestion; max_message_bits; total_bits })

let msg_delivered_direct t ~round ~src ~dst ~bits =
  push t (Msg_delivered { span = current_span t; round; src; dst; bits })

let msg_delivered topt ~round ~src ~dst ~bits =
  match topt with
  | None -> ()
  | Some t -> msg_delivered_direct t ~round ~src ~dst ~bits

let anchor_assign topt ~batch_inserts ~batch_deletes ~heap_size =
  match topt with
  | None -> ()
  | Some t -> push t (Anchor_assign { batch_inserts; batch_deletes; heap_size })

let dht_put topt ~origin ~key ~manager =
  match topt with
  | None -> ()
  | Some t -> push t (Dht_put { span = current_span t; origin; key; manager })

let dht_get topt ~origin ~key ~manager =
  match topt with
  | None -> ()
  | Some t -> push t (Dht_get { span = current_span t; origin; key; manager })

let kselect_round topt ~stage ~iteration ~candidates ~messages =
  match topt with
  | None -> ()
  | Some t -> push t (Kselect_round { stage; iteration; candidates; messages })

let churn topt ~kind ~n ~join_messages ~moved_elements =
  match topt with
  | None -> ()
  | Some t -> push t (Churn { kind; n; join_messages; moved_elements })

let fault_injected topt ~kind ~src ~dst =
  match topt with
  | None -> ()
  | Some t -> push t (Fault_injected { span = current_span t; kind; src; dst })

let retransmit topt ~src ~dst ~attempt =
  match topt with
  | None -> ()
  | Some t -> push t (Retransmit { span = current_span t; src; dst; attempt })

let node_crashed topt ~node ~kind ~at =
  match topt with
  | None -> ()
  | Some t -> push t (Node_crashed { node; kind; at })

let sched_perturbed topt ~kind ~src ~dst =
  match topt with
  | None -> ()
  | Some t -> push t (Sched_perturbed { span = current_span t; kind; src; dst })

let repair_start topt ~node ~reason ~entries_lost =
  match topt with
  | None -> ()
  | Some t -> push t (Repair_start { span = current_span t; node; reason; entries_lost })

let repair_session topt ~src ~dst ~keys_pulled ~elements_shipped =
  match topt with
  | None -> ()
  | Some t ->
      push t (Repair_session { span = current_span t; src; dst; keys_pulled; elements_shipped })

let repair_end topt ~sessions ~keys_pulled ~elements_shipped =
  match topt with
  | None -> ()
  | Some t -> push t (Repair_end { span = current_span t; sessions; keys_pulled; elements_shipped })

let gossip_round topt ~exchange ~rounds ~messages ~est_milli =
  match topt with
  | None -> ()
  | Some t -> push t (Gossip_round { span = current_span t; exchange; rounds; messages; est_milli })

let window_change topt ~at_batch ~window ~est_milli =
  match topt with
  | None -> ()
  | Some t -> push t (Window_change { at_batch; window; est_milli })

(* ------------------------------------------------------ derived metrics *)

let rounds t =
  List.fold_left
    (fun acc ev -> match ev with Phase_end p -> acc + p.rounds | _ -> acc)
    0 (events t)

let messages t =
  List.fold_left
    (fun acc ev -> match ev with Msg_delivered _ -> acc + 1 | _ -> acc)
    0 (events t)

let total_bits t =
  List.fold_left
    (fun acc ev -> match ev with Msg_delivered m -> acc + m.bits | _ -> acc)
    0 (events t)

let max_message_bits t =
  List.fold_left
    (fun acc ev -> match ev with Msg_delivered m -> max acc m.bits | _ -> acc)
    0 (events t)

let retransmits t =
  List.fold_left
    (fun acc ev -> match ev with Retransmit _ -> acc + 1 | _ -> acc)
    0 (events t)

let faults_injected t =
  List.fold_left
    (fun acc ev -> match ev with Fault_injected _ -> acc + 1 | _ -> acc)
    0 (events t)

let fault_counts t =
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Fault_injected f ->
          Hashtbl.replace by_kind f.kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind f.kind))
      | _ -> ())
    (events t);
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let retransmit_amplification t =
  let fresh = messages t in
  if fresh = 0 then 1.0
  else float_of_int (fresh + retransmits t) /. float_of_int fresh

let crash_windows t =
  (* Pair each "down" with the next "up" of the same node, in order. *)
  let downs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let windows = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Node_crashed { node; kind = "down"; at } -> Hashtbl.replace downs node at
      | Node_crashed { node; kind = "up"; at } -> (
          match Hashtbl.find_opt downs node with
          | Some from ->
              Hashtbl.remove downs node;
              windows := (node, from, at) :: !windows
          | None -> ())
      | _ -> ())
    (events t);
  List.rev !windows

let recovery_latencies t = List.map (fun (_, a, b) -> b - a) (crash_windows t)

let gossip_exchanges t =
  List.fold_left
    (fun acc ev -> match ev with Gossip_round _ -> acc + 1 | _ -> acc)
    0 (events t)

let window_changes t =
  List.filter_map
    (fun ev ->
      match ev with
      | Window_change { at_batch; window; _ } -> Some (at_batch, window)
      | _ -> None)
    (events t)

(* Message/bit volume inside repair spans — the "repair traffic" the
   O(δ log m) experiment measures.  A span counts as repair from its
   [Phase_start "repair"] to the matching [Phase_end]; spans never
   interleave within one trace (engines are sequential), so a set of open
   repair spans is enough. *)
let repair_traffic t =
  let open_repairs = Hashtbl.create 4 in
  List.fold_left
    (fun (msgs, bits) ev ->
      match ev with
      | Phase_start { span; name } when name = "repair" ->
          Hashtbl.replace open_repairs span ();
          (msgs, bits)
      | Phase_end { span; _ } ->
          Hashtbl.remove open_repairs span;
          (msgs, bits)
      | Msg_delivered m when Hashtbl.mem open_repairs m.span -> (msgs + 1, bits + m.bits)
      | _ -> (msgs, bits))
    (0, 0) (events t)

let repair_messages t = fst (repair_traffic t)
let repair_bits t = snd (repair_traffic t)

(* Deliveries per (span, round, dst) cell — the unit congestion is measured
   over.  Spans run on fresh engines, so cells of different spans are
   different rounds of wall-clock time. *)
let congestion_cells t =
  let cells : (span * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      match ev with
      | Msg_delivered m ->
          let key = (m.span, m.round, m.dst) in
          Hashtbl.replace cells key (1 + Option.value ~default:0 (Hashtbl.find_opt cells key))
      | _ -> ())
    (events t);
  cells

let max_congestion t = Hashtbl.fold (fun _ c acc -> max c acc) (congestion_cells t) 0

let congestion_histogram t =
  let by_level = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ c -> Hashtbl.replace by_level c (1 + Option.value ~default:0 (Hashtbl.find_opt by_level c)))
    (congestion_cells t);
  Hashtbl.fold (fun c cells acc -> (c, cells) :: acc) by_level []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let node_load t =
  let max_node =
    List.fold_left
      (fun acc ev -> match ev with Msg_delivered m -> max acc (max m.src m.dst) | _ -> acc)
      (-1) (events t)
  in
  if max_node < 0 then [||]
  else begin
    let load = Array.make (max_node + 1) 0 in
    List.iter
      (fun ev -> match ev with Msg_delivered m -> load.(m.dst) <- load.(m.dst) + 1 | _ -> ())
      (events t);
    load
  end

let bits_per_round t =
  let total = rounds t in
  let arr = Array.make (max total 0) 0 in
  let offset = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Msg_delivered m ->
          let gr = !offset + m.round in
          if gr >= 0 && gr < Array.length arr then arr.(gr) <- arr.(gr) + m.bits
      | Phase_end p -> offset := !offset + p.rounds
      | _ -> ())
    (events t);
  arr

let pp_summary fmt t =
  let spans =
    List.fold_left (fun acc ev -> match ev with Phase_start _ -> acc + 1 | _ -> acc) 0 (events t)
  in
  let load = node_load t in
  let busiest = Array.fold_left max 0 load in
  Format.fprintf fmt
    "@[<v>trace: %d events, %d spans@,\
     rounds=%d messages=%d total_bits=%d@,\
     max_congestion=%d max_message_bits=%d busiest_node_load=%d@,\
     congestion histogram (deliveries/cell -> cells): %a@]"
    (num_events t) spans (rounds t) (messages t) (total_bits t) (max_congestion t)
    (max_message_bits t) busiest
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
       (fun fmt (c, cells) -> Format.fprintf fmt "%d->%d" c cells))
    (congestion_histogram t);
  let faults = faults_injected t and rtx = retransmits t in
  if faults > 0 || rtx > 0 then
    Format.fprintf fmt
      "@,faults=%d (%a) retransmits=%d amplification=%.2fx recovery_latency=%a"
      faults
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
         (fun fmt (k, c) -> Format.fprintf fmt "%s:%d" k c))
      (fault_counts t) rtx
      (retransmit_amplification t)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
         Format.pp_print_int)
      (recovery_latencies t)

(* ------------------------------------------------------------ JSONL I/O *)

(* Flat objects with int and string fields only; no JSON library is
   available in-tree, and none is needed for this schema. *)

let buf_kv_int b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":";
  Buffer.add_string b (string_of_int v)

let buf_kv_str b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":\"";
  String.iter
    (fun c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then
        invalid_arg "Trace.event_to_json: string fields must be plain ASCII"
      else Buffer.add_char b c)
    v;
  Buffer.add_char b '"'

let event_to_json ev =
  let b = Buffer.create 96 in
  let tag name = Buffer.add_string b (Printf.sprintf "{\"ev\":\"%s\"" name) in
  (match ev with
  | Phase_start { span; name } ->
      tag "phase_start";
      buf_kv_int b "span" span;
      buf_kv_str b "name" name
  | Phase_end { span; name; rounds; messages; max_congestion; max_message_bits; total_bits } ->
      tag "phase_end";
      buf_kv_int b "span" span;
      buf_kv_str b "name" name;
      buf_kv_int b "rounds" rounds;
      buf_kv_int b "messages" messages;
      buf_kv_int b "max_congestion" max_congestion;
      buf_kv_int b "max_message_bits" max_message_bits;
      buf_kv_int b "total_bits" total_bits
  | Msg_delivered { span; round; src; dst; bits } ->
      tag "msg";
      buf_kv_int b "span" span;
      buf_kv_int b "round" round;
      buf_kv_int b "src" src;
      buf_kv_int b "dst" dst;
      buf_kv_int b "bits" bits
  | Anchor_assign { batch_inserts; batch_deletes; heap_size } ->
      tag "anchor_assign";
      buf_kv_int b "inserts" batch_inserts;
      buf_kv_int b "deletes" batch_deletes;
      buf_kv_int b "heap_size" heap_size
  | Dht_put { span; origin; key; manager } ->
      tag "dht_put";
      buf_kv_int b "span" span;
      buf_kv_int b "origin" origin;
      buf_kv_int b "key" key;
      buf_kv_int b "manager" manager
  | Dht_get { span; origin; key; manager } ->
      tag "dht_get";
      buf_kv_int b "span" span;
      buf_kv_int b "origin" origin;
      buf_kv_int b "key" key;
      buf_kv_int b "manager" manager
  | Kselect_round { stage; iteration; candidates; messages } ->
      tag "kselect_round";
      buf_kv_str b "stage" stage;
      buf_kv_int b "iteration" iteration;
      buf_kv_int b "candidates" candidates;
      buf_kv_int b "messages" messages
  | Churn { kind; n; join_messages; moved_elements } ->
      tag "churn";
      buf_kv_str b "kind" kind;
      buf_kv_int b "n" n;
      buf_kv_int b "join_messages" join_messages;
      buf_kv_int b "moved_elements" moved_elements
  | Fault_injected { span; kind; src; dst } ->
      tag "fault";
      buf_kv_int b "span" span;
      buf_kv_str b "kind" kind;
      buf_kv_int b "src" src;
      buf_kv_int b "dst" dst
  | Retransmit { span; src; dst; attempt } ->
      tag "retransmit";
      buf_kv_int b "span" span;
      buf_kv_int b "src" src;
      buf_kv_int b "dst" dst;
      buf_kv_int b "attempt" attempt
  | Node_crashed { node; kind; at } ->
      tag "node_crash";
      buf_kv_int b "node" node;
      buf_kv_str b "kind" kind;
      buf_kv_int b "at" at
  | Sched_perturbed { span; kind; src; dst } ->
      tag "sched";
      buf_kv_int b "span" span;
      buf_kv_str b "kind" kind;
      buf_kv_int b "src" src;
      buf_kv_int b "dst" dst
  | Repair_start { span; node; reason; entries_lost } ->
      tag "repair_start";
      buf_kv_int b "span" span;
      buf_kv_int b "node" node;
      buf_kv_str b "reason" reason;
      buf_kv_int b "entries_lost" entries_lost
  | Repair_session { span; src; dst; keys_pulled; elements_shipped } ->
      tag "repair_session";
      buf_kv_int b "span" span;
      buf_kv_int b "src" src;
      buf_kv_int b "dst" dst;
      buf_kv_int b "keys_pulled" keys_pulled;
      buf_kv_int b "elements_shipped" elements_shipped
  | Repair_end { span; sessions; keys_pulled; elements_shipped } ->
      tag "repair_end";
      buf_kv_int b "span" span;
      buf_kv_int b "sessions" sessions;
      buf_kv_int b "keys_pulled" keys_pulled;
      buf_kv_int b "elements_shipped" elements_shipped
  | Gossip_round { span; exchange; rounds; messages; est_milli } ->
      tag "gossip_round";
      buf_kv_int b "span" span;
      buf_kv_int b "exchange" exchange;
      buf_kv_int b "rounds" rounds;
      buf_kv_int b "messages" messages;
      buf_kv_int b "est_milli" est_milli
  | Window_change { at_batch; window; est_milli } ->
      tag "window_change";
      buf_kv_int b "at_batch" at_batch;
      buf_kv_int b "window" window;
      buf_kv_int b "est_milli" est_milli);
  Buffer.add_char b '}';
  Buffer.contents b

exception Bad of string

type field = Fint of int | Fstr of string

let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise (Bad "unexpected end of line") in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected '%c' at column %d" c !pos));
    incr pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then raise (Bad "escape sequences are not part of the trace schema")
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if peek () = '-' then incr pos;
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start || (!pos = start + 1 && line.[start] = '-') then raise (Bad "expected integer");
    int_of_string (String.sub line start (!pos - start))
  in
  expect '{';
  skip_ws ();
  if peek () = '}' then begin
    incr pos;
    []
  end
  else begin
    let fields = ref [] in
    let rec entries () =
      skip_ws ();
      let key = parse_string () in
      expect ':';
      skip_ws ();
      let v = if peek () = '"' then Fstr (parse_string ()) else Fint (parse_int ()) in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' ->
          incr pos;
          entries ()
      | '}' -> incr pos
      | c -> raise (Bad (Printf.sprintf "expected ',' or '}', got '%c'" c))
    in
    entries ();
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage after object");
    List.rev !fields
  end

let event_of_json line =
  try
    let fields = parse_fields line in
    let fint key =
      match List.assoc_opt key fields with
      | Some (Fint v) -> v
      | Some (Fstr _) -> raise (Bad (Printf.sprintf "field %S: expected integer" key))
      | None -> raise (Bad (Printf.sprintf "missing field %S" key))
    in
    let fstr key =
      match List.assoc_opt key fields with
      | Some (Fstr v) -> v
      | Some (Fint _) -> raise (Bad (Printf.sprintf "field %S: expected string" key))
      | None -> raise (Bad (Printf.sprintf "missing field %S" key))
    in
    let ev =
      match fstr "ev" with
      | "phase_start" -> Phase_start { span = fint "span"; name = fstr "name" }
      | "phase_end" ->
          Phase_end
            {
              span = fint "span";
              name = fstr "name";
              rounds = fint "rounds";
              messages = fint "messages";
              max_congestion = fint "max_congestion";
              max_message_bits = fint "max_message_bits";
              total_bits = fint "total_bits";
            }
      | "msg" ->
          Msg_delivered
            { span = fint "span"; round = fint "round"; src = fint "src"; dst = fint "dst"; bits = fint "bits" }
      | "anchor_assign" ->
          Anchor_assign
            { batch_inserts = fint "inserts"; batch_deletes = fint "deletes"; heap_size = fint "heap_size" }
      | "dht_put" ->
          Dht_put { span = fint "span"; origin = fint "origin"; key = fint "key"; manager = fint "manager" }
      | "dht_get" ->
          Dht_get { span = fint "span"; origin = fint "origin"; key = fint "key"; manager = fint "manager" }
      | "kselect_round" ->
          Kselect_round
            {
              stage = fstr "stage";
              iteration = fint "iteration";
              candidates = fint "candidates";
              messages = fint "messages";
            }
      | "churn" ->
          Churn
            {
              kind = fstr "kind";
              n = fint "n";
              join_messages = fint "join_messages";
              moved_elements = fint "moved_elements";
            }
      | "fault" ->
          Fault_injected { span = fint "span"; kind = fstr "kind"; src = fint "src"; dst = fint "dst" }
      | "retransmit" ->
          Retransmit { span = fint "span"; src = fint "src"; dst = fint "dst"; attempt = fint "attempt" }
      | "node_crash" -> Node_crashed { node = fint "node"; kind = fstr "kind"; at = fint "at" }
      | "sched" ->
          Sched_perturbed { span = fint "span"; kind = fstr "kind"; src = fint "src"; dst = fint "dst" }
      | "repair_start" ->
          Repair_start
            { span = fint "span"; node = fint "node"; reason = fstr "reason"; entries_lost = fint "entries_lost" }
      | "repair_session" ->
          Repair_session
            {
              span = fint "span";
              src = fint "src";
              dst = fint "dst";
              keys_pulled = fint "keys_pulled";
              elements_shipped = fint "elements_shipped";
            }
      | "repair_end" ->
          Repair_end
            {
              span = fint "span";
              sessions = fint "sessions";
              keys_pulled = fint "keys_pulled";
              elements_shipped = fint "elements_shipped";
            }
      | "gossip_round" ->
          Gossip_round
            {
              span = fint "span";
              exchange = fint "exchange";
              rounds = fint "rounds";
              messages = fint "messages";
              est_milli = fint "est_milli";
            }
      | "window_change" ->
          Window_change
            { at_batch = fint "at_batch"; window = fint "window"; est_milli = fint "est_milli" }
      | other -> raise (Bad (Printf.sprintf "unknown event kind %S" other))
    in
    Ok ev
  with Bad msg -> Error msg

let to_channel t oc =
  List.iter
    (fun ev ->
      output_string oc (event_to_json ev);
      output_char oc '\n')
    (events t)

let of_channel ic =
  let t = create () in
  let line_no = ref 0 in
  let rec go () =
    match In_channel.input_line ic with
    | None -> Ok t
    | Some line ->
        incr line_no;
        if String.trim line = "" then go ()
        else begin
          match event_of_json line with
          | Ok ev ->
              push t ev;
              (match ev with
              | Phase_start { span; _ } | Phase_end { span; _ } ->
                  t.next_span <- max t.next_span (span + 1)
              | _ -> ());
              go ()
          | Error msg -> Error (Printf.sprintf "line %d: %s" !line_no msg)
        end
  in
  go ()

let to_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel t oc)

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)
