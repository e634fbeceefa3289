type delay_policy =
  | Uniform of float * float
  | Exponential of float
  | Adversarial_lifo

(* Events live in a struct-of-arrays heap ({!Eventq}) keyed by
   (delivery time, sequence number); the wire is the integer tag + payload
   encoding documented in {!Roundq} (-1 plain, even Data, odd Ack, both
   carrying their reliable channel's id). *)
type 'msg t = {
  n : int;
  size_bits : 'msg -> int;
  handler : 'msg t -> dst:int -> src:int -> 'msg -> unit;
  policy : delay_policy;
  trace : Dpq_obs.Trace.t option;
  faults : Fault_plan.t option;
  sched : Sched.t option;
  rel : 'msg Reliable.t option;
  rng : Dpq_util.Rng.t;
  queue : 'msg Eventq.t;
  mutable now : float;
  mutable seq : int;
  mutable delivered : int;
  mutable acks_received : int;
  (* last delivery as unboxed ints (last_seq = -1: none yet); see the
     synchronous engine's note on per-delivery boxing. *)
  mutable last_seq : int;
  mutable last_src : int;
  mutable last_dst : int;
  mutable lifo_next : float; (* decreasing pseudo-times for adversarial mode *)
  mutable cross_prev : float option; (* pending partner time for Crossing_pairs *)
}

let policy_to_string = function
  | Uniform (lo, hi) -> Printf.sprintf "uniform:%g,%g" lo hi
  | Exponential mean -> Printf.sprintf "exp:%g" mean
  | Adversarial_lifo -> "lifo"

let policy_of_string s =
  let s = String.trim s in
  let err () = Error (Printf.sprintf "Async_engine.policy_of_string: bad policy %S" s) in
  let name, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match name with
  | "lifo" -> Ok Adversarial_lifo
  | "exp" -> (
      match float_of_string_opt body with
      | Some mean when mean > 0.0 -> Ok (Exponential mean)
      | _ -> err ())
  | "uniform" -> (
      match String.split_on_char ',' body with
      | [ lo; hi ] -> (
          match (float_of_string_opt lo, float_of_string_opt hi) with
          | Some lo, Some hi when lo <= hi && lo >= 0.0 -> Ok (Uniform (lo, hi))
          | _ -> err ())
      | _ -> err ())
  | _ -> err ()

let create ~n ~seed ?(policy = Uniform (1.0, 10.0)) ?trace ?faults ?sched ~size_bits ~handler () =
  {
    n;
    size_bits;
    handler;
    policy;
    trace;
    faults;
    sched;
    rel = Option.map (fun plan -> Reliable.create ~plan ()) faults;
    rng = Dpq_util.Rng.create ~seed;
    queue = Eventq.create ();
    now = 0.0;
    seq = 0;
    delivered = 0;
    acks_received = 0;
    last_seq = -1;
    last_src = 0;
    last_dst = 0;
    lifo_next = 0.0;
    cross_prev = None;
  }

let now t = t.now
let pending t = Eventq.length t.queue
let unacked t = match t.rel with None -> 0 | Some r -> Reliable.unacked r

let sample_delay t =
  match t.policy with
  | Uniform (lo, hi) -> lo +. (Dpq_util.Rng.float t.rng *. (hi -. lo))
  | Exponential mean -> Dpq_util.Rng.exponential t.rng ~mean
  | Adversarial_lifo -> assert false (* handled in [event_time] *)

(* Adversarial-scheduler transform of one delivery time.  [base] is the
   absolute time the base policy (plus any fault-plan spike) chose. *)
let sched_time t s ~src ~dst base =
  match Sched.policy s with
  | Sched.Fifo -> base
  | Sched.Shuffle { burst; starvation } ->
      let rng = Sched.rng s in
      (* Land in a uniformly random burst slot: messages of one slot clump
         together and reorder freely against neighbouring slots. *)
      let d = float_of_int (1 + Dpq_util.Rng.int rng burst) +. Dpq_util.Rng.float rng in
      let d =
        if starvation > 0.0 && Dpq_util.Rng.bernoulli rng ~p:starvation then begin
          Dpq_obs.Trace.sched_perturbed t.trace ~kind:"starve" ~src ~dst;
          d *. Sched.starvation_factor
        end
        else d
      in
      t.now +. d
  | Sched.Channel_bias { factor; _ } ->
      if Sched.biased s ~src ~dst then begin
        Dpq_obs.Trace.sched_perturbed t.trace ~kind:"bias" ~src ~dst;
        t.now +. ((base -. t.now) *. float_of_int factor)
      end
      else base
  | Sched.Crossing_pairs -> (
      (* Pair consecutive sends; the second of each pair is scheduled just
         before its partner, deliberately crossing them on the wire. *)
      match t.cross_prev with
      | None ->
          t.cross_prev <- Some base;
          base
      | Some partner ->
          t.cross_prev <- None;
          Dpq_obs.Trace.sched_perturbed t.trace ~kind:"swap" ~src ~dst;
          partner -. 0.5)

(* Under the adversarial policy delivery "times" are decreasing pseudo-times,
   so delay spikes are meaningless there and the plan is not consulted.
   Under a plan every non-local message is a reliable-layer packet, whose
   tag names the channel its delay draw belongs to. *)
let event_time t ~src ~dst ~tag =
  match t.policy with
  | Adversarial_lifo ->
      t.lifo_next <- t.lifo_next -. 1.0;
      t.lifo_next
  | _ ->
      let mult =
        match (t.faults, t.rel) with
        | Some plan, Some rel ->
            Fault_plan.delay_multiplier_on plan t.trace ~chan:(Reliable.fault_channel rel ~tag)
        | _ -> 1.0
      in
      let base = t.now +. (sample_delay t *. mult) in
      (match t.sched with None -> base | Some s -> sched_time t s ~src ~dst base)

let push_event t ~src ~dst ~tag payload =
  let time = event_time t ~src ~dst ~tag in
  t.seq <- t.seq + 1;
  Eventq.push t.queue ~time ~seq:t.seq ~src ~dst ~tag payload

(* One reliable-layer packet through the fault plan: 0, 1, or 2 copies
   land in the event queue, each with an independently sampled delay. *)
let transmit t ~src ~dst ~tag payload =
  match (t.faults, t.rel) with
  | Some plan, Some rel ->
      let chan = Reliable.fault_channel rel ~tag in
      for _ = 1 to Fault_plan.transmit_copies_on plan t.trace ~chan do
        push_event t ~src ~dst ~tag payload
      done
  | _ -> push_event t ~src ~dst ~tag payload

(* Virtual time moves forward only; the reliable layer's clock follows. *)
let advance_to t time =
  if time > t.now then begin
    t.now <- time;
    match t.rel with Some rel -> (Reliable.clock rel).now <- time | None -> ()
  end

let check_id t id =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Async_engine: node id %d out of range" id)

let send t ~src ~dst msg =
  check_id t src;
  check_id t dst;
  ignore (t.size_bits msg);
  if src = dst then t.handler t ~dst ~src msg
  else
    match t.rel with
    | None -> push_event t ~src ~dst ~tag:Roundq.tag_plain msg
    | Some rel -> transmit t ~src ~dst ~tag:(Reliable.register rel ~src ~dst msg) msg

let deliver t ~src ~dst payload =
  t.delivered <- t.delivered + 1;
  t.last_seq <- t.delivered;
  t.last_src <- src;
  t.last_dst <- dst;
  (* No rounds in the asynchronous model: the delivery sequence number
     stands in as the trace's time axis. *)
  (match t.trace with
  | None -> ()
  | Some tr ->
      Dpq_obs.Trace.msg_delivered_direct tr ~round:t.delivered ~src ~dst
        ~bits:(t.size_bits payload));
  t.handler t ~dst ~src payload

let is_down t node = match t.faults with None -> false | Some p -> Fault_plan.is_down p ~node

(* Process the event just popped from the queue (still parked in its
   [popped_*] slot). *)
let process t ~src ~dst ~tag payload =
  (* One fault-plan tick per delivered wire event: the async engine's
     stand-in for the round clock, so crash windows elapse with traffic. *)
  (match t.faults with Some plan -> Fault_plan.tick plan t.trace | None -> ());
  if tag = Roundq.tag_plain then deliver t ~src ~dst payload
  else if not (Roundq.is_ack tag) then begin
    (* Data packet. *)
    let plan = Option.get t.faults and rel = Option.get t.rel in
    if is_down t dst then Fault_plan.note_crash_drop plan t.trace ~src ~dst
    else begin
      (* Ack fresh and duplicate data alike — re-acking covers lost acks.
         The ack rides the same faulty channel back, its payload slot
         carrying the data payload as an inert dummy. *)
      Fault_plan.note_ack plan;
      transmit t ~src:dst ~dst:src ~tag:(Roundq.ack_tag tag) payload;
      for k = 0 to Reliable.receive_data rel ~tag payload - 1 do
        deliver t ~src ~dst (Reliable.released rel k)
      done
    end
  end
  else begin
    (* Ack. *)
    let plan = Option.get t.faults and rel = Option.get t.rel in
    if is_down t dst then Fault_plan.note_crash_drop plan t.trace ~src ~dst
    else begin
      Reliable.receive_ack rel ~tag;
      t.acks_received <- t.acks_received + 1
    end
  end

let retransmit_due t =
  match t.rel with
  | None -> ()
  | Some rel ->
      for i = 0 to Reliable.due rel t.trace - 1 do
        transmit t ~src:(Reliable.due_src rel i) ~dst:(Reliable.due_dst rel i)
          ~tag:(Reliable.due_tag rel i) (Reliable.due_payload rel i)
      done

let quiescence_diag t reason ~events =
  Quiesce.diag ~engine:"Async_engine" ~reason
    ~clock:(Printf.sprintf "events=%d now=%g" events t.now)
    ~pending:(pending t) ~unacked:(unacked t) ~delivered:t.delivered
    ~last:
      (Quiesce.describe_last ~unit:"event"
         (if t.last_seq < 0 then None else Some (t.last_seq, t.last_src, t.last_dst)))

let run_to_quiescence ?(max_events = 10_000_000) ?(stall_events = 200_000) t =
  let count = ref 0 in
  let w = Quiesce.watermark ~mark:(t.delivered + t.acks_received) ~at:0 in
  let continue = ref true in
  while !continue do
    if Eventq.pop t.queue then begin
      incr count;
      if !count > max_events then
        failwith (quiescence_diag t "exceeded max_events (livelock?)" ~events:!count);
      (* Adversarial pseudo-times can be negative and decreasing; virtual
         time only moves forward for well-behaved policies. *)
      advance_to t (Eventq.popped_time t.queue);
      process t ~src:(Eventq.popped_src t.queue) ~dst:(Eventq.popped_dst t.queue)
        ~tag:(Eventq.popped_tag t.queue)
        (Eventq.popped_payload t.queue);
      retransmit_due t;
      Quiesce.note w ~mark:(t.delivered + t.acks_received) ~at:!count;
      if Quiesce.stalled w ~at:!count ~limit:stall_events then
        failwith (quiescence_diag t "no progress watermark advanced (livelock)" ~events:!count)
    end
    else
      (* Queue drained but packets remain unacknowledged: every copy was
         dropped.  Jump virtual time to the next retransmission deadline;
         if those retransmissions are dropped too, the deadlines move and
         we jump again — bounded by the reliable layer's max_attempts. *)
      match t.rel with
      | Some rel when Reliable.unacked rel > 0 ->
          advance_to t (Reliable.next_deadline rel);
          retransmit_due t
      | _ -> continue := false
  done;
  !count
