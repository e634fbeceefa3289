(* The wire carries protocol messages directly on a perfect network, and
   reliable-layer packets (sequence-numbered data + acks) under a fault
   plan.  Messages live in a round-indexed calendar queue ({!Roundq}) as
   integer-tagged column entries instead of allocated envelopes: tag -1 is
   the zero-overhead plain fast path, even tags are Data packets, odd tags
   are Acks, and both name their reliable channel by id (see Roundq's
   header), so a packet's receive path does no channel lookup.  Without
   faults nothing is wrapped and behavior/costs are bit-identical to the
   fault-free engine. *)

type 'msg t = {
  n : int;
  size_bits : 'msg -> int;
  handler : 'msg t -> dst:int -> src:int -> 'msg -> unit;
  activate : ('msg t -> int -> unit) option;
  trace : Dpq_obs.Trace.t option;
  faults : Fault_plan.t option;
  sched : Sched.t option;
  rel : 'msg Reliable.t option;
  q : 'msg Roundq.t;
  mutable in_step : bool; (* sends during a step deliver next round *)
  mutable order : int array; (* scheduler scratch: delivery permutation *)
  mutable round : int;
  metrics : Metrics.t;
  mutable fresh_delivered : int;
  mutable acks_received : int;
  (* last delivery, kept as unboxed ints (last_round = -1: none yet): this
     is written on every delivery, and boxing it was a measurable slice of
     the per-hop cost.  Only the quiescence diagnostics read it. *)
  mutable last_round : int;
  mutable last_src : int;
  mutable last_dst : int;
}

let create ~n ~size_bits ~handler ?activate ?trace ?faults ?sched () =
  {
    n;
    size_bits;
    handler;
    activate;
    trace;
    faults;
    sched;
    rel = Option.map (fun plan -> Reliable.create ~plan ()) faults;
    q = Roundq.create ();
    in_step = false;
    order = [||];
    round = 0;
    metrics = Metrics.create ~n;
    fresh_delivered = 0;
    acks_received = 0;
    last_round = -1;
    last_src = 0;
    last_dst = 0;
  }

let round t = t.round
let metrics t = t.metrics
let pending t = Roundq.pending t.q

let unacked t = match t.rel with None -> 0 | Some r -> Reliable.unacked r

(* The reliable layer reads its clock from a float-only record; keeping it
   on the round counter here costs no allocation. *)
let set_round t r =
  t.round <- r;
  match t.rel with Some rel -> (Reliable.clock rel).now <- float_of_int r | None -> ()

let check_id t id name =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Sync_engine.%s: node id %d out of range" name id)

(* Everything sent while a round is being processed (scheduler deferrals,
   activation and handler sends, retransmissions queued before the round
   counter advanced) is delivered in the next round. *)
let target_round t = if t.in_step then t.round + 1 else t.round

let enqueue t ~src ~dst ~tag ~defers payload =
  Roundq.add t.q ~round:(target_round t) ~src ~dst ~tag ~defers payload

(* Put one reliable-layer packet on the wire, letting the fault plan drop
   or duplicate it.  A dropped data packet stays registered with the
   reliable layer and comes back as a retransmission. *)
let transmit t ~src ~dst ~tag payload =
  match (t.faults, t.rel) with
  | Some plan, Some rel ->
      let chan = Reliable.fault_channel rel ~tag in
      let copies = Fault_plan.transmit_copies_on plan t.trace ~chan in
      for _ = 1 to copies do
        enqueue t ~src ~dst ~tag ~defers:0 payload
      done
  | _ -> enqueue t ~src ~dst ~tag ~defers:0 payload

let send t ~src ~dst msg =
  check_id t src "send";
  check_id t dst "send";
  if src = dst then begin
    (* Virtual edge between co-located virtual nodes: free, immediate, and
       exempt from faults (it never touches the network). *)
    Metrics.record_local t.metrics;
    t.handler t ~dst ~src msg
  end
  else
    match t.rel with
    | None -> enqueue t ~src ~dst ~tag:Roundq.tag_plain ~defers:0 msg
    | Some rel -> transmit t ~src ~dst ~tag:(Reliable.register rel ~src ~dst msg) msg

(* ---------------------------------------------------- schedule adversary *)

let ensure_order t len =
  if Array.length t.order < len then t.order <- Array.make (max 16 (2 * len)) 0

(* Postpone entry [i] of the current batch to next round, counting the
   deferral so fairness caps (Sched.max_defers / the bias factor) bound
   every message's delay. *)
let defer t (b : 'msg Roundq.bucket) i ~kind =
  Dpq_obs.Trace.sched_perturbed t.trace ~kind ~src:(Roundq.src b i) ~dst:(Roundq.dst b i);
  (* [meta + 1] bumps the deferral count in the packed word's low byte. *)
  Roundq.add_packed t.q ~round:(t.round + 1)
    ~meta:(Roundq.meta b i + 1)
    ~tag:b.Roundq.tags.(i) b.Roundq.pays.(i)

(* Perturb one round's delivery batch.  Fills [t.order] with the indices to
   deliver this round (in order) and returns how many, or -1 for identity;
   deferred entries go back into the queue for the next round.  Round
   semantics stay bounded: every deferral chain is capped, so quiescence is
   still reached.  All scheduler trace events are emitted here, before any
   delivery, exactly as the envelope-list implementation did. *)
let apply_sched t (b : 'msg Roundq.bucket) =
  match t.sched with
  | None -> -1
  | Some s -> (
      let len = b.Roundq.len in
      match Sched.policy s with
      | Sched.Fifo -> -1
      | Sched.Crossing_pairs ->
          ensure_order t len;
          let k = ref 0 in
          let i = ref 0 in
          while !i + 1 < len do
            Dpq_obs.Trace.sched_perturbed t.trace ~kind:"swap"
              ~src:(Roundq.src b (!i + 1))
              ~dst:(Roundq.dst b (!i + 1));
            t.order.(!k) <- !i + 1;
            t.order.(!k + 1) <- !i;
            k := !k + 2;
            i := !i + 2
          done;
          if !i < len then begin
            t.order.(!k) <- !i;
            incr k
          end;
          !k
      | Sched.Channel_bias { factor; _ } ->
          let cap = min factor Sched.max_defers in
          ensure_order t len;
          let k = ref 0 in
          for i = 0 to len - 1 do
            if
              Sched.biased s ~src:(Roundq.src b i) ~dst:(Roundq.dst b i)
              && Roundq.defers b i < cap
            then defer t b i ~kind:"bias"
            else begin
              t.order.(!k) <- i;
              incr k
            end
          done;
          !k
      | Sched.Shuffle { burst; starvation } ->
          let rng = Sched.rng s in
          (* Shuffle the batch in contiguous blocks of [burst] messages:
             blocks permute freely while messages inside one block stay in
             order, so [burst = 1] is a full per-message shuffle and larger
             bursts model clumped arrivals. *)
          let nblocks = (len + burst - 1) / burst in
          let blocks = Array.init nblocks (fun i -> i) in
          Dpq_util.Rng.shuffle rng blocks;
          ensure_order t len;
          let k = ref 0 in
          for bi = 0 to nblocks - 1 do
            let blk = blocks.(bi) in
            for i = blk * burst to min ((blk + 1) * burst) len - 1 do
              if
                starvation > 0.0
                && Roundq.defers b i < Sched.max_defers
                && Dpq_util.Rng.bernoulli rng ~p:starvation
              then defer t b i ~kind:"defer"
              else begin
                t.order.(!k) <- i;
                incr k
              end
            done
          done;
          !k)

let deliver t ~this_round ~src ~dst ~bits payload =
  Metrics.record_delivery t.metrics ~round:this_round ~dst ~bits;
  (match t.trace with
  | None -> ()
  | Some tr -> Dpq_obs.Trace.msg_delivered_direct tr ~round:this_round ~src ~dst ~bits);
  t.fresh_delivered <- t.fresh_delivered + 1;
  t.last_round <- this_round;
  t.last_src <- src;
  t.last_dst <- dst;
  t.handler t ~dst ~src payload

let is_down t node = match t.faults with None -> false | Some p -> Fault_plan.is_down p ~node

let step t =
  (* Deliveries of this round are the messages sent in previous rounds;
     anything sent during activation or during a delivery handler is
     processed in round [t.round + 1]. *)
  let b = Roundq.take t.q ~round:t.round in
  t.in_step <- true;
  let nord = apply_sched t b in
  (* One fault-plan tick per synchronous round: crash windows open/close on
     round boundaries, shared across all engines of the run. *)
  (match t.faults with Some plan -> Fault_plan.tick plan t.trace | None -> ());
  (match t.activate with
  | Some f ->
      for i = 0 to t.n - 1 do
        if not (is_down t i) then f t i
      done
  | None -> ());
  let this_round = t.round in
  let count = if nord < 0 then b.Roundq.len else nord in
  for j = 0 to count - 1 do
    let i = if nord < 0 then j else t.order.(j) in
    (* One metas read recovers src and dst (see Roundq's packing). *)
    let m = b.Roundq.metas.(i) in
    let src = Roundq.meta_src m and dst = Roundq.meta_dst m in
    let tag = b.Roundq.tags.(i) in
    let payload = b.Roundq.pays.(i) in
    if tag = Roundq.tag_plain then
      deliver t ~this_round ~src ~dst ~bits:(t.size_bits payload) payload
    else if not (Roundq.is_ack tag) then begin
      (* Data packet. *)
      let plan = Option.get t.faults and rel = Option.get t.rel in
      if is_down t dst then Fault_plan.note_crash_drop plan t.trace ~src ~dst
      else begin
        (* Ack everything we see — re-acking duplicates covers lost acks.
           The ack rides the same faulty channel; its payload slot carries
           the data payload as an inert dummy. *)
        Fault_plan.note_ack plan;
        transmit t ~src:dst ~dst:src ~tag:(Roundq.ack_tag tag) payload;
        for k = 0 to Reliable.receive_data rel ~tag payload - 1 do
          let p = Reliable.released rel k in
          deliver t ~this_round ~src ~dst ~bits:(t.size_bits p + Reliable.header_bits) p
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
  done;
  Roundq.recycle t.q b;
  set_round t (t.round + 1);
  t.in_step <- false;
  (* Timeout-driven retransmission: anything overdue goes back on the wire
     (and through the fault plan again) for delivery next round. *)
  match t.rel with
  | None -> ()
  | Some rel ->
      for i = 0 to Reliable.due rel t.trace - 1 do
        transmit t ~src:(Reliable.due_src rel i) ~dst:(Reliable.due_dst rel i)
          ~tag:(Reliable.due_tag rel i) (Reliable.due_payload rel i)
      done

let quiescence_diag t reason =
  Quiesce.diag ~engine:"Sync_engine" ~reason
    ~clock:(Printf.sprintf "round=%d" t.round)
    ~pending:(pending t) ~unacked:(unacked t) ~delivered:t.fresh_delivered
    ~last:
      (Quiesce.describe_last ~unit:"round"
         (if t.last_round < 0 then None else Some (t.last_round, t.last_src, t.last_dst)))

let quiesced t = Roundq.is_empty t.q && unacked t = 0

let run_to_quiescence ?(max_rounds = 1_000_000) ?(stall_rounds = 10_000) t =
  let start = t.round in
  let progress_mark () = t.fresh_delivered + t.acks_received in
  let w = Quiesce.watermark ~mark:(progress_mark ()) ~at:t.round in
  while not (quiesced t) do
    if t.round - start > max_rounds then failwith (quiescence_diag t "exceeded max_rounds (livelock?)");
    step t;
    Quiesce.note w ~mark:(progress_mark ()) ~at:t.round;
    if Quiesce.stalled w ~at:t.round ~limit:stall_rounds then
      failwith (quiescence_diag t "no progress watermark advanced (livelock)")
  done;
  t.round - start

let reset_clock t =
  if not (Roundq.is_empty t.q) then invalid_arg "Sync_engine.reset_clock: messages in flight";
  if unacked t <> 0 then invalid_arg "Sync_engine.reset_clock: unacknowledged messages outstanding";
  Option.iter Reliable.reset t.rel;
  set_round t 0;
  Roundq.reset t.q;
  Metrics.reset t.metrics;
  t.fresh_delivered <- 0;
  t.acks_received <- 0;
  t.last_round <- -1;
  t.last_src <- 0;
  t.last_dst <- 0
