module Itbl = Hashtbl.Make (Int)
module Trace = Dpq_obs.Trace

type 'msg channel = {
  key : int * int; (* (src, dst), the channel's key in [channels] *)
  mutable epoch : int; (* the [reset] generation the fields below belong to *)
  mutable next_sn : int; (* sender side: next sequence number to allocate *)
  mutable next_deliver : int; (* receiver side: next sn to release in order *)
  buffered : 'msg Itbl.t; (* receiver side: out-of-order arrivals *)
  (* sender side: sn -> pool slot of the outstanding packet.  Its Hashtbl
     iteration order is the order [due] visits the channel's packets, so
     it must see exactly the insertions and removals it always has. *)
  unacked : int Itbl.t;
}

(* Both float-only, so their fields are stored flat and writing them
   allocates nothing. *)
type clock = { mutable now : float }

(* [lower] is at most every outstanding deadline, and exactly their
   minimum after a completed scan; [scan_min] accumulates that minimum
   during the scan, so a scan cut short by [Delivery_failed] leaves
   [lower] valid. *)
type bound = { mutable lower : float; mutable scan_min : float }

type 'msg t = {
  plan : Fault_plan.t;
  (* (src, dst) -> channel, only for iteration: [due] and the reaper visit
     channels in this table's order, which the digests pin. *)
  channels : (int * int, 'msg channel) Hashtbl.t;
  (* Every channel ever opened, keyed by [chan_key]: a pool kept across
     [reset].  A channel whose [epoch] is not the layer's is stale — it is
     absent from [channels] and is reset when next touched. *)
  by_key : 'msg channel Itbl.t;
  mutable epoch : int;
  base_rto : float;
  max_rto : float;
  max_attempts : int;
  mutable unacked_total : int;
  clock : clock;
  bound : bound;
  (* Outstanding packets live in a slot pool of parallel arrays; a free
     slot has attempts = -1 and sits on the [free] stack. *)
  mutable pays : 'msg array;
  mutable attempts : int array; (* retransmissions so far *)
  mutable deadlines : float array;
  mutable rtos : float array;
  mutable free : int array;
  mutable nfree : int;
  mutable slots : int; (* high-water mark of the pool *)
  (* [due]'s result, in visit order: channel src/dst, sn and pool slot *)
  mutable due_srcs : int array;
  mutable due_dsts : int array;
  mutable due_sns : int array;
  mutable due_slots : int array;
  mutable ndue : int;
  (* [receive_data]'s result *)
  mutable released : 'msg array;
  mutable nreleased : int;
  (* kills already reaped, and whether a packet was since registered on a
     channel with a killed endpoint *)
  mutable reaped_kills : int;
  mutable reap_pending : bool;
  (* scan state and the callbacks [Hashtbl.iter] runs during a scan, built
     once in [create] so a scan allocates no closure *)
  mutable scan_trace : Trace.t option;
  mutable cur_src : int; (* the channel being scanned *)
  mutable cur_dst : int;
  on_channel : int * int -> 'msg channel -> unit;
  on_packet : int -> int -> unit;
}

exception Delivery_failed of string

(* Sequence number + ack flag: the wire overhead the reliable layer adds to
   every data packet; an ack is just this header. *)
let header_bits = 33

let new_channel key epoch =
  { key; epoch; next_sn = 0; next_deliver = 0; buffered = Itbl.create 8; unacked = Itbl.create 8 }

let chan_key ~src ~dst = (src lsl 31) lor dst

let grow a fill =
  let a' = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let push_due t sn slot =
  let i = t.ndue in
  if i = Array.length t.due_sns then begin
    t.due_srcs <- grow t.due_srcs 0;
    t.due_dsts <- grow t.due_dsts 0;
    t.due_sns <- grow t.due_sns 0;
    t.due_slots <- grow t.due_slots 0
  end;
  t.due_srcs.(i) <- t.cur_src;
  t.due_dsts.(i) <- t.cur_dst;
  t.due_sns.(i) <- sn;
  t.due_slots.(i) <- slot;
  t.ndue <- i + 1

(* One outstanding packet of the channel being scanned. *)
let scan_packet t sn slot =
  let c = t.clock and b = t.bound in
  if t.deadlines.(slot) <= c.now then begin
    let attempts = t.attempts.(slot) + 1 in
    t.attempts.(slot) <- attempts;
    if attempts > t.max_attempts then
      raise
        (Delivery_failed
           (Printf.sprintf
              "Reliable: message %d->%d sn=%d still unacknowledged after %d retransmissions \
               (rto=%g, now=%g) — channel permanently down?"
              t.cur_src t.cur_dst sn t.max_attempts t.rtos.(slot) c.now));
    let rto = t.rtos.(slot) *. 2.0 in
    let rto = if rto < t.max_rto then rto else t.max_rto in
    t.rtos.(slot) <- rto;
    t.deadlines.(slot) <- c.now +. rto;
    Fault_plan.note_retransmit t.plan;
    Trace.retransmit t.scan_trace ~src:t.cur_src ~dst:t.cur_dst ~attempt:attempts;
    push_due t sn slot
  end;
  if t.deadlines.(slot) < b.scan_min then b.scan_min <- t.deadlines.(slot)

let scan_channel t (src, dst) ch =
  if Itbl.length ch.unacked > 0 then begin
    t.cur_src <- src;
    t.cur_dst <- dst;
    Itbl.iter t.on_packet ch.unacked
  end

let create ?(base_rto = 4.0) ?(max_rto = 64.0) ?(max_attempts = 64) ~plan () =
  if base_rto <= 0.0 then invalid_arg "Reliable.create: base_rto must be positive";
  if max_attempts < 1 then invalid_arg "Reliable.create: max_attempts must be >= 1";
  let rec t =
    {
      plan;
      channels = Hashtbl.create 64;
      by_key = Itbl.create 64;
      epoch = 0;
      base_rto;
      max_rto;
      max_attempts;
      unacked_total = 0;
      clock = { now = 0.0 };
      bound = { lower = infinity; scan_min = infinity };
      pays = [||];
      attempts = [||];
      deadlines = [||];
      rtos = [||];
      free = [||];
      nfree = 0;
      slots = 0;
      due_srcs = [||];
      due_dsts = [||];
      due_sns = [||];
      due_slots = [||];
      ndue = 0;
      released = [||];
      nreleased = 0;
      reaped_kills = 0;
      reap_pending = false;
      scan_trace = None;
      cur_src = 0;
      cur_dst = 0;
      on_channel = (fun key ch -> scan_channel t key ch);
      on_packet = (fun sn slot -> scan_packet t sn slot);
    }
  in
  t

(* A channel is entered in [channels] when first touched in an epoch, so
   that table sees the insertions a fresh layer's would.  A pooled channel
   is reset then: [Itbl.reset] returns its tables to their initial size,
   so they iterate exactly like fresh ones. *)
let channel t ~src ~dst =
  let key = chan_key ~src ~dst in
  match Itbl.find t.by_key key with
  | ch when ch.epoch = t.epoch -> ch
  | ch ->
      ch.epoch <- t.epoch;
      ch.next_sn <- 0;
      ch.next_deliver <- 0;
      Itbl.reset ch.buffered;
      Itbl.reset ch.unacked;
      Hashtbl.replace t.channels ch.key ch;
      ch
  | exception Not_found ->
      let ch = new_channel (src, dst) t.epoch in
      Itbl.add t.by_key key ch;
      Hashtbl.replace t.channels ch.key ch;
      ch

let alloc_slot t payload =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let s = t.slots in
    if s = Array.length t.attempts then begin
      t.pays <- grow t.pays payload;
      t.attempts <- grow t.attempts (-1);
      t.deadlines <- grow t.deadlines 0.0;
      t.rtos <- grow t.rtos 0.0;
      t.free <- grow t.free 0
    end;
    t.slots <- s + 1;
    s
  end

(* Forget an outstanding packet (acked or abandoned). *)
let release_slot t ch sn slot =
  Itbl.remove ch.unacked sn;
  t.attempts.(slot) <- -1;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  t.unacked_total <- t.unacked_total - 1

let clock t = t.clock

(* Hashtbl.reset (not clear) shrinks [channels] to its initial size, so
   [due] and the reaper visit channels in the order a fresh layer would.
   The channel records stay pooled in [by_key]; the new epoch marks them
   all stale. *)
let reset t =
  if t.unacked_total <> 0 then invalid_arg "Reliable.reset: unacknowledged packets outstanding";
  Hashtbl.reset t.channels;
  t.epoch <- t.epoch + 1;
  t.clock.now <- 0.0;
  t.bound.lower <- infinity;
  t.bound.scan_min <- infinity;
  t.nfree <- 0;
  t.slots <- 0;
  t.ndue <- 0;
  t.nreleased <- 0;
  t.reaped_kills <- 0;
  t.reap_pending <- false;
  t.scan_trace <- None

let register t ~src ~dst payload =
  let ch = channel t ~src ~dst in
  let sn = ch.next_sn in
  ch.next_sn <- sn + 1;
  let slot = alloc_slot t payload in
  t.pays.(slot) <- payload;
  t.attempts.(slot) <- 0;
  let deadline = t.clock.now +. t.base_rto in
  t.deadlines.(slot) <- deadline;
  t.rtos.(slot) <- t.base_rto;
  if deadline < t.bound.lower then t.bound.lower <- deadline;
  Itbl.replace ch.unacked sn slot;
  t.unacked_total <- t.unacked_total + 1;
  if
    Fault_plan.killed_count t.plan > 0
    && (Fault_plan.is_killed t.plan ~node:dst || Fault_plan.is_killed t.plan ~node:src)
  then t.reap_pending <- true;
  sn

let release t payload =
  let i = t.nreleased in
  if i = Array.length t.released then t.released <- grow t.released payload;
  t.released.(i) <- payload;
  t.nreleased <- i + 1

(* Per-channel FIFO release: a retransmission that overtakes a later send
   must not reorder the application stream, so out-of-order arrivals are
   buffered until the gap closes.  An arrival that is next in order and
   finds nothing buffered (the common case) never touches the buffer
   table. *)
let receive_data t ~src ~dst ~sn payload =
  let ch = channel t ~src ~dst in
  t.nreleased <- 0;
  let buffering = Itbl.length ch.buffered > 0 in
  if sn < ch.next_deliver || (buffering && Itbl.mem ch.buffered sn) then
    Fault_plan.note_dup_suppressed t.plan
  else if sn > ch.next_deliver then Itbl.replace ch.buffered sn payload
  else begin
    release t payload;
    ch.next_deliver <- sn + 1;
    if buffering then
      while Itbl.mem ch.buffered ch.next_deliver do
        release t (Itbl.find ch.buffered ch.next_deliver);
        Itbl.remove ch.buffered ch.next_deliver;
        ch.next_deliver <- ch.next_deliver + 1
      done
  end;
  t.nreleased

let released t i = t.released.(i)

let receive_ack t ~src ~dst ~sn =
  (* [src -> dst] names the DATA direction; the ack travelled dst -> src. *)
  let ch = channel t ~src ~dst in
  match Itbl.find ch.unacked sn with
  | slot -> release_slot t ch sn slot
  | exception Not_found -> ()

let unacked t = t.unacked_total

let next_deadline t =
  if t.unacked_total = 0 then None
  else begin
    let d = ref infinity in
    for slot = 0 to t.slots - 1 do
      if t.attempts.(slot) >= 0 && t.deadlines.(slot) < !d then d := t.deadlines.(slot)
    done;
    Some !d
  end

(* A killed peer never acks: retransmitting at it forever would end in
   [Delivery_failed].  Abandon every outstanding packet on a channel whose
   endpoint is dead, counting each as a dead letter. *)
let reap_dead t trace =
  Hashtbl.iter
    (fun (src, dst) ch ->
      if
        Itbl.length ch.unacked > 0
        && (Fault_plan.is_killed t.plan ~node:dst || Fault_plan.is_killed t.plan ~node:src)
      then begin
        let sns = Itbl.fold (fun sn _ acc -> sn :: acc) ch.unacked [] in
        List.iter
          (fun sn ->
            release_slot t ch sn (Itbl.find ch.unacked sn);
            Fault_plan.note_dead_letter t.plan trace ~src ~dst)
          (List.sort Int.compare sns)
      end)
    t.channels

let due t trace =
  (* Only a newly committed kill, or a packet registered on a channel with
     a killed endpoint, can give the reaper something to do. *)
  if Fault_plan.killed_count t.plan <> t.reaped_kills || t.reap_pending then begin
    reap_dead t trace;
    t.reaped_kills <- Fault_plan.killed_count t.plan;
    t.reap_pending <- false
  end;
  t.ndue <- 0;
  let b = t.bound in
  if t.clock.now >= b.lower then begin
    b.scan_min <- infinity;
    t.scan_trace <- trace;
    Hashtbl.iter t.on_channel t.channels;
    b.lower <- b.scan_min
  end;
  t.ndue

(* [due] fills its buffer in visit order; packets go back on the wire in
   the reverse of it, as they always have. *)
let due_index t i = t.ndue - 1 - i
let due_src t i = t.due_srcs.(due_index t i)
let due_dst t i = t.due_dsts.(due_index t i)
let due_sn t i = t.due_sns.(due_index t i)
let due_payload t i = t.pays.(t.due_slots.(due_index t i))
