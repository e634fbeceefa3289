module Trace = Dpq_obs.Trace

type channel = {
  id : int; (* index in the layer's [chans], carried in every packet's tag *)
  src : int;
  dst : int;
  fwd : int; (* the plan's index of src -> dst, where data travels *)
  rev : int; (* ... and of dst -> src, where acks travel *)
  hash : int; (* [Hashtbl.hash (src, dst)], its key in [order] *)
  mutable epoch : int; (* the [reset] generation the fields below belong to *)
  mutable next_sn : int; (* sender side: next sequence number to allocate *)
  mutable next_deliver : int; (* receiver side: next sn to release in order *)
  (* sender side: sn -> pool slot of the outstanding packet, in [nodes].
     Its visit order is the order [due] visits the channel's packets. *)
  unacked : Int_table.t;
  mutable nheld : int; (* receiver side: out-of-order arrivals held *)
}

(* Both float-only, so their fields are stored flat and writing them
   allocates nothing. *)
type clock = { mutable now : float }

(* [lower] is at most every outstanding deadline, and after a completed
   scan the least of the channels' own bounds ([lowers]); [scan_min]
   accumulates it during the scan, so a scan cut short by
   [Delivery_failed] leaves [lower] valid.  [chan_min] accumulates one
   channel's exact minimum while its packets are walked. *)
type bound = { mutable lower : float; mutable scan_min : float; mutable chan_min : float }

type 'msg t = {
  plan : Fault_plan.t;
  nodes : Int_table.store; (* the nodes of every table below *)
  (* Every channel ever opened, by id: a pool kept across [reset].  A
     channel whose [epoch] is not the layer's is stale — it is absent from
     [order] and is reset when next touched. *)
  mutable chans : channel array;
  mutable nchans : int;
  (* By channel id: at most the deadline of every packet the channel has
     outstanding, exactly their minimum after the scan that last walked
     them, and infinity once the channel has none.  A scan skips a
     channel whose bound is in the future: none of its packets is due. *)
  mutable lowers : float array;
  by_key : Int_table.t; (* [chan_key] -> channel id, read by [register] only *)
  (* The channels of this epoch, placed as a [(src, dst)]-keyed
     [Hashtbl.create 64] would hold them (key [Hashtbl.hash (src, dst)],
     hashed by identity; value the channel id): [due] and the reaper
     visit channels in its order, which the digests pin. *)
  order : Int_table.t;
  (* Out-of-order arrivals of every channel: data tag -> pool slot.
     Its order is never observed. *)
  held : Int_table.t;
  mutable epoch : int;
  base_rto : float;
  max_rto : float;
  max_attempts : int;
  mutable unacked_total : int;
  clock : clock;
  bound : bound;
  (* Outstanding packets and held arrivals live in a slot pool of
     parallel arrays.  A held arrival's slot has only its payload and
     attempts = -1, as a free slot has; a free slot also sits on the
     [free] stack. *)
  mutable pays : 'msg array;
  mutable attempts : int array; (* retransmissions so far *)
  mutable deadlines : float array;
  mutable rtos : float array;
  mutable free : int array;
  mutable nfree : int;
  mutable slots : int; (* high-water mark of the pool *)
  (* [due]'s result, in visit order: data tag and pool slot *)
  mutable due_tags : int array;
  mutable due_slots : int array;
  mutable ndue : int;
  (* [receive_data]'s result *)
  mutable released : 'msg array;
  mutable nreleased : int;
  (* kills already reaped, and whether a packet was since registered on a
     channel with a killed endpoint *)
  mutable reaped_kills : int;
  mutable reap_pending : bool;
}

exception Delivery_failed of string

(* Sequence number + ack flag: the wire overhead the reliable layer adds to
   every data packet; an ack is just this header. *)
let header_bits = 33

let chan_key ~src ~dst = (src lsl 31) lor dst
let grow = Int_table.grow

let push_due t ch sn slot =
  let i = t.ndue in
  if i = Array.length t.due_tags then begin
    t.due_tags <- grow t.due_tags 0;
    t.due_slots <- grow t.due_slots 0
  end;
  t.due_tags.(i) <- Roundq.data_tag ~chan:ch.id ~sn;
  t.due_slots.(i) <- slot;
  t.ndue <- i + 1

(* One outstanding packet of channel [ch]. *)
let scan_packet t trace ch sn slot =
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
              ch.src ch.dst sn t.max_attempts t.rtos.(slot) c.now));
    let rto = t.rtos.(slot) *. 2.0 in
    let rto = if rto < t.max_rto then rto else t.max_rto in
    t.rtos.(slot) <- rto;
    t.deadlines.(slot) <- c.now +. rto;
    Fault_plan.note_retransmit t.plan;
    Trace.retransmit trace ~src:ch.src ~dst:ch.dst ~attempt:attempts;
    push_due t ch sn slot
  end;
  if t.deadlines.(slot) < b.chan_min then b.chan_min <- t.deadlines.(slot)

(* Walk [ch]'s outstanding packets, retransmitting the due ones, and make
   its bound exact. *)
let scan_channel t trace ch =
  let st = t.nodes and u = ch.unacked and b = t.bound in
  b.chan_min <- infinity;
  if u.size > 0 then
    for bucket = 0 to u.nb - 1 do
      let node = ref u.heads.(bucket) in
      while !node >= 0 do
        scan_packet t trace ch st.keys.(!node) st.vals.(!node);
        node := st.next.(!node)
      done
    done;
  t.lowers.(ch.id) <- b.chan_min

(* Visit this epoch's channels in [order]'s order, walking the packets of
   those whose bound has come: a channel none of whose packets is due is
   passed over on its [lowers] entry alone, without touching its record.
   That changes nothing the scan returns, so the due packets keep their
   visit order. *)
let scan_channels t trace =
  let st = t.nodes and o = t.order and b = t.bound in
  if o.size > 0 then
    for bucket = 0 to o.nb - 1 do
      let node = ref o.heads.(bucket) in
      while !node >= 0 do
        let id = st.vals.(!node) in
        if t.lowers.(id) <= t.clock.now then scan_channel t trace t.chans.(id);
        if t.lowers.(id) < b.scan_min then b.scan_min <- t.lowers.(id);
        node := st.next.(!node)
      done
    done

(* Visit this epoch's channels in [order]'s order.  [f] is a top-level
   function, so passing it allocates nothing. *)
let iter_channels t trace f =
  let st = t.nodes and o = t.order in
  if o.size > 0 then
    for b = 0 to o.nb - 1 do
      let node = ref o.heads.(b) in
      while !node >= 0 do
        f t trace t.chans.(st.vals.(!node));
        node := st.next.(!node)
      done
    done

let create ?(base_rto = 4.0) ?(max_rto = 64.0) ?(max_attempts = 64) ~plan () =
  if base_rto <= 0.0 then invalid_arg "Reliable.create: base_rto must be positive";
  if max_attempts < 1 then invalid_arg "Reliable.create: max_attempts must be >= 1";
  {
    plan;
    nodes = Int_table.store ();
    chans = [||];
    nchans = 0;
    lowers = [||];
    by_key = Int_table.create ~hash:Int_table.scatter 64;
    order = Int_table.create ~hash:Fun.id 64;
    held = Int_table.create ~hash:Int_table.scatter 16;
    epoch = 0;
    base_rto;
    max_rto;
    max_attempts;
    unacked_total = 0;
    clock = { now = 0.0 };
    bound = { lower = infinity; scan_min = infinity; chan_min = infinity };
    pays = [||];
    attempts = [||];
    deadlines = [||];
    rtos = [||];
    free = [||];
    nfree = 0;
    slots = 0;
    due_tags = [||];
    due_slots = [||];
    ndue = 0;
    released = [||];
    nreleased = 0;
    reaped_kills = 0;
    reap_pending = false;
  }

let new_channel t ~src ~dst key =
  let ch =
    {
      id = t.nchans;
      src;
      dst;
      fwd = Fault_plan.channel t.plan ~src ~dst;
      rev = Fault_plan.channel t.plan ~src:dst ~dst:src;
      hash = Hashtbl.hash (src, dst);
      epoch = -1;
      next_sn = 0;
      next_deliver = 0;
      unacked = Int_table.create 8;
      nheld = 0;
    }
  in
  if t.nchans = Array.length t.chans then begin
    t.chans <- grow t.chans ch;
    t.lowers <- grow t.lowers infinity
  end;
  t.chans.(t.nchans) <- ch;
  t.nchans <- t.nchans + 1;
  Int_table.replace t.nodes t.by_key key ch.id;
  ch

(* The one lookup of the packet path: [register] resolves its channel
   here, and every later step of the packet finds the channel by the id
   in its tag.  A channel is entered in [order] when its first packet of
   an epoch is registered, so that table sees the insertions a fresh
   layer's would.  A new or pooled channel is reset then, its packet
   table back at its initial size, so it iterates exactly like a fresh
   one. *)
let channel t ~src ~dst =
  let key = chan_key ~src ~dst in
  let id = Int_table.find t.nodes t.by_key key in
  let ch = if id >= 0 then t.chans.(id) else new_channel t ~src ~dst key in
  if ch.epoch <> t.epoch then begin
    ch.epoch <- t.epoch;
    ch.next_sn <- 0;
    ch.next_deliver <- 0;
    ch.nheld <- 0;
    t.lowers.(ch.id) <- infinity;
    Int_table.reset t.nodes ch.unacked;
    Int_table.add t.nodes t.order ch.hash ch.id
  end;
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

let recycle_slot t slot =
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Forget an outstanding packet (acked or abandoned) whose table entry is
   already gone. *)
let free_slot t slot =
  t.attempts.(slot) <- -1;
  recycle_slot t slot;
  t.unacked_total <- t.unacked_total - 1

let clock t = t.clock

(* [order] goes back to its initial size, so [due] and the reaper visit
   channels in the order a fresh layer would.  The channel records stay
   pooled; the new epoch marks them all stale.  Arrivals still held (behind
   a reaped packet) are dropped with the slot pool. *)
let reset t =
  if t.unacked_total <> 0 then invalid_arg "Reliable.reset: unacknowledged packets outstanding";
  Int_table.reset t.nodes t.order;
  Int_table.reset t.nodes t.held;
  t.epoch <- t.epoch + 1;
  t.clock.now <- 0.0;
  t.bound.lower <- infinity;
  t.bound.scan_min <- infinity;
  t.nfree <- 0;
  t.slots <- 0;
  t.ndue <- 0;
  t.nreleased <- 0;
  t.reaped_kills <- 0;
  t.reap_pending <- false

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
  if deadline < t.lowers.(ch.id) then t.lowers.(ch.id) <- deadline;
  (* [sn] is fresh: no lookup before the insert. *)
  Int_table.add t.nodes ch.unacked sn slot;
  t.unacked_total <- t.unacked_total + 1;
  if
    Fault_plan.killed_count t.plan > 0
    && (Fault_plan.is_killed t.plan ~node:dst || Fault_plan.is_killed t.plan ~node:src)
  then t.reap_pending <- true;
  Roundq.data_tag ~chan:ch.id ~sn

let release t payload =
  let i = t.nreleased in
  if i = Array.length t.released then t.released <- grow t.released payload;
  t.released.(i) <- payload;
  t.nreleased <- i + 1

(* Release the held arrival next in order on [ch], if there is one. *)
let release_held t ch =
  let slot = Int_table.remove t.nodes t.held (Roundq.data_tag ~chan:ch.id ~sn:ch.next_deliver) in
  slot >= 0
  && begin
       release t t.pays.(slot);
       recycle_slot t slot;
       ch.nheld <- ch.nheld - 1;
       ch.next_deliver <- ch.next_deliver + 1;
       true
     end

(* Per-channel FIFO release: a retransmission that overtakes a later send
   must not reorder the application stream, so out-of-order arrivals are
   held until the gap closes.  An arrival that is next in order on a
   channel with nothing held (the common case) never touches [held]. *)
let receive_data t ~tag payload =
  let ch = t.chans.(Roundq.tag_chan tag) and sn = Roundq.tag_sn tag and st = t.nodes in
  t.nreleased <- 0;
  if sn < ch.next_deliver || (ch.nheld > 0 && Int_table.find st t.held tag >= 0) then
    Fault_plan.note_dup_suppressed t.plan
  else if sn > ch.next_deliver then begin
    let slot = alloc_slot t payload in
    t.pays.(slot) <- payload;
    t.attempts.(slot) <- -1;
    Int_table.replace st t.held tag slot;
    ch.nheld <- ch.nheld + 1
  end
  else begin
    release t payload;
    ch.next_deliver <- sn + 1;
    while ch.nheld > 0 && release_held t ch do
      ()
    done
  end;
  t.nreleased

let released t i = t.released.(i)

let receive_ack t ~tag =
  let ch = t.chans.(Roundq.tag_chan tag) in
  let slot = Int_table.remove t.nodes ch.unacked (Roundq.tag_sn tag) in
  if slot >= 0 then begin
    free_slot t slot;
    if ch.unacked.size = 0 then t.lowers.(ch.id) <- infinity
  end

let fault_channel t ~tag =
  let ch = t.chans.(Roundq.tag_chan tag) in
  if Roundq.is_ack tag then ch.rev else ch.fwd

let unacked t = t.unacked_total

let next_deadline t =
  let d = ref infinity in
  if t.unacked_total > 0 then
    for slot = 0 to t.slots - 1 do
      if t.attempts.(slot) >= 0 && t.deadlines.(slot) < !d then d := t.deadlines.(slot)
    done;
  !d

(* A killed peer never acks: retransmitting at it forever would end in
   [Delivery_failed].  Abandon every outstanding packet on a channel whose
   endpoint is dead, counting each as a dead letter.  A dead letter names
   only its channel, so the order within one channel is not observable. *)
let reap_channel t trace ch =
  let st = t.nodes and u = ch.unacked in
  if
    u.size > 0
    && (Fault_plan.is_killed t.plan ~node:ch.dst || Fault_plan.is_killed t.plan ~node:ch.src)
  then begin
    for b = 0 to u.nb - 1 do
      let node = ref u.heads.(b) in
      while !node >= 0 do
        free_slot t st.vals.(!node);
        Fault_plan.note_dead_letter t.plan trace ~src:ch.src ~dst:ch.dst;
        node := st.next.(!node)
      done
    done;
    Int_table.clear st u;
    t.lowers.(ch.id) <- infinity
  end

let due t trace =
  (* Only a newly committed kill, or a packet registered on a channel with
     a killed endpoint, can give the reaper something to do. *)
  if Fault_plan.killed_count t.plan <> t.reaped_kills || t.reap_pending then begin
    iter_channels t trace reap_channel;
    t.reaped_kills <- Fault_plan.killed_count t.plan;
    t.reap_pending <- false
  end;
  t.ndue <- 0;
  let b = t.bound in
  if t.clock.now >= b.lower then begin
    b.scan_min <- infinity;
    scan_channels t trace;
    b.lower <- b.scan_min
  end;
  t.ndue

(* [due] fills its buffer in visit order; packets go back on the wire in
   the reverse of it, as they always have. *)
let due_index t i = t.ndue - 1 - i
let due_tag t i = t.due_tags.(due_index t i)
let due_src t i = t.chans.(Roundq.tag_chan (due_tag t i)).src
let due_dst t i = t.chans.(Roundq.tag_chan (due_tag t i)).dst
let due_payload t i = t.pays.(t.due_slots.(due_index t i))
