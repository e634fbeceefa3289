module Trace = Dpq_obs.Trace

(* Int-keyed chained hash tables held in flat int arrays.  Every table
   draws its nodes from a [store] shared by all the tables of one layer;
   a table owns only its bucket heads.  The layout is [Hashtbl]'s, so the
   visit order is too: bucket [hash key land (buckets - 1)], a new key at
   the head of its bucket, doubling once size exceeds twice the buckets
   with each bucket split in order, and [reset] back to the initial
   bucket count. *)
module Int_table = struct
  type store = {
    mutable next : int array; (* next node in the bucket, or -1 *)
    mutable keys : int array;
    mutable vals : int array;
    mutable free : int; (* free nodes, chained through [next]; -1 if none *)
    mutable used : int; (* nodes ever handed out *)
  }

  (* [heads] has [nb] buckets, or is empty until the first insert. *)
  type t = {
    hash : int -> int;
    initial : int;
    mutable nb : int;
    mutable heads : int array;
    mutable size : int;
  }

  let store () = { next = [||]; keys = [||]; vals = [||]; free = -1; used = 0 }

  (* [Hashtbl.create n]'s bucket count. *)
  let create ?(hash = Int.hash) n =
    let rec pow2 x = if x >= n then x else pow2 (2 * x) in
    let b = pow2 16 in
    { hash; initial = b; nb = b; heads = [||]; size = 0 }

  let length t = t.size

  let grow a fill =
    let a' = Array.make (max 16 (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let alloc st =
    if st.free >= 0 then begin
      let node = st.free in
      st.free <- st.next.(node);
      node
    end
    else begin
      let node = st.used in
      if node = Array.length st.next then begin
        st.next <- grow st.next (-1);
        st.keys <- grow st.keys 0;
        st.vals <- grow st.vals 0
      end;
      st.used <- node + 1;
      node
    end

  (* Split every bucket [i] into [i] and [i + nb], each keeping the order
     its nodes had, as [Hashtbl]'s in-place resize does. *)
  let resize st t =
    let nb = t.nb in
    let heads = Array.make (2 * nb) (-1) in
    for i = 0 to nb - 1 do
      let node = ref t.heads.(i) in
      let lo = ref (-1) and hi = ref (-1) in
      while !node >= 0 do
        let n = !node in
        node := st.next.(n);
        st.next.(n) <- -1;
        if t.hash st.keys.(n) land nb = 0 then begin
          if !lo < 0 then heads.(i) <- n else st.next.(!lo) <- n;
          lo := n
        end
        else begin
          if !hi < 0 then heads.(i + nb) <- n else st.next.(!hi) <- n;
          hi := n
        end
      done
    done;
    t.heads <- heads;
    t.nb <- 2 * nb

  let add st t key v =
    if Array.length t.heads < t.nb then t.heads <- Array.make t.nb (-1);
    let node = alloc st in
    let b = t.hash key land (t.nb - 1) in
    st.keys.(node) <- key;
    st.vals.(node) <- v;
    st.next.(node) <- t.heads.(b);
    t.heads.(b) <- node;
    t.size <- t.size + 1;
    if t.size > 2 * t.nb then resize st t

  (* The node holding [key], or -1. *)
  let find_node st t key =
    if t.size = 0 then -1
    else begin
      let node = ref t.heads.(t.hash key land (t.nb - 1)) in
      while !node >= 0 && st.keys.(!node) <> key do
        node := st.next.(!node)
      done;
      !node
    end

  let find st t key =
    let node = find_node st t key in
    if node < 0 then -1 else st.vals.(node)

  let replace st t key v =
    let node = find_node st t key in
    if node >= 0 then st.vals.(node) <- v else add st t key v

  let remove st t key =
    if t.size = 0 then -1
    else begin
      let b = t.hash key land (t.nb - 1) in
      let prev = ref (-1) and node = ref t.heads.(b) in
      while !node >= 0 && st.keys.(!node) <> key do
        prev := !node;
        node := st.next.(!node)
      done;
      let n = !node in
      if n < 0 then -1
      else begin
        if !prev < 0 then t.heads.(b) <- st.next.(n) else st.next.(!prev) <- st.next.(n);
        st.next.(n) <- st.free;
        st.free <- n;
        t.size <- t.size - 1;
        st.vals.(n)
      end
    end

  (* Empty the table, keeping its bucket count, as [Hashtbl.clear]. *)
  let clear st t =
    if t.size > 0 then begin
      for b = 0 to t.nb - 1 do
        let node = ref t.heads.(b) in
        while !node >= 0 do
          let n = !node in
          node := st.next.(n);
          st.next.(n) <- st.free;
          st.free <- n
        done;
        t.heads.(b) <- -1
      done;
      t.size <- 0
    end

  let reset st t =
    clear st t;
    if t.nb > t.initial then begin
      t.heads <- [||];
      t.nb <- t.initial
    end

  let fold st t f acc =
    let acc = ref acc in
    if t.size > 0 then
      for b = 0 to t.nb - 1 do
        let node = ref t.heads.(b) in
        while !node >= 0 do
          acc := f st.keys.(!node) st.vals.(!node) !acc;
          node := st.next.(!node)
        done
      done;
    !acc
end

type channel = {
  id : int; (* index in the layer's [chans] *)
  src : int;
  dst : int;
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

(* [lower] is at most every outstanding deadline, and exactly their
   minimum after a completed scan; [scan_min] accumulates that minimum
   during the scan, so a scan cut short by [Delivery_failed] leaves
   [lower] valid. *)
type bound = { mutable lower : float; mutable scan_min : float }

type 'msg t = {
  plan : Fault_plan.t;
  nodes : Int_table.store; (* the nodes of every table below *)
  (* Every channel ever opened, by id: a pool kept across [reset].  A
     channel whose [epoch] is not the layer's is stale — it is absent from
     [order] and is reset when next touched. *)
  mutable chans : channel array;
  mutable nchans : int;
  by_key : Int_table.t; (* [chan_key] -> channel id *)
  (* The channels of this epoch, placed as a [(src, dst)]-keyed
     [Hashtbl.create 64] would hold them (key [Hashtbl.hash (src, dst)],
     hashed by identity; value the channel id): [due] and the reaper
     visit channels in its order, which the digests pin. *)
  order : Int_table.t;
  (* Out-of-order arrivals of every channel: [held_key] -> pool slot.
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
}

exception Delivery_failed of string

(* Sequence number + ack flag: the wire overhead the reliable layer adds to
   every data packet; an ack is just this header. *)
let header_bits = 33

let chan_key ~src ~dst = (src lsl 31) lor dst
let grow = Int_table.grow

let held_key ch sn = (ch.id lsl 31) lor sn

let push_due t ch sn slot =
  let i = t.ndue in
  if i = Array.length t.due_sns then begin
    t.due_srcs <- grow t.due_srcs 0;
    t.due_dsts <- grow t.due_dsts 0;
    t.due_sns <- grow t.due_sns 0;
    t.due_slots <- grow t.due_slots 0
  end;
  t.due_srcs.(i) <- ch.src;
  t.due_dsts.(i) <- ch.dst;
  t.due_sns.(i) <- sn;
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
  if t.deadlines.(slot) < b.scan_min then b.scan_min <- t.deadlines.(slot)

let scan_channel t trace ch =
  let st = t.nodes and u = ch.unacked in
  if u.size > 0 then
    for b = 0 to u.nb - 1 do
      let node = ref u.heads.(b) in
      while !node >= 0 do
        scan_packet t trace ch st.keys.(!node) st.vals.(!node);
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
    by_key = Int_table.create 64;
    order = Int_table.create ~hash:Fun.id 64;
    held = Int_table.create 16;
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
  }

let new_channel t ~src ~dst key =
  let ch =
    {
      id = t.nchans;
      src;
      dst;
      hash = Hashtbl.hash (src, dst);
      epoch = -1;
      next_sn = 0;
      next_deliver = 0;
      unacked = Int_table.create 8;
      nheld = 0;
    }
  in
  if t.nchans = Array.length t.chans then t.chans <- grow t.chans ch;
  t.chans.(t.nchans) <- ch;
  t.nchans <- t.nchans + 1;
  Int_table.replace t.nodes t.by_key key ch.id;
  ch

(* A channel is entered in [order] when first touched in an epoch, so
   that table sees the insertions a fresh layer's would.  A new or pooled
   channel is reset then, its packet table back at its initial size, so
   it iterates exactly like a fresh one. *)
let channel t ~src ~dst =
  let key = chan_key ~src ~dst in
  let id = Int_table.find t.nodes t.by_key key in
  let ch = if id >= 0 then t.chans.(id) else new_channel t ~src ~dst key in
  if ch.epoch <> t.epoch then begin
    ch.epoch <- t.epoch;
    ch.next_sn <- 0;
    ch.next_deliver <- 0;
    ch.nheld <- 0;
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
  Int_table.replace t.nodes ch.unacked sn slot;
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

(* Release the held arrival next in order on [ch], if there is one. *)
let release_held t ch =
  let slot = Int_table.remove t.nodes t.held (held_key ch ch.next_deliver) in
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
let receive_data t ~src ~dst ~sn payload =
  let ch = channel t ~src ~dst and st = t.nodes in
  t.nreleased <- 0;
  if sn < ch.next_deliver || (ch.nheld > 0 && Int_table.find st t.held (held_key ch sn) >= 0) then
    Fault_plan.note_dup_suppressed t.plan
  else if sn > ch.next_deliver then begin
    let slot = alloc_slot t payload in
    t.pays.(slot) <- payload;
    t.attempts.(slot) <- -1;
    Int_table.replace st t.held (held_key ch sn) slot;
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

let receive_ack t ~src ~dst ~sn =
  (* [src -> dst] names the DATA direction; the ack travelled dst -> src. *)
  let ch = channel t ~src ~dst in
  let slot = Int_table.remove t.nodes ch.unacked sn in
  if slot >= 0 then free_slot t slot

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
    Int_table.clear st u
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
    iter_channels t trace scan_channel;
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
