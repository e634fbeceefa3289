(* Calendar queue for the synchronous engine: a small ring of buckets keyed
   by absolute delivery round, each bucket a struct-of-arrays batch.  The
   engine only ever populates the current round and the next one, but the
   ring keeps the indexing honest (every add names its delivery round and
   lands in that round's bucket).

   Buckets are recycled, not freed: [take] detaches the round's bucket for
   delivery, [recycle] returns it with its column arrays intact, so the
   steady state allocates nothing per message — this is the message-record
   pool.  A message occupies three columns: a packed metadata word, a wire
   tag and the payload.

   The metadata word packs [(src lsl 32) lor (dst lsl 8) lor defers]: node
   ids are bounded by the guard in [add] (dst < 2^24 — far beyond any
   simulable n) and deferral counts by Sched.max_defers < 2^8, so one array
   read (plus shifts) recovers all three on the delivery fast path, and a
   deferral is the single increment [meta + 1] (the low byte cannot carry
   into dst).

   Wire tags distinguish the reliable layer's packets from plain protocol
   messages without an allocated envelope/variant per message, and name
   the reliable channel a packet belongs to, so no receiver looks it up:

     tag = -1                              a plain protocol message
                                           (the fault-free fast path)
     tag = (sn lsl 31) lor (chan lsl 1)    a reliable-layer Data packet:
                                           sequence number sn on channel
                                           id chan
     tag = data tag lor 1                  its Ack (payload is a dummy)

   A channel id has 30 bits and a sequence number 31, so a tag stays a
   non-negative 62-bit int; [data_tag] refuses a value that would spill
   into its neighbour's bits instead of aliasing another channel.  Both
   engines build their tags here (the asynchronous one's {!Eventq} carries
   the same encoding). *)

type 'msg bucket = {
  mutable round : int; (* the absolute round this bucket delivers in *)
  mutable metas : int array; (* (src lsl 32) lor (dst lsl 8) lor defers *)
  mutable tags : int array;
  mutable pays : 'msg array;
  mutable len : int;
}

let pack ~src ~dst ~defers = (src lsl 32) lor (dst lsl 8) lor defers
let src (b : _ bucket) i = b.metas.(i) lsr 32
let dst (b : _ bucket) i = (b.metas.(i) lsr 8) land 0xffffff
let defers (b : _ bucket) i = b.metas.(i) land 0xff
let meta (b : _ bucket) i = b.metas.(i)
let meta_src m = m lsr 32
let meta_dst m = (m lsr 8) land 0xffffff

let tag_plain = -1
let chan_bits = 30
let sn_bits = 31

(* [lsr] makes a negative value huge, so one test covers both ends. *)
let data_tag ~chan ~sn =
  if chan lsr chan_bits <> 0 then
    invalid_arg (Printf.sprintf "Roundq.data_tag: channel id %d outside [0, 2^%d)" chan chan_bits);
  if sn lsr sn_bits <> 0 then
    invalid_arg (Printf.sprintf "Roundq.data_tag: sequence number %d outside [0, 2^%d)" sn sn_bits);
  (sn lsl (chan_bits + 1)) lor (chan lsl 1)

let ack_tag data = data lor 1
let is_ack tag = tag land 1 = 1
let tag_chan tag = (tag lsr 1) land ((1 lsl chan_bits) - 1)
let tag_sn tag = tag lsr (chan_bits + 1)

let ring_size = 4 (* engine adds only at [base] or [base + 1]; 4 is slack *)

type 'msg t = {
  ring : 'msg bucket array;
  mutable base : int; (* earliest round the queue can still deliver *)
  mutable total : int;
}

let new_bucket round = { round; metas = [||]; tags = [||]; pays = [||]; len = 0 }
let create () = { ring = Array.init ring_size new_bucket; base = 0; total = 0 }

let pending t = t.total
let is_empty t = t.total = 0

let grow b payload =
  let cap = Array.length b.metas in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let copy a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.metas <- copy b.metas 0;
  b.tags <- copy b.tags 0;
  (* The payload being pushed doubles as the fill element, so no dummy
     value is ever needed. *)
  b.pays <- copy b.pays payload

let add_packed t ~round ~meta ~tag payload =
  if round < t.base || round >= t.base + ring_size then
    invalid_arg
      (Printf.sprintf "Roundq.add: round %d outside [%d, %d)" round t.base (t.base + ring_size));
  let b = t.ring.(round mod ring_size) in
  b.round <- round;
  if b.len = Array.length b.metas then grow b payload;
  let i = b.len in
  b.metas.(i) <- meta;
  b.tags.(i) <- tag;
  b.pays.(i) <- payload;
  b.len <- i + 1;
  t.total <- t.total + 1

let add t ~round ~src ~dst ~tag ~defers payload =
  if (src lor dst) lsr 24 <> 0 || defers lsr 8 <> 0 then
    invalid_arg "Roundq.add: src/dst/defers out of packed-word range";
  add_packed t ~round ~meta:(pack ~src ~dst ~defers) ~tag payload

let take t ~round =
  if round <> t.base then
    invalid_arg (Printf.sprintf "Roundq.take: round %d but base is %d" round t.base);
  let b = t.ring.(round mod ring_size) in
  if b.len > 0 && b.round <> round then
    invalid_arg (Printf.sprintf "Roundq.take: bucket holds round %d, expected %d" b.round round);
  t.base <- round + 1;
  t.total <- t.total - b.len;
  b

let recycle _t (b : _ bucket) = b.len <- 0

let reset t =
  if t.total <> 0 then invalid_arg "Roundq.reset: queue not empty";
  t.base <- 0
