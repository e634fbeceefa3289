type t = {
  n : int;
  mutable rounds : int;
  mutable total_messages : int;
  mutable total_bits : int;
  mutable local_deliveries : int;
  mutable max_message_bits : int;
  mutable max_congestion : int;
  node_load : int array;
  (* congestion tracking: [cur.(i)] packs node [i]'s delivery count in
     the round being filled (low [count_bits] bits) under the epoch it was
     stamped in; a count from an older epoch reads as 0.  The epoch
     advances whenever the round changes, so nothing is ever scanned or
     cleared per round. *)
  mutable cur_round : int;
  mutable epoch : int;
  cur : int array;
}

let count_bits = 31

let create ~n =
  {
    n;
    rounds = 0;
    total_messages = 0;
    total_bits = 0;
    local_deliveries = 0;
    max_message_bits = 0;
    max_congestion = 0;
    node_load = Array.make n 0;
    cur_round = -1;
    epoch = 0;
    cur = Array.make n 0;
  }

let n t = t.n

let record_delivery t ~round ~dst ~bits =
  if round <> t.cur_round then begin
    t.epoch <- t.epoch + 1;
    t.cur_round <- round
  end;
  if round + 1 > t.rounds then t.rounds <- round + 1;
  t.total_messages <- t.total_messages + 1;
  t.total_bits <- t.total_bits + bits;
  if bits > t.max_message_bits then t.max_message_bits <- bits;
  t.node_load.(dst) <- t.node_load.(dst) + 1;
  let v = t.cur.(dst) in
  let c = if v lsr count_bits = t.epoch then (v land ((1 lsl count_bits) - 1)) + 1 else 1 in
  t.cur.(dst) <- (t.epoch lsl count_bits) lor c;
  if c > t.max_congestion then t.max_congestion <- c

let record_local t = t.local_deliveries <- t.local_deliveries + 1

let rounds t = t.rounds
let total_messages t = t.total_messages
let total_bits t = t.total_bits
let local_deliveries t = t.local_deliveries
let max_message_bits t = t.max_message_bits

let max_congestion t = t.max_congestion

let node_load t = Array.copy t.node_load

let reset t =
  t.rounds <- 0;
  t.total_messages <- 0;
  t.total_bits <- 0;
  t.local_deliveries <- 0;
  t.max_message_bits <- 0;
  t.max_congestion <- 0;
  t.cur_round <- -1;
  t.epoch <- 0;
  Array.fill t.node_load 0 t.n 0;
  Array.fill t.cur 0 t.n 0

let merge_max acc t =
  acc.rounds <- acc.rounds + rounds t;
  acc.total_messages <- acc.total_messages + total_messages t;
  acc.total_bits <- acc.total_bits + total_bits t;
  acc.local_deliveries <- acc.local_deliveries + local_deliveries t;
  acc.max_message_bits <- max acc.max_message_bits (max_message_bits t);
  acc.max_congestion <- max acc.max_congestion (max_congestion t);
  let load = node_load t in
  Array.iteri (fun i v -> acc.node_load.(i) <- acc.node_load.(i) + v) load
