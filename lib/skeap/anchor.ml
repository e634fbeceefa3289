module Interval = Dpq_util.Interval

type t = { num_prios : int; first : int array; last : int array }

let create ~num_prios =
  if num_prios < 1 then invalid_arg "Anchor.create: need at least one priority";
  { num_prios; first = Array.make num_prios 1; last = Array.make num_prios 0 }

let occupied t ~prio = t.last.(prio - 1) - t.first.(prio - 1) + 1

let total_occupied t =
  let acc = ref 0 in
  for p = 1 to t.num_prios do
    acc := !acc + occupied t ~prio:p
  done;
  !acc

let first t ~prio = t.first.(prio - 1)
let last t ~prio = t.last.(prio - 1)

type entry_assign = {
  ins : Interval.t array;
  dels : (int * Interval.t) list;
  bot : int;
}

type assignment = entry_assign list

let assign_entry t batch e =
  let base = e * (t.num_prios + 1) in
  (* Inserts first: fresh positions above last_p. *)
  let ins =
    Array.init t.num_prios (fun i ->
        let count = Batch.count batch (base + i) in
        if count = 0 then Interval.empty
        else begin
          let iv = Interval.of_first_card ~first:(t.last.(i) + 1) ~card:count in
          t.last.(i) <- t.last.(i) + count;
          iv
        end)
  in
  (* Deletes: drain the most prioritized non-empty intervals. *)
  let need = ref (Batch.count batch (base + t.num_prios)) in
  let dels = ref [] in
  let p = ref 0 in
  while !need > 0 && !p < t.num_prios do
    let avail = t.last.(!p) - t.first.(!p) + 1 in
    if avail > 0 then begin
      let take = min !need avail in
      dels := (!p + 1, Interval.of_first_card ~first:t.first.(!p) ~card:take) :: !dels;
      t.first.(!p) <- t.first.(!p) + take;
      need := !need - take
    end;
    if !need > 0 then incr p
  done;
  { ins; dels = List.rev !dels; bot = !need }

let assign t batch =
  if Batch.num_prios batch <> t.num_prios then
    invalid_arg "Anchor.assign: batch priority universe mismatch";
  (* Entries in order: each one moves the interval state. *)
  let rec from e =
    if e = Batch.num_entries batch then []
    else
      let ea = assign_entry t batch e in
      ea :: from (e + 1)
  in
  from 0

(* ------------------------------------------------------------- columns *)

(* A column is a nonzero count of the combined batch, at vector index
   [slot] (the batch layout, [width = num_prios + 1] slots per entry).
   Every entry's draws are stored flat: entry [e]'s are [from.(e) ..
   from.(e + 1) - 1], and draw [d] holds the entry's delete offsets
   [d_off.(d) .. d_end.(d) - 1], priority [d_prio.(d)] from position
   [d_lo.(d)] on. *)
type columns = {
  width : int;
  slot : int array;
  first : int array;
  column : int array;  (* vector index -> column, -1 for a zero count *)
  empty_bits : int;
  from : int array;
  d_prio : int array;
  d_lo : int array;
  d_off : int array;
  d_end : int array;
}

let columns assignment batch =
  let np = Batch.num_prios batch and entries = Batch.num_entries batch in
  let width = np + 1 in
  let column = Array.make (entries * width) (-1) in
  let ncols = ref 0 and empty_bits = ref 0 in
  for k = 0 to (entries * width) - 1 do
    if Batch.count batch k > 0 then begin
      column.(k) <- !ncols;
      incr ncols
    end
    else
      empty_bits :=
        !empty_bits + if k mod width = np then Dpq_util.Bitsize.bits_of_int 0 else 2
  done;
  let ndraws = List.fold_left (fun acc ea -> acc + List.length ea.dels) 0 assignment in
  let c =
    {
      width;
      slot = Array.make !ncols 0;
      first = Array.make !ncols 0;
      column;
      empty_bits = !empty_bits;
      from = Array.make (entries + 1) ndraws;
      d_prio = Array.make ndraws 0;
      d_lo = Array.make ndraws 0;
      d_off = Array.make ndraws 0;
      d_end = Array.make ndraws 0;
    }
  in
  let d = ref 0 in
  List.iteri
    (fun e ea ->
      for i = 0 to np do
        let k = (e * width) + i in
        let j = column.(k) in
        if j >= 0 then begin
          c.slot.(j) <- k;
          c.first.(j) <- (if i < np then Interval.lo ea.ins.(i) else 0)
        end
      done;
      c.from.(e) <- !d;
      let off = ref 0 in
      List.iter
        (fun (prio, iv) ->
          c.d_prio.(!d) <- prio;
          c.d_lo.(!d) <- Interval.lo iv;
          c.d_off.(!d) <- !off;
          off := !off + Interval.cardinality iv;
          c.d_end.(!d) <- !off;
          incr d)
        ea.dels)
    assignment;
  c

let firsts c = c.first
let size c b j = Batch.count b c.slot.(j)
let empty_bits c = c.empty_bits
let column c ~entry ~prio =
  c.column.((entry * c.width) + if prio = 0 then c.width - 1 else prio - 1)
let draw_prio c d = c.d_prio.(d)
let draw_pos c d off = c.d_lo.(d) + off - c.d_off.(d)

(* One past the entry's last draw offset. *)
let matched c e = if c.from.(e + 1) > c.from.(e) then c.d_end.(c.from.(e + 1) - 1) else 0

let draw c ~entry off =
  if off >= matched c entry then -1
  else begin
    (* the last draw of the entry starting at or before [off] *)
    let lo = ref c.from.(entry) and hi = ref (c.from.(entry + 1) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if c.d_off.(mid) <= off then lo := mid else hi := mid - 1
    done;
    !lo
  end

let interval_bits ~lo ~size = Dpq_util.Bitsize.interval_bits ~lo ~hi:(lo + size - 1)

let bits c j start size =
  let k = c.slot.(j) in
  if k mod c.width <> c.width - 1 then if size = 0 then 2 else interval_bits ~lo:start ~size
  else begin
    (* Offsets [start, stop) are matched, the rest of the piece is ⊥. *)
    let e = k / c.width in
    let stop = max start (min (start + size) (matched c e)) in
    let acc = ref (Dpq_util.Bitsize.bits_of_int (size - (stop - start))) in
    if stop > start then begin
      let d = ref (draw c ~entry:e start) in
      while !d < c.from.(e + 1) && c.d_off.(!d) < stop do
        let a = max start c.d_off.(!d) and b = min stop c.d_end.(!d) in
        acc := !acc + 8 + interval_bits ~lo:(draw_pos c !d a) ~size:(b - a);
        incr d
      done
    end;
    !acc
  end
