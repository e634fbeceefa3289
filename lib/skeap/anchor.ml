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

let assign_entry t (e : Batch.entry) =
  (* Inserts first: fresh positions above last_p. *)
  let ins =
    Array.init t.num_prios (fun i ->
        let count = e.Batch.ins.(i) in
        if count = 0 then Interval.empty
        else begin
          let iv = Interval.of_first_card ~first:(t.last.(i) + 1) ~card:count in
          t.last.(i) <- t.last.(i) + count;
          iv
        end)
  in
  (* Deletes: drain the most prioritized non-empty intervals. *)
  let need = ref e.Batch.del in
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
  List.map (assign_entry t) (Batch.entries batch)

(* --------------------------------------------------------------- split *)

(* The parts are served in order, each entry by entry, from cursors into
   the assignment: per entry, how many insert positions of each priority
   and how many delete positions earlier parts took.  A piece that covers a
   whole interval, the whole rest of the delete list or the whole entry
   reuses it as is, and the parts that demand nothing share one empty
   piece; assignments are never mutated, so the sharing is invisible.  All
   state is local to the call: a virtual-edge delivery in [Phase.down]
   re-enters [split] while the caller's pieces are still being forwarded
   (DESIGN.md §12). *)

type split_state = {
  np : int;
  taken : int array;
      (* entry [j]: [taken.(j * (np + 1) + i)] insert positions of priority
         [i + 1], then at offset [np] the delete positions *)
  mutable zero : entry_assign;  (* [no_piece] until a part demands nothing *)
}

let no_piece = { ins = [||]; dels = []; bot = 0 }

let zero_piece st =
  if st.zero == no_piece then
    st.zero <- { ins = Array.make st.np Interval.empty; dels = []; bot = 0 };
  st.zero

(* The [want > 0] delete positions after the first [skip] of [dels], in
   draw order; [left] positions of [dels] follow the skipped ones.  Draws
   are never empty. *)
let rec take_dels dels ~skip ~want ~left =
  if skip = 0 && want >= left then dels
  else
    match dels with
    | [] -> []
    | ((prio, iv) as draw) :: tl ->
        let card = Interval.cardinality iv in
        if skip >= card then take_dels tl ~skip:(skip - card) ~want ~left
        else
          let avail = card - skip in
          let first = Interval.lo iv + skip in
          if want > avail then
            (if skip = 0 then draw else (prio, Interval.of_first_card ~first ~card:avail))
            :: take_dels tl ~skip:0 ~want:(want - avail) ~left:(left - avail)
          else if want = card then [ draw ]
          else [ (prio, Interval.of_first_card ~first ~card:want) ]

let serve st j (ea : entry_assign) (pe : Batch.entry) =
  let base = j * (st.np + 1) in
  let none = ref true and whole = ref true in
  for i = 0 to st.np - 1 do
    let want = pe.Batch.ins.(i) in
    let card = Interval.cardinality ea.ins.(i) in
    if want < 0 || st.taken.(base + i) + want > card then
      invalid_arg "Anchor.split: insert demand exceeds the interval";
    if want <> 0 then none := false;
    if want <> card then whole := false
  done;
  let ins =
    if !none then (zero_piece st).ins
    else if !whole then ea.ins
    else begin
      let a = Array.make st.np Interval.empty in
      for i = 0 to st.np - 1 do
        let want = pe.Batch.ins.(i) and iv = ea.ins.(i) in
        if want > 0 then
          a.(i) <-
            (if want = Interval.cardinality iv then iv
             else Interval.of_first_card ~first:(Interval.lo iv + st.taken.(base + i)) ~card:want)
      done;
      a
    end
  in
  for i = 0 to st.np - 1 do
    st.taken.(base + i) <- st.taken.(base + i) + pe.Batch.ins.(i)
  done;
  let want = pe.Batch.del in
  let skip = st.taken.(base + st.np) in
  if want <= 0 then
    if !none && want = 0 then zero_piece st
    else if ins == ea.ins && ea.dels = [] && ea.bot = want then ea
    else { ins; dels = []; bot = want }
  else begin
    let total = List.fold_left (fun acc (_, iv) -> acc + Interval.cardinality iv) 0 ea.dels in
    let left = max 0 (total - skip) in
    let dels = take_dels ea.dels ~skip ~want ~left in
    let bot = max 0 (want - left) in
    st.taken.(base + st.np) <- skip + want;
    if ins == ea.ins && dels == ea.dels && bot = ea.bot then ea else { ins; dels; bot }
  end

(* One part's pieces, entry by entry; a part with fewer entries than the
   assignment demands nothing of the rest. *)
let rec serve_part st j assignment part_entries =
  match (assignment, part_entries) with
  | [], _ -> []
  | _ :: rest, [] -> zero_piece st :: serve_part st (j + 1) rest []
  | ea :: rest, pe :: pes ->
      let piece = serve st j ea pe in
      piece :: serve_part st (j + 1) rest pes

let rec serve_parts st assignment = function
  | [] -> []
  | part :: parts ->
      let pieces = serve_part st 0 assignment (Batch.entries part) in
      pieces :: serve_parts st assignment parts

let split ~num_prios assignment ~parts =
  let st =
    {
      np = num_prios;
      taken = Array.make (List.length assignment * (num_prios + 1)) 0;
      zero = no_piece;
    }
  in
  serve_parts st assignment parts

let assignment_bits assignment =
  let iv_bits iv =
    if Interval.is_empty iv then 2
    else Dpq_util.Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv)
  in
  List.fold_left
    (fun acc ea ->
      acc
      + Array.fold_left (fun a iv -> a + iv_bits iv) 0 ea.ins
      + List.fold_left (fun a (_, iv) -> a + 8 + iv_bits iv) 0 ea.dels
      + Dpq_util.Bitsize.bits_of_int ea.bot)
    0 assignment
