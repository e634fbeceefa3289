module Interval = Dpq_util.Interval

type t = { num_prios : int; first : int array; last : int array }

let create ~num_prios =
  if num_prios < 1 then invalid_arg "Anchor.create: need at least one priority";
  { num_prios; first = Array.make num_prios 1; last = Array.make num_prios 0 }

let num_prios t = t.num_prios
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

(* Split a tagged delete collection into chunks of the given sizes; sizes
   may exceed what is available — the shortage becomes ⊥ counts. *)
let split_dels dels sizes =
  let rest = ref dels in
  List.map
    (fun want ->
      let got = ref [] in
      let need = ref want in
      let continue = ref true in
      while !need > 0 && !continue do
        match !rest with
        | [] -> continue := false
        | (prio, iv) :: tl ->
            let front, back = Interval.take iv !need in
            need := !need - Interval.cardinality front;
            got := (prio, front) :: !got;
            rest := (if Interval.is_empty back then tl else (prio, back) :: tl)
      done;
      (List.rev !got, !need))
    sizes

let split_entry ~num_prios (ea : entry_assign) (part_entries : Batch.entry list) =
  (* Per priority, split the insert interval by the parts' demands. *)
  let ins_parts =
    Array.init num_prios (fun i ->
        let sizes = List.map (fun (pe : Batch.entry) -> pe.Batch.ins.(i)) part_entries in
        Interval.split_sizes ea.ins.(i) sizes)
  in
  let del_sizes = List.map (fun (pe : Batch.entry) -> pe.Batch.del) part_entries in
  let del_parts = split_dels ea.dels del_sizes in
  List.mapi
    (fun k _ ->
      let dels, bot = List.nth del_parts k in
      {
        ins = Array.init num_prios (fun i -> List.nth ins_parts.(i) k);
        dels;
        bot;
      })
    part_entries

let zero_entry num_prios : Batch.entry = { Batch.ins = Array.make num_prios 0; del = 0 }

let split ~num_prios assignment ~parts =
  let part_entry_lists = List.map Batch.entries parts in
  let nparts = List.length parts in
  (* Pad every part to the assignment's entry count with zero entries. *)
  let rec nth_or_zero lst j =
    match lst with
    | [] -> zero_entry num_prios
    | x :: tl -> if j = 0 then x else nth_or_zero tl (j - 1)
  in
  let per_entry =
    List.mapi
      (fun j ea ->
        let part_entries = List.map (fun pl -> nth_or_zero pl j) part_entry_lists in
        split_entry ~num_prios ea part_entries)
      assignment
  in
  (* Transpose: per part, the list of its entry assignments. *)
  List.init nparts (fun k -> List.map (fun entry_parts -> List.nth entry_parts k) per_entry)

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

