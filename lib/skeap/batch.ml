type op = Ins of int | Del

let op_prio = function
  | Ins p when p < 1 -> invalid_arg (Printf.sprintf "Batch.op_prio: priority %d must be >= 1" p)
  | Ins p -> p
  | Del -> 0

type t = { num_prios : int; counts : int array }

let empty ~num_prios = { num_prios; counts = [||] }

(* Entries of the shape ins* del*: a new one starts at the first op and
   when an insert follows a delete.  The entries are counted on the way
   down the list, and the vector, sized by the total, filled on the way
   back up. *)
let rec fill num_prios prio entries in_dels = function
  | [] -> Array.make (entries * (num_prios + 1)) 0
  | op :: rest ->
      let p = prio op in
      if p < 0 || p > num_prios then
        invalid_arg (Printf.sprintf "Batch.of_ops: priority %d outside [1,%d]" p num_prios);
      let entries = if entries = 0 || (p <> 0 && in_dels) then entries + 1 else entries in
      let counts = fill num_prios prio entries (p = 0) rest in
      let k = ((entries - 1) * (num_prios + 1)) + if p = 0 then num_prios else p - 1 in
      counts.(k) <- counts.(k) + 1;
      counts

let of_ops ~num_prios ~prio ops = { num_prios; counts = fill num_prios prio 0 false ops }

let num_prios t = t.num_prios
let num_entries t = Array.length t.counts / (t.num_prios + 1)
let count t k = if k < Array.length t.counts then t.counts.(k) else 0

let combine a b =
  if a.num_prios <> b.num_prios then invalid_arg "Batch.combine: differing priority universes";
  let la = Array.length a.counts and lb = Array.length b.counts in
  if la = 0 then b
  else if lb = 0 then a
  else
    let long, short = if la >= lb then (a.counts, b.counts) else (b.counts, a.counts) in
    let counts = Array.copy long in
    for k = 0 to Array.length short - 1 do
      counts.(k) <- counts.(k) + short.(k)
    done;
    { num_prios = a.num_prios; counts }

(* The sum of the delete counts ([dels]) or of the insert counts. *)
let total t ~dels =
  let acc = ref 0 in
  for k = 0 to Array.length t.counts - 1 do
    if (k mod (t.num_prios + 1) = t.num_prios) = dels then acc := !acc + t.counts.(k)
  done;
  !acc

let total_inserts t = total t ~dels:false
let total_deletes t = total t ~dels:true

let encoded_bits t =
  Array.fold_left (fun acc c -> acc + Dpq_util.Bitsize.bits_of_int c) 0 t.counts

let equal a b = a.num_prios = b.num_prios && a.counts = b.counts

let to_string t =
  let w = t.num_prios + 1 in
  let entry_s j =
    let ins = List.init t.num_prios (fun i -> string_of_int t.counts.((j * w) + i)) in
    let ins_s = String.concat "," ins in
    Printf.sprintf "(%s),%d" ins_s t.counts.((j * w) + t.num_prios)
  in
  "(" ^ String.concat "," (List.init (num_entries t) entry_s) ^ ")"
