type op = Ins of int | Del
type entry = { ins : int array; del : int }
type t = { num_prios : int; entries : entry list }

let empty ~num_prios = { num_prios; entries = [] }

let group_ops ops =
  (* Maximal groups of the shape ins* del*: a new group starts when an
     insert follows a delete. *)
  let rec go current in_dels acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (Ins _ as op) :: rest ->
        if in_dels then go [ op ] false (List.rev current :: acc) rest
        else go (op :: current) false acc rest
    | Del :: rest -> go (Del :: current) true acc rest
  in
  go [] false [] ops

let of_ops ~num_prios ops =
  let entry_of_group group =
    let ins = Array.make num_prios 0 in
    let del = ref 0 in
    List.iter
      (fun op ->
        match op with
        | Ins p ->
            if p < 1 || p > num_prios then
              invalid_arg (Printf.sprintf "Batch.of_ops: priority %d outside [1,%d]" p num_prios);
            ins.(p - 1) <- ins.(p - 1) + 1
        | Del -> incr del)
      group;
    { ins; del = !del }
  in
  { num_prios; entries = List.map entry_of_group (group_ops ops) }

let num_prios t = t.num_prios
let entries t = t.entries

let combine_entry num_prios a b =
  let ins = Array.make num_prios 0 in
  for i = 0 to num_prios - 1 do
    ins.(i) <- a.ins.(i) + b.ins.(i)
  done;
  { ins; del = a.del + b.del }

(* Entries are never mutated, so the longer batch's tail is shared. *)
let rec zip np xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs, y :: ys -> combine_entry np x y :: zip np xs ys

let combine a b =
  if a.num_prios <> b.num_prios then invalid_arg "Batch.combine: differing priority universes";
  match (a.entries, b.entries) with
  | [], _ -> b
  | _, [] -> a
  | xs, ys -> { num_prios = a.num_prios; entries = zip a.num_prios xs ys }

let total_inserts t =
  List.fold_left (fun acc e -> acc + Array.fold_left ( + ) 0 e.ins) 0 t.entries

let total_deletes t = List.fold_left (fun acc e -> acc + e.del) 0 t.entries

let encoded_bits t =
  List.fold_left
    (fun acc e ->
      acc + Dpq_util.Bitsize.bits_of_int e.del
      + Array.fold_left (fun a c -> a + Dpq_util.Bitsize.bits_of_int c) 0 e.ins)
    0 t.entries

let equal a b =
  a.num_prios = b.num_prios
  && List.length a.entries = List.length b.entries
  && List.for_all2 (fun x y -> x.ins = y.ins && x.del = y.del) a.entries b.entries

let to_string t =
  let entry_s e =
    let ins_s = String.concat "," (Array.to_list (Array.map string_of_int e.ins)) in
    Printf.sprintf "(%s),%d" ins_s e.del
  in
  "(" ^ String.concat "," (List.map entry_s t.entries) ^ ")"
