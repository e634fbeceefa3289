type t = Empty | Range of { lo : int; hi : int }

let empty = Empty
let make lo hi = if hi < lo then Empty else Range { lo; hi }

let of_first_card ~first ~card =
  if card <= 0 then Empty else Range { lo = first; hi = first + card - 1 }

let is_empty = function Empty -> true | Range _ -> false

let lo = function
  | Empty -> invalid_arg "Interval.lo: empty interval"
  | Range r -> r.lo

let hi = function
  | Empty -> invalid_arg "Interval.hi: empty interval"
  | Range r -> r.hi

let cardinality = function Empty -> 0 | Range r -> r.hi - r.lo + 1

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Range a, Range b -> a.lo = b.lo && a.hi = b.hi
  | _ -> false

let take iv k =
  match iv with
  | Empty -> (Empty, Empty)
  | Range r ->
      let k = max 0 k in
      if k = 0 then (Empty, iv)
      else if k >= r.hi - r.lo + 1 then (iv, Empty)
      else (Range { lo = r.lo; hi = r.lo + k - 1 }, Range { lo = r.lo + k; hi = r.hi })

let split_sizes iv sizes =
  let total = List.fold_left ( + ) 0 sizes in
  List.iter (fun s -> if s < 0 then invalid_arg "Interval.split_sizes: negative size") sizes;
  if total > cardinality iv then invalid_arg "Interval.split_sizes: sizes exceed cardinality";
  let rest = ref iv in
  List.map
    (fun s ->
      let front, r = take !rest s in
      rest := r;
      front)
    sizes

let positions = function
  | Empty -> []
  | Range r -> List.init (r.hi - r.lo + 1) (fun i -> r.lo + i)

let to_string = function
  | Empty -> "\xe2\x88\x85"
  | Range r -> Printf.sprintf "[%d,%d]" r.lo r.hi
