let mean = function
  | [] -> 0.0
  | xs ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. n

let percentile xs ~p =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  a.(idx)

let median xs = percentile xs ~p:50.0

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if xs = [] then invalid_arg "Stats.histogram: empty list";
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  List.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = max 0 (min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi
    (fun i c ->
      (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), c))
    counts

let linear_fit pts =
  if List.length pts < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let denom = (n *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x";
  let b = ((n *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. n in
  (a, b)

let log2 x = log x /. log 2.0

let log2_fit points =
  (* Fit y = c * log2 x through the origin: c = sum(y * l) / sum(l^2). *)
  let num, den =
    List.fold_left
      (fun (num, den) (x, y) ->
        let l = log2 (float_of_int x) in
        (num +. (y *. l), den +. (l *. l)))
      (0.0, 0.0) points
  in
  if den = 0.0 then 0.0 else num /. den

let ratio_spread xs =
  let lo, hi = min_max xs in
  if lo <= 0.0 then invalid_arg "Stats.ratio_spread: needs positive values";
  hi /. lo
