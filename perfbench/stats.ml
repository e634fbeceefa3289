(* Order statistics for the benchmark's reports. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty sample"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles with the default ("exclusive") method of
   Python's statistics.quantiles(xs, n=4), so the spreads printed here are
   the ones an external script computes from the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: empty sample"
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile, the definition Runner uses for latencies. *)
let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
      let a = Array.of_list (sorted xs) in
      let rank = max 1 (int_of_float (ceil (p *. float_of_int (Array.length a)))) in
      a.(rank - 1)

(* Nearest-rank percentiles over a histogram of small integer samples
   (latencies in rounds), so a run of 10^6 ops keeps one counter per
   distinct value. *)
module Hist = struct
  type t = { counts : (int, int) Hashtbl.t; mutable total : int }

  let create () = { counts = Hashtbl.create 64; total = 0 }

  let add t v ~count =
    if count > 0 then begin
      Hashtbl.replace t.counts v (count + Option.value ~default:0 (Hashtbl.find_opt t.counts v));
      t.total <- t.total + count
    end

  let percentile t p =
    if t.total = 0 then 0
    else
      let keys = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counts []) in
      let rank = max 1 (int_of_float (ceil (p *. float_of_int t.total))) in
      let rec go cum = function
        | [] -> 0
        | k :: rest ->
            let cum = cum + Hashtbl.find t.counts k in
            if cum >= rank then k else go cum rest
      in
      go 0 keys
end
