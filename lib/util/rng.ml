type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64's output finalizer.  Inlined, so the pure draw below keeps
   its Int64 values unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_raw t =
  let z = Int64.add t.state golden_gamma in
  t.state <- z;
  mix z

let int64 = next_raw

let split t =
  let s = next_raw t in
  { state = s }

(* FNV-1a over the stream name, folded into the seed.  Distinct names give
   independent SplitMix64 streams for the same master seed, so e.g. the
   workload draw cannot perturb the delay draw. *)
let named ~seed name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  let t = { state = Int64.logxor (Int64.of_int seed) !h } in
  (* One mixing step so that seeds differing in a few bits land far apart. *)
  t.state <- next_raw t;
  t

let copy t = { state = t.state }

let bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then go () else v
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits into the mantissa. *)
let[@inline] unit_float raw =
  float_of_int (Int64.to_int (Int64.shift_right_logical raw 11)) *. (1.0 /. 9007199254740992.0)

let float t = unit_float (next_raw t)

let bool t = Int64.logand (next_raw t) 1L = 1L

let bernoulli t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

(* The state after [index] steps of [create ~seed] is seed + index * gamma,
   so any one draw of that stream is a pure function of (seed, index). *)
let bernoulli_at ~seed ~index ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else
    let state = Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int index) golden_gamma) in
    unit_float (mix state) < p

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF: floor(ln(1-u) / ln(1-p)) *)
    int_of_float (Float.of_int 0 +. floor (log1p (-.u) /. log1p (-.p)))

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 || k > n then
    invalid_arg "Rng.sample_without_replacement: need 0 <= k <= n";
  (* Floyd's algorithm: O(k) expected, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

let rec poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 30.0 then
    (* Poisson(a+b) = Poisson(a) + Poisson(b): split large means so Knuth's
       product of uniforms below never underflows exp(-mean). *)
    let half = mean /. 2.0 in
    poisson t ~mean:half + poisson t ~mean:half
  else begin
    (* Knuth: count uniforms until their product drops below e^-mean. *)
    let l = exp (-.mean) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      p := !p *. float t;
      if !p <= l then continue := false else incr k
    done;
    !k
  end

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  -.mean *. log1p (-.(float t))

let zipf t ~s ~n =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  let norm = ref 0.0 in
  for i = 1 to n do
    norm := !norm +. (1.0 /. (float_of_int i ** s))
  done;
  let u = float t *. !norm in
  let acc = ref 0.0 and res = ref n in
  (try
     for i = 1 to n do
       acc := !acc +. (1.0 /. (float_of_int i ** s));
       if u < !acc then begin
         res := i;
         raise Exit
       end
     done
   with Exit -> ());
  !res
