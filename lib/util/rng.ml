(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh Int64 on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64's output finalizer.  Inlined, so the pure draw below keeps
   its Int64 values unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_raw t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  mix z

let int64 t = next_raw t

let split t = of_state (next_raw t)

(* FNV-1a over the stream name, folded into the seed.  Distinct names give
   independent SplitMix64 streams for the same master seed, so e.g. the
   workload draw cannot perturb the delay draw. *)
let named ~seed name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    name;
  let t = of_state (Int64.logxor (Int64.of_int seed) !h) in
  (* One mixing step so that seeds differing in a few bits land far apart. *)
  set_state t 0 (next_raw t);
  t

let copy = Bytes.copy

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (bits t) in
  while !r - (!r mod bound) + (bound - 1) < 0 do
    r := bits t
  done;
  !r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits into the mantissa. *)
let[@inline] unit_float raw =
  float_of_int (Int64.to_int (Int64.shift_right_logical raw 11)) *. (1.0 /. 9007199254740992.0)

let[@inline] float t = unit_float (next_raw t)

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

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let poisson t ~mean =
  if not (mean >= 0.0 && mean < Float.infinity) then
    invalid_arg "Rng.poisson: mean must be finite and non-negative";
  if mean = 0.0 then 0
  else begin
    (* Poisson(a+b) = Poisson(a) + Poisson(b): halve large means so Knuth's
       product of uniforms below never underflows exp(-mean).  Halving
       until the mean is at most 30 and summing the [leaves] draws in turn
       is the left-to-right order of the recursive split. *)
    let leaf_mean = ref mean and leaves = ref 1 in
    while !leaf_mean > 30.0 do
      leaf_mean := !leaf_mean /. 2.0;
      leaves := 2 * !leaves
    done;
    (* Knuth: count uniforms until their product drops below e^-mean. *)
    let l = exp (-. !leaf_mean) in
    let k = ref 0 in
    for _ = 1 to !leaves do
      let p = ref 1.0 in
      let continue = ref true in
      while !continue do
        p := !p *. float t;
        if !p <= l then continue := false else incr k
      done
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
