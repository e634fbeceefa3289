open Dpq_util

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    checkb "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let eq = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr eq
  done;
  checkb "different seeds diverge" true (!eq < 4)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 200 do
    let v = Rng.int_in r (-3) 5 in
    checkb "in [-3,5]" true (v >= -3 && v <= 5)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_float_mean () =
  let r = Rng.create ~seed:9 in
  let samples = List.init 10_000 (fun _ -> Rng.float r) in
  let m = Stats.mean samples in
  checkb "mean near 0.5" true (abs_float (m -. 0.5) < 0.02)

let test_rng_split_independence () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  checkb "split differs from parent" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  checkb "copy resumes identically" true (Rng.int64 a = Rng.int64 b)

let test_rng_named_streams () =
  let a = Rng.named ~seed:11 "workload" and b = Rng.named ~seed:11 "workload" in
  for _ = 1 to 50 do
    checkb "same (seed, name) pins the stream" true (Rng.int64 a = Rng.int64 b)
  done;
  let w = Rng.named ~seed:11 "workload"
  and d = Rng.named ~seed:11 "delay"
  and f = Rng.named ~seed:11 "fault" in
  let collisions = ref 0 in
  for _ = 1 to 64 do
    let x = Rng.int64 w and y = Rng.int64 d and z = Rng.int64 f in
    if x = y || y = z || x = z then incr collisions
  done;
  checkb "distinct names give independent streams" true (!collisions = 0);
  checkb "seed still matters" true
    (Rng.int64 (Rng.named ~seed:1 "delay") <> Rng.int64 (Rng.named ~seed:2 "delay"))

let test_rng_bernoulli_extremes () =
  let r = Rng.create ~seed:1 in
  checkb "p=0 never" false (Rng.bernoulli r ~p:0.0);
  checkb "p=1 always" true (Rng.bernoulli r ~p:1.0)

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_zipf_range () =
  let r = Rng.create ~seed:17 in
  for _ = 1 to 500 do
    let v = Rng.zipf r ~s:1.2 ~n:30 in
    checkb "in [1,30]" true (v >= 1 && v <= 30)
  done

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:17 in
  let ones = ref 0 and total = 5000 in
  for _ = 1 to total do
    if Rng.zipf r ~s:1.5 ~n:50 = 1 then incr ones
  done;
  checkb "rank 1 dominates" true (float_of_int !ones /. float_of_int total > 0.2)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:29 in
  let samples = List.init 10_000 (fun _ -> Rng.exponential r ~mean:4.0) in
  checkb "mean near 4" true (abs_float (Stats.mean samples -. 4.0) < 0.3)

(* Known answers: SplitMix64 from state 0 (the published test vectors). *)
let test_rng_known_answers () =
  let r = Rng.create ~seed:0 in
  List.iter
    (fun want -> check Alcotest.string "int64" want (Printf.sprintf "0x%016Lx" (Rng.int64 r)))
    [ "0xe220a8397b1dcdaf"; "0x6e789e6aa1b965f4"; "0x06c45d188009454f" ]

(* Every workload, schedule and fault draw goes through these; a change
   to how a draw is computed must not move a single value. *)
let test_rng_stream_pins () =
  let draws f =
    let r = Rng.create ~seed:42 in
    List.init 32 (fun _ -> f r)
  in
  let ints = Alcotest.(list int) and bools = Alcotest.(list bool) in
  check ints "bits"
    [
      3419864383188818853; 737456523031723072; 1284820937115690964; 1587299515064563941;
      175383196535490812; 4003995281415747265; 1007216178194406231; 3692262831746943977;
      1567655219403120501; 2852245098062667243; 944942912856573551; 2273511335365284911;
      2367621691557777849; 2398138063176555373; 3067506354810381239; 938178849217121532;
      477651854551395997; 2285084233936398215; 430859011926661761; 3177204353049865752;
      4414883413611604218; 336901045567871910; 2766164462476100981; 2858410777199325732;
      342006375497199188; 1280053605451446596; 3421775590846900749; 3622476874840434247;
      4343873076924128065; 3201329013802276752; 3642808914686572125; 3876198108700822295;
    ]
    (draws Rng.bits);
  check ints "int_in -5 17"
    [
      -5; 12; 2; 11; -1; -5; 9; 4; 9; 5; -5; 16; 1; 10; 6; 4; 1; 11; 3; -3; 7; 6; 4; 15; 14; -1;
      6; 15; 12; -4; -1; -5;
    ]
    (draws (fun r -> Rng.int_in r (-5) 17));
  check bools "bernoulli 0.3"
    [
      false; true; true; false; true; false; true; false; false; false; true; false; false;
      false; false; true; true; false; true; false; false; true; false; false; true; true;
      false; false; false; false; false; false;
    ]
    (draws (fun r -> Rng.bernoulli r ~p:0.3));
  check ints "poisson 0.05"
    (List.init 32 (fun i -> if i = 20 then 1 else 0))
    (draws (fun r -> Rng.poisson r ~mean:0.05));
  (* mean 45 takes the split path: two Knuth runs of mean 22.5 *)
  check ints "poisson 45"
    [
      44; 45; 41; 49; 49; 56; 43; 46; 44; 54; 42; 40; 39; 36; 36; 34; 39; 43; 48; 51; 40; 34; 51;
      48; 41; 45; 50; 63; 52; 35; 35; 53;
    ]
    (draws (fun r -> Rng.poisson r ~mean:45.0))

let test_rng_poisson_rejects_non_finite () =
  List.iter
    (fun mean ->
      match Rng.poisson (Rng.create ~seed:1) ~mean with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "poisson accepted mean %g" mean)
    [ -1.0; Float.nan; Float.infinity ]

(* Allocation guard: the integer and boolean draws allocate nothing when
   called from another library.  With the state in a [mutable int64]
   field, every draw boxed a fresh Int64: 6 minor words per [bits], 8 per
   [bernoulli] and [poisson ~mean:0.05], 11 per [int] and [int_in]. *)
let test_rng_draws_allocate_nothing () =
  let calls = 10_000 in
  List.iter
    (fun (name, f) ->
      let r = Rng.create ~seed:1 in
      f r;
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        f r
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      checkb (Printf.sprintf "%s: %.2f minor words per call < 0.5" name per_call) true
        (per_call < 0.5))
    [
      ("bits", fun r -> ignore (Rng.bits r));
      ("int", fun r -> ignore (Rng.int r 1000));
      ("int_in", fun r -> ignore (Rng.int_in r (-5) 17));
      ("bool", fun r -> ignore (Rng.bool r));
      ("bernoulli", fun r -> ignore (Rng.bernoulli r ~p:0.3));
      ("poisson 0.05", fun r -> ignore (Rng.poisson r ~mean:0.05));
      ("poisson 45", fun r -> ignore (Rng.poisson r ~mean:45.0));
    ]

(* -------------------------------------------------------------- Hashing *)

let test_hash_deterministic () =
  let h1 = Hashing.create ~seed:1 and h2 = Hashing.create ~seed:1 in
  checki "same" (Hashing.int h1 12345) (Hashing.int h2 12345)

let test_hash_seed_dependent () =
  let h1 = Hashing.create ~seed:1 and h2 = Hashing.create ~seed:2 in
  checkb "differ" true (Hashing.int h1 12345 <> Hashing.int h2 12345)

let test_hash_unit_interval () =
  let h = Hashing.create ~seed:5 in
  for x = 0 to 1000 do
    let m = Hashing.point h x in
    checkb "mantissa in [0,2^53)" true (m >= 0 && m < 1 lsl 53)
  done

let test_hash_uniformity () =
  let h = Hashing.create ~seed:5 in
  let lo = ref 0 in
  let total = 10_000 in
  for x = 0 to total - 1 do
    if Hashing.point h x < 1 lsl 52 then incr lo
  done;
  checkb "roughly balanced" true (abs (!lo - (total / 2)) < total / 20)

(* qcheck: a keyed hash is a pure function of (seed, key) — equal keys agree
   across independently created instances. *)
let prop_hashing_stable =
  QCheck.Test.make ~name:"hashing stable across instances for equal keys" ~count:300
    QCheck.(pair small_nat (pair small_int small_int))
    (fun (seed, (i, j)) ->
      let h1 = Hashing.create ~seed and h2 = Hashing.create ~seed in
      Hashing.int h1 i = Hashing.int h2 i
      && Hashing.pair h1 i j = Hashing.pair h2 i j
      && Hashing.point h1 i = Hashing.point h2 i
      && Hashing.pair_point h1 i j = Hashing.pair h1 i j lsr 9
      &&
      let m = Hashing.point h1 i in
      m >= 0 && m < 1 lsl 53)

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean () = check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ])
let test_stats_mean_empty () = check (Alcotest.float 1e-9) "mean []" 0.0 (Stats.mean [])

(* ------------------------------------------------------------- Interval *)

let test_interval_basic () =
  let iv = Interval.make 3 7 in
  checki "card" 5 (Interval.cardinality iv);
  checki "lo" 3 (Interval.lo iv);
  checki "hi" 7 (Interval.hi iv);
  checkb "mem" true (List.mem 5 (Interval.positions iv));
  checkb "not mem" false (List.mem 8 (Interval.positions iv))

let test_interval_empty () =
  let iv = Interval.make 5 3 in
  checkb "empty" true (Interval.is_empty iv);
  checki "card 0" 0 (Interval.cardinality iv);
  checkb "empty equal" true (Interval.equal iv Interval.empty)

let test_interval_take () =
  let iv = Interval.make 1 10 in
  let front, rest = Interval.take iv 4 in
  checkb "front" true (Interval.equal front (Interval.make 1 4));
  checkb "rest" true (Interval.equal rest (Interval.make 5 10));
  let all, none = Interval.take iv 99 in
  checkb "overtake keeps all" true (Interval.equal all iv);
  checkb "nothing left" true (Interval.is_empty none)

let prop_take_partition =
  QCheck.Test.make ~name:"take partitions the interval" ~count:200
    QCheck.(pair (pair small_nat small_nat) small_nat)
    (fun ((lo, len), k) ->
      let iv = Interval.of_first_card ~first:lo ~card:(len mod 40) in
      let k = k mod 45 in
      let f, fr = Interval.take iv k in
      Interval.positions f @ Interval.positions fr = Interval.positions iv)

let test_interval_split_sizes () =
  let iv = Interval.make 1 10 in
  let parts = Interval.split_sizes iv [ 3; 0; 7 ] in
  Alcotest.(check (list string))
    "parts"
    [ "[1,3]"; "\xe2\x88\x85"; "[4,10]" ]
    (List.map Interval.to_string parts)

let test_interval_split_too_much () =
  Alcotest.check_raises "raises" (Invalid_argument "Interval.split_sizes: sizes exceed cardinality")
    (fun () -> ignore (Interval.split_sizes (Interval.make 1 3) [ 2; 2 ]))

let test_interval_positions () =
  Alcotest.(check (list int)) "positions" [ 4; 5; 6 ] (Interval.positions (Interval.make 4 6));
  Alcotest.(check (list int)) "empty positions" [] (Interval.positions Interval.empty)

(* qcheck: splitting an interval by any size list that fits partitions it. *)
let prop_interval_split_partition =
  QCheck.Test.make ~name:"interval split_sizes partitions positions" ~count:200
    QCheck.(pair (pair small_nat small_nat) (list_of_size Gen.(0 -- 6) small_nat))
    (fun ((lo, len), sizes) ->
      let iv = Interval.of_first_card ~first:lo ~card:(len mod 50) in
      let sizes = List.map (fun s -> s mod 10) sizes in
      let total = List.fold_left ( + ) 0 sizes in
      QCheck.assume (total <= Interval.cardinality iv);
      let parts = Interval.split_sizes iv sizes in
      let got = List.concat_map Interval.positions parts in
      let expected =
        List.filteri (fun i _ -> i < total) (Interval.positions iv)
      in
      got = expected)

(* ------------------------------------------------------------- Binheap *)

let test_binheap_basic () =
  let h = Binheap.create ~cmp:Int.compare in
  checki "empty" 0 (Binheap.length h);
  Binheap.push h 5;
  Binheap.push h 1;
  Binheap.push h 3;
  checki "len" 3 (Binheap.length h);
  checki "peek" 1 (Option.get (Binheap.peek h));
  checki "pop" 1 (Option.get (Binheap.pop h));
  checki "pop" 3 (Option.get (Binheap.pop h));
  checki "pop" 5 (Option.get (Binheap.pop h));
  checkb "pop empty" true (Binheap.pop h = None)

(* Pop everything: the heap's contents in the order it yields them. *)
let drain h =
  let rec go acc = match Binheap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let prop_binheap_sorts =
  QCheck.Test.make ~name:"binheap drains in sorted order" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Binheap.create ~cmp:Int.compare in
      List.iter (Binheap.push h) xs;
      drain h = List.sort Int.compare xs)

(* qcheck: an arbitrary interleaving of push/pop agrees step-for-step with a
   sorted-list reference model. *)
let prop_binheap_model =
  QCheck.Test.make ~name:"binheap agrees with sorted reference over random ops" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Binheap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_pop, x) ->
          if is_pop then (
            let expect =
              match !model with
              | [] -> None
              | y :: rest ->
                  model := rest;
                  Some y
            in
            Binheap.pop h = expect)
          else (
            Binheap.push h x;
            model := List.sort Int.compare (x :: !model);
            Binheap.peek h = Some (List.hd !model)))
        ops
      && drain h = !model)

(* ------------------------------------------------------------- Bitsize *)

let test_bitsize_bits_of_int () =
  checki "0" 1 (Bitsize.bits_of_int 0);
  checki "1" 1 (Bitsize.bits_of_int 1);
  checki "2" 2 (Bitsize.bits_of_int 2);
  checki "255" 8 (Bitsize.bits_of_int 255);
  checki "256" 9 (Bitsize.bits_of_int 256)

let test_bitsize_log2 () =
  checki "ceil 1" 0 (Bitsize.log2_ceil 1);
  checki "ceil 2" 1 (Bitsize.log2_ceil 2);
  checki "ceil 3" 2 (Bitsize.log2_ceil 3);
  checki "ceil 1023" 10 (Bitsize.log2_ceil 1023);
  checki "ceil 1024" 10 (Bitsize.log2_ceil 1024);
  checki "ceil 1025" 11 (Bitsize.log2_ceil 1025)

(* ------------------------------------------------------------- Element *)

let test_element_order () =
  let e1 = Element.make ~prio:1 ~origin:5 ~seq:0 () in
  let e2 = Element.make ~prio:1 ~origin:5 ~seq:1 () in
  let e3 = Element.make ~prio:2 ~origin:0 ~seq:0 () in
  checkb "prio first" true (Element.compare e1 e3 < 0);
  checkb "tiebreak seq" true (Element.compare e1 e2 < 0);
  checkb "equal" true (Element.equal e1 e1)

let contains_substring hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ ("n", Table.Right); ("v", Table.Left) ] in
  Table.add_row t [ "1"; "abc" ];
  Table.add_row t [ "100"; "x" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 7 = "## demo");
  checkb "has row" true (contains_substring s "100");
  checkb "has cell" true (contains_substring s "abc");
  checkb "has separator" true (contains_substring s "|--")

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "1"; "2" ])

let () =
  Alcotest.run "dpq_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "named streams" `Quick test_rng_named_streams;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "zipf range" `Quick test_rng_zipf_range;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "stream pins" `Quick test_rng_stream_pins;
          Alcotest.test_case "poisson rejects non-finite means" `Quick
            test_rng_poisson_rejects_non_finite;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "seed dependent" `Quick test_hash_seed_dependent;
          Alcotest.test_case "unit interval" `Quick test_hash_unit_interval;
          Alcotest.test_case "uniformity" `Quick test_hash_uniformity;
          QCheck_alcotest.to_alcotest prop_hashing_stable;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
        ] );
      ( "interval",
        [
          Alcotest.test_case "basic" `Quick test_interval_basic;
          Alcotest.test_case "empty" `Quick test_interval_empty;
          Alcotest.test_case "take" `Quick test_interval_take;
          QCheck_alcotest.to_alcotest prop_take_partition;
          Alcotest.test_case "split sizes" `Quick test_interval_split_sizes;
          Alcotest.test_case "split too much" `Quick test_interval_split_too_much;
          Alcotest.test_case "positions" `Quick test_interval_positions;
          QCheck_alcotest.to_alcotest prop_interval_split_partition;
        ] );
      ( "binheap",
        [
          Alcotest.test_case "basic" `Quick test_binheap_basic;
          QCheck_alcotest.to_alcotest prop_binheap_sorts;
          QCheck_alcotest.to_alcotest prop_binheap_model;
        ] );
      ( "bitsize",
        [
          Alcotest.test_case "bits_of_int" `Quick test_bitsize_bits_of_int;
          Alcotest.test_case "log2" `Quick test_bitsize_log2;
        ] );
      ( "element",
        [
          Alcotest.test_case "ordering" `Quick test_element_order;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
    ]
