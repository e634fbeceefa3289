module Rng = Dpq_util.Rng

type op = { node : int; action : [ `Ins of int | `Del ] }
type round = op list
type t = round list

type prio_dist =
  | Uniform of int * int
  | Zipf of { s : float; n : int }
  | Constant_set of int
  | Increasing

(* ----------------------------------------------------- open-loop arrivals *)

type arrival =
  | Closed
  | Poisson_rate of float
  | Burst of { on : int; off : int; high : float; low : float }
  | Diurnal of { period : int; peak : float; base : float }

let pi = 4.0 *. atan 1.0

let arrival_rate arrival ~tick =
  match arrival with
  | Closed -> invalid_arg "Workload.arrival_rate: closed-loop arrivals have no rate"
  | Poisson_rate r -> r
  | Burst { on; off; high; low } -> if tick mod (on + off) < on then high else low
  | Diurnal { period; peak; base } ->
      base
      +. (peak -. base)
         *. (1.0 -. cos (2.0 *. pi *. float_of_int (tick mod period) /. float_of_int period))
         /. 2.0

let arrival_to_string = function
  | Closed -> "closed"
  | Poisson_rate r -> Printf.sprintf "poisson:%.17g" r
  | Burst { on; off; high; low } -> Printf.sprintf "burst:%d:%d:%.17g:%.17g" on off high low
  | Diurnal { period; peak; base } -> Printf.sprintf "diurnal:%d:%.17g:%.17g" period peak base

let arrival_of_string s =
  let fail () = Error (Printf.sprintf "Workload.arrival_of_string: bad arrival %S" s) in
  (* Rates are finite: an infinite one sizes an arrival round without bound. *)
  let non_neg f = match f with Some v when v >= 0.0 && Float.is_finite v -> f | _ -> None in
  match String.split_on_char ':' s with
  | [ "closed" ] -> Ok Closed
  | [ "poisson"; r ] -> (
      match non_neg (float_of_string_opt r) with
      | Some r -> Ok (Poisson_rate r)
      | None -> fail ())
  | [ "burst"; on; off; high; low ] -> (
      match
        ( int_of_string_opt on,
          int_of_string_opt off,
          non_neg (float_of_string_opt high),
          non_neg (float_of_string_opt low) )
      with
      | Some on, Some off, Some high, Some low when on > 0 && off >= 0 ->
          Ok (Burst { on; off; high; low })
      | _ -> fail ())
  | [ "diurnal"; period; peak; base ] -> (
      match
        (int_of_string_opt period, non_neg (float_of_string_opt peak), non_neg (float_of_string_opt base))
      with
      | Some period, Some peak, Some base when period > 0 -> Ok (Diurnal { period; peak; base })
      | _ -> fail ())
  | _ -> fail ()

(* ------------------------------------------------------ streaming generator *)

let dist_to_string = function
  | Uniform (lo, hi) -> Printf.sprintf "uniform:%d:%d" lo hi
  | Zipf { s; n } -> Printf.sprintf "zipf:%.17g:%d" s n
  | Constant_set c -> Printf.sprintf "const:%d" c
  | Increasing -> "increasing"

let dist_of_string s =
  let fail () = Error (Printf.sprintf "Workload.dist_of_string: bad distribution %S" s) in
  match String.split_on_char ':' s with
  | [ "uniform"; lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Ok (Uniform (lo, hi))
      | _ -> fail ())
  | [ "zipf"; s'; n ] -> (
      match (float_of_string_opt s', int_of_string_opt n) with
      | Some s, Some n -> Ok (Zipf { s; n })
      | _ -> fail ())
  | [ "const"; c ] -> (
      match int_of_string_opt c with Some c -> Ok (Constant_set c) | None -> fail ())
  | [ "increasing" ] -> Ok Increasing
  | _ -> fail ()

module Gen = struct
  type spec = {
    n : int;
    rounds : int;
    lambda : int;
    insert_ratio : float;
    dist : prio_dist;
    seed : int;
    arrival : arrival;
  }

  (* The rng is the same named stream the exploration harness draws its
     workloads from, so a [gen:] line in a repro file reproduces the sweep's
     workload bit for bit.  [increasing] is the last priority an
     [Increasing] distribution handed out; it lives here, not in a global,
     so one spec materializes the same way every time.  [nodes], [prios]
     and [inserts] are one round's draws, reused from round to round;
     [prios.(i)] means nothing unless [inserts.(i)] (no sentinel: every
     int is a legal priority). *)
  type t = {
    spec : spec;
    rng : Rng.t;
    mutable produced : int;
    mutable increasing : int;
    mutable nodes : int array;
    mutable prios : int array;
    mutable inserts : bool array;
  }

  let create spec =
    {
      spec;
      rng = Rng.named ~seed:spec.seed "workload";
      produced = 0;
      increasing = 0;
      nodes = [||];
      prios = [||];
      inserts = [||];
    }

  (* Exact for closed-loop specs; the expectation for stochastic arrivals. *)
  let total_ops spec =
    match spec.arrival with
    | Closed -> spec.n * spec.rounds * spec.lambda
    | arrival ->
        let mean = ref 0.0 in
        for tick = 0 to spec.rounds - 1 do
          mean := !mean +. arrival_rate arrival ~tick
        done;
        int_of_float (Float.round (float_of_int spec.n *. !mean))

  let sample_prio t =
    match t.spec.dist with
    | Uniform (lo, hi) -> Rng.int_in t.rng lo hi
    | Zipf { s; n } -> Rng.zipf t.rng ~s ~n
    | Constant_set c -> Rng.int_in t.rng 1 c
    | Increasing ->
        t.increasing <- t.increasing + 1;
        t.increasing

  (* The columns start empty and double as the largest round so far
     needs. *)
  let grow t =
    let cap = max 16 (2 * Array.length t.nodes) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.nodes <- extend t.nodes 0;
    t.prios <- extend t.prios 0;
    t.inserts <- extend t.inserts false

  (* One tick of the λ-injection model, node by node: the node's op count
     (exactly λ closed-loop, Poisson(λ(tick)) under an open-loop arrival),
     then for each op an insert coin and, for an insert, its priority.  The
     draws land in the columns; the round's list is built from the back, so
     it costs one op record and one list cell per op. *)
  let round t ~tick =
    let s = t.spec in
    let rate = match s.arrival with Closed -> 0.0 | arrival -> arrival_rate arrival ~tick in
    let len = ref 0 in
    for node = 0 to s.n - 1 do
      let count =
        match s.arrival with Closed -> s.lambda | _ -> Rng.poisson t.rng ~mean:rate
      in
      for _ = 1 to count do
        if !len = Array.length t.nodes then grow t;
        let i = !len in
        let ins = Rng.bernoulli t.rng ~p:s.insert_ratio in
        t.nodes.(i) <- node;
        t.inserts.(i) <- ins;
        if ins then t.prios.(i) <- sample_prio t;
        len := i + 1
      done
    done;
    let ops = ref [] in
    for i = !len - 1 downto 0 do
      let action = if t.inserts.(i) then `Ins t.prios.(i) else `Del in
      ops := { node = t.nodes.(i); action } :: !ops
    done;
    !ops

  let next t =
    if t.produced >= t.spec.rounds then None
    else begin
      let tick = t.produced in
      t.produced <- tick + 1;
      Some (round t ~tick)
    end

  (* The [arrival=] key is emitted only for open-loop specs, so every spec
     string (and [gen:] repro line) written before arrivals existed parses
     and round-trips unchanged. *)
  let spec_to_string s =
    Printf.sprintf "n=%d rounds=%d lambda=%d ratio=%.17g dist=%s seed=%d%s" s.n s.rounds
      s.lambda s.insert_ratio (dist_to_string s.dist) s.seed
      (match s.arrival with
      | Closed -> ""
      | a -> " arrival=" ^ arrival_to_string a)

  let spec_of_string str =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let kvs =
      String.split_on_char ' ' (String.trim str)
      |> List.filter (fun tok -> tok <> "")
      |> List.map (fun tok ->
             match String.index_opt tok '=' with
             | None -> (tok, "")
             | Some i ->
                 (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
    in
    let get k = List.assoc_opt k kvs in
    let int_field k = Option.bind (get k) int_of_string_opt in
    match (int_field "n", int_field "rounds", int_field "lambda", int_field "seed") with
    | Some n, Some rounds, Some lambda, Some seed -> (
        (* NaN fails both comparisons, so it is rejected with the rest. *)
        let ratio =
          match get "ratio" with
          | None -> Some 0.5
          | Some r -> (
              match float_of_string_opt r with
              | Some x when x >= 0.0 && x <= 1.0 -> Some x
              | _ -> None)
        in
        let arrival =
          match get "arrival" with None -> Ok Closed | Some a -> arrival_of_string a
        in
        match (ratio, get "dist", arrival) with
        | None, _, _ -> fail "Workload.Gen.spec_of_string: ratio must be a number in [0,1] in %S" str
        | _, None, _ -> fail "Workload.Gen.spec_of_string: missing dist in %S" str
        | _, _, Error e -> Error e
        | Some insert_ratio, Some d, Ok arrival -> (
            match dist_of_string d with
            | Error e -> Error e
            | Ok dist ->
                if n <= 0 || rounds < 0 || lambda < 0 then
                  fail "Workload.Gen.spec_of_string: out-of-range field in %S" str
                else Ok { n; rounds; lambda; insert_ratio; dist; seed; arrival }))
    | _ -> fail "Workload.Gen.spec_of_string: missing n/rounds/lambda/seed in %S" str
end

let of_gen spec =
  let g = Gen.create spec in
  let rec go acc = match Gen.next g with None -> List.rev acc | Some r -> go (r :: acc) in
  go []

(* ---------------------------------------------------------- serialization *)

let op_to_string o =
  match o.action with
  | `Ins p -> Printf.sprintf "%d:I%d" o.node p
  | `Del -> Printf.sprintf "%d:D" o.node

let op_of_string s =
  let fail () = Error (Printf.sprintf "Workload.op_of_string: bad op %S" s) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let node = int_of_string_opt (String.sub s 0 i) in
      let act = String.sub s (i + 1) (String.length s - i - 1) in
      match (node, act) with
      | Some node, "D" when node >= 0 -> Ok { node; action = `Del }
      | Some node, _ when node >= 0 && String.length act >= 2 && act.[0] = 'I' -> (
          match int_of_string_opt (String.sub act 1 (String.length act - 1)) with
          | Some p -> Ok { node; action = `Ins p }
          | None -> fail ())
      | _ -> fail ())

(* A round is one line of space-separated ops; "." stands for an empty round
   so round boundaries survive the trip (they decide what batches together). *)
let round_to_string = function
  | [] -> "."
  | ops -> String.concat " " (List.map op_to_string ops)

let round_of_string line =
  let line = String.trim line in
  if line = "." || line = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
          match op_of_string tok with Ok op -> go (op :: acc) rest | Error _ as e -> e)
    in
    go [] (List.filter (fun s -> s <> "") (String.split_on_char ' ' line))

let to_string t = String.concat "\n" (List.map round_to_string t)

let of_string s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match round_of_string line with Ok r -> go (r :: acc) rest | Error _ as e -> e)
  in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [ line ] when String.length line > 4 && String.sub line 0 4 = "gen:" ->
      (* generator form: materialize the referenced spec *)
      Result.map of_gen
        (Gen.spec_of_string (String.sub line 4 (String.length line - 4)))
  | _ -> go [] lines

(* ------------------------------------------------------------- shrinking *)

(* Candidate reductions for the greedy shrinker, largest cuts first: drop a
   whole round, drop half a round, drop a single op.  Single-op candidates
   are only offered once the workload is already small — they are O(ops)
   many, and on a big workload the coarser cuts get there faster. *)
let shrink_candidates t =
  let arr = Array.of_list t in
  let nrounds = Array.length arr in
  let without_round i =
    List.filteri (fun j _ -> j <> i) t
  in
  let replace_round i r = List.mapi (fun j old -> if j = i then r else old) t in
  let drop_rounds =
    if nrounds <= 1 then []
    else List.init nrounds without_round
  in
  let halve_rounds =
    List.concat
      (List.init nrounds (fun i ->
           let ops = arr.(i) in
           let len = List.length ops in
           if len < 2 then []
           else
             let half = len / 2 in
             [
               replace_round i (List.filteri (fun k _ -> k >= half) ops);
               replace_round i (List.filteri (fun k _ -> k < half) ops);
             ]))
  in
  let ops_total = List.fold_left (fun acc r -> acc + List.length r) 0 t in
  let drop_ops =
    if ops_total > 48 then []
    else
      List.concat
        (List.init nrounds (fun i ->
             let ops = arr.(i) in
             List.init (List.length ops) (fun k ->
                 replace_round i (List.filteri (fun j _ -> j <> k) ops))))
  in
  drop_rounds @ halve_rounds @ drop_ops

let total_ops t = List.fold_left (fun acc r -> acc + List.length r) 0 t
