module Rng = Dpq_util.Rng

type policy =
  | Fifo
  | Shuffle of { burst : int; starvation : float }
  | Channel_bias of { src : int option; dst : int option; factor : int }
  | Crossing_pairs

type t = { policy : policy; seed : int; rng : Rng.t }

let validate = function
  | Fifo | Crossing_pairs -> ()
  | Shuffle { burst; starvation } ->
      if burst < 1 then invalid_arg "Sched: burst must be >= 1";
      if starvation < 0.0 || starvation >= 1.0 then
        invalid_arg "Sched: starvation probability outside [0,1)"
  | Channel_bias { factor; _ } ->
      if factor < 1 then invalid_arg "Sched: bias factor must be >= 1"

let create ~seed policy =
  validate policy;
  (* The scheduler owns the run's "delay" stream: independent of the
     workload and fault streams derived from the same master seed. *)
  { policy; seed; rng = Rng.named ~seed "sched" }

let policy t = t.policy
let rng t = t.rng

let max_defers = 8
let starvation_factor = 16.0

let biased t ~src ~dst =
  match t.policy with
  | Channel_bias { src = s; dst = d; _ } ->
      (match s with None -> true | Some s -> s = src)
      && (match d with None -> true | Some d -> d = dst)
  | _ -> false

(* ------------------------------------------------------------- strings *)

let opt_node = function None -> "*" | Some v -> string_of_int v

let policy_to_string = function
  | Fifo -> "fifo"
  | Shuffle { burst; starvation } -> Printf.sprintf "shuffle:burst=%d,starve=%g" burst starvation
  | Channel_bias { src; dst; factor } ->
      Printf.sprintf "bias:src=%s,dst=%s,x=%d" (opt_node src) (opt_node dst) factor
  | Crossing_pairs -> "crossing"

let parse_kvs body =
  String.split_on_char ',' body
  |> List.filter_map (fun item ->
         let item = String.trim item in
         if item = "" then None
         else
           match String.index_opt item '=' with
           | None -> Some (item, "")
           | Some i ->
               Some
                 ( String.sub item 0 i,
                   String.sub item (i + 1) (String.length item - i - 1) ))

let policy_of_string s =
  let s = String.trim s in
  let err () = Error (Printf.sprintf "Sched.policy_of_string: bad policy %S" s) in
  let name, body =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let kvs = parse_kvs body in
  let find k = List.assoc_opt k kvs in
  let node_of v = if v = "*" then Ok None else
    match int_of_string_opt v with Some i -> Ok (Some i) | None -> Error () in
  match name with
  | "fifo" -> Ok Fifo
  | "crossing" -> Ok Crossing_pairs
  | "shuffle" -> (
      let burst = Option.bind (find "burst") int_of_string_opt in
      let starve = Option.bind (find "starve") float_of_string_opt in
      match (burst, starve) with
      | Some burst, Some starvation when burst >= 1 && starvation >= 0.0 && starvation < 1.0 ->
          Ok (Shuffle { burst; starvation })
      | _ -> err ())
  | "bias" -> (
      match (find "src", find "dst", Option.bind (find "x") int_of_string_opt) with
      | Some src, Some dst, Some factor when factor >= 1 -> (
          match (node_of src, node_of dst) with
          | Ok src, Ok dst -> Ok (Channel_bias { src; dst; factor })
          | _ -> err ())
      | _ -> err ())
  | _ -> err ()
