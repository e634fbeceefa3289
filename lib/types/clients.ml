module Element = Dpq_util.Element
module Oplog = Dpq_semantics.Oplog

module type S = sig
  type t

  type completion = Types.completion = {
    node : int;
    local_seq : int;
    outcome : Types.outcome;
  }

  val n : t -> int
  val live : t -> node:int -> bool
  val insert : t -> node:int -> prio:int -> Element.t
  val delete_min : t -> node:int -> unit
  val pending_ops : t -> int
  val oplog : t -> Oplog.t
  val take_log : t -> Oplog.record list
end

type completion = Types.completion = {
  node : int;
  local_seq : int;
  outcome : Types.outcome;
}

type kind = [ `Ins of Element.t | `Del ]
type pending = { local_seq : int; kind : kind }

(* A node's buffered operations, oldest first, in [ops.(head) ..
   ops.(head + len - 1)]; every other slot holds [vacant], so a taken
   operation is not kept alive by the buffer.  A snapshot takes operations
   out in place, so an operation it leaves costs it nothing. *)
type buffer = { mutable ops : pending array; mutable head : int; mutable len : int }

let vacant = { local_seq = -1; kind = `Del }
let buffer () = { ops = [||]; head = 0; len = 0 }

(* Append [p]; when the array's end is reached, slide the operations to
   the front if that frees at least half of it, else double it. *)
let buffer_push b p =
  let cap = Array.length b.ops in
  if b.head + b.len = cap then begin
    let a = if cap > 0 && 2 * b.len <= cap then b.ops else Array.make (max 8 (2 * cap)) vacant in
    Array.blit b.ops b.head a 0 b.len;
    if a == b.ops then Array.fill a b.len (cap - b.len) vacant;
    b.ops <- a;
    b.head <- 0
  end;
  b.ops.(b.head + b.len) <- p;
  b.len <- b.len + 1

(* The operations in [lo .. hi], in order, and vacate their slots. *)
let buffer_take b lo hi =
  let l = ref [] in
  for i = hi downto lo do
    l := b.ops.(i) :: !l;
    b.ops.(i) <- vacant
  done;
  !l

let buffer_clear b =
  Array.fill b.ops b.head b.len vacant;
  b.head <- 0;
  b.len <- 0

type t = {
  name : string;
  max_prio : int option;
  mutable buffers : buffer array;
  mutable seq_counters : int array; (* per-node local operation counter *)
  mutable elt_counters : int array; (* per-node element tiebreaker counter *)
  mutable dead : bool array; (* permanently lost (killed) node ids *)
  (* counters of retired node slots, so a reused id resumes its sequence
     numbers and oplog identities stay unique across churn *)
  retired : (int, int * int) Hashtbl.t;
  mutable witness_counter : int;
  mutable log : Oplog.record list;
}

type clients = t

let create ~name ?max_prio ~n () =
  {
    name;
    max_prio;
    buffers = Array.init n (fun _ -> buffer ());
    seq_counters = Array.make n 0;
    elt_counters = Array.make n 0;
    dead = Array.make n false;
    retired = Hashtbl.create 4;
    witness_counter = 0;
    log = [];
  }

let n c = Array.length c.buffers
let live c ~node = node >= 0 && node < n c && not c.dead.(node)

let check_node c node =
  if node < 0 || node >= n c then invalid_arg (Printf.sprintf "%s: node %d out of range" c.name node);
  if c.dead.(node) then invalid_arg (Printf.sprintf "%s: node %d was permanently lost" c.name node)

let push c node kind =
  let local_seq = c.seq_counters.(node) in
  c.seq_counters.(node) <- local_seq + 1;
  buffer_push c.buffers.(node) { local_seq; kind }

let insert c ~node ~prio =
  check_node c node;
  (match c.max_prio with
  | Some hi when prio < 1 || prio > hi ->
      invalid_arg (Printf.sprintf "%s.insert: priority %d outside [1,%d]" c.name prio hi)
  | None when prio < 1 ->
      invalid_arg (Printf.sprintf "%s.insert: priority %d must be >= 1" c.name prio)
  | _ -> ());
  let seq = c.elt_counters.(node) in
  c.elt_counters.(node) <- seq + 1;
  let elt = Element.make ~prio ~origin:node ~seq () in
  push c node (`Ins elt);
  elt

let delete_min c ~node =
  check_node c node;
  push c node `Del

let pending_ops c = Array.fold_left (fun acc b -> acc + b.len) 0 c.buffers
let oplog c = Oplog.of_list c.log

let rec descending witness = function
  | [] -> true
  | (r : Oplog.record) :: rest -> r.witness < witness && descending r.witness rest

let take_log c =
  let l = c.log in
  c.log <- [];
  (* witnesses are assigned when an operation serializes, which can precede
     the moment its record is logged (e.g. matched deletes complete after
     the DHT round), so the retained list need not be in reverse witness
     order; when it is, reversing it is the sort *)
  if descending max_int l then List.rev l
  else List.sort (fun (a : Oplog.record) b -> Int.compare a.Oplog.witness b.Oplog.witness) l

module Make (B : sig
  type t

  val clients : t -> clients
end) =
struct
  type nonrec completion = completion = {
    node : int;
    local_seq : int;
    outcome : Types.outcome;
  }

  let n t = n (B.clients t)
  let live t ~node = live (B.clients t) ~node
  let insert t ~node ~prio = insert (B.clients t) ~node ~prio
  let delete_min t ~node = delete_min (B.clients t) ~node
  let pending_ops t = pending_ops (B.clients t)
  let oplog t = oplog (B.clients t)
  let take_log t = take_log (B.clients t)
end

type take = All | Matching of (kind -> bool) | Leading of (kind -> bool)

(* One pass from the back: a taken operation is consed onto the result,
   a kept one slides back over the gap the taken ones left, so both keep
   their order and the kept ones end the buffer. *)
let take_matching keep b =
  let last = b.head + b.len - 1 in
  let mine = ref [] and w = ref last in
  for i = last downto b.head do
    let p = b.ops.(i) in
    if keep p.kind then mine := p :: !mine
    else begin
      b.ops.(!w) <- p;
      decr w
    end
  done;
  Array.fill b.ops b.head (!w + 1 - b.head) vacant;
  b.len <- last - !w;
  b.head <- (if b.len = 0 then 0 else !w + 1);
  !mine

let take_leading keep b =
  let r = ref 0 in
  while !r < b.len && keep b.ops.(b.head + !r).kind do
    incr r
  done;
  let mine = buffer_take b b.head (b.head + !r - 1) in
  b.len <- b.len - !r;
  b.head <- (if b.len = 0 then 0 else b.head + !r);
  mine

let snapshot c take =
  match take with
  | All -> Array.map (take_leading (fun _ -> true)) c.buffers
  | Matching keep -> Array.map (take_matching keep) c.buffers
  | Leading keep -> Array.map (take_leading keep) c.buffers

let issued c node = c.seq_counters.(node)

let next_witness c =
  let w = c.witness_counter in
  c.witness_counter <- w + 1;
  w

let record c r = c.log <- r :: c.log

let serialize c ~node ~local_seq kind result =
  record c { Oplog.node; local_seq; witness = next_witness c; kind; result }

let sort_completions cs =
  List.sort
    (fun (a : completion) (b : completion) ->
      let c = Int.compare a.node b.node in
      if c <> 0 then c else Int.compare a.local_seq b.local_seq)
    cs

let[@tail_mod_cons] rec merge_completions (a : completion list) (b : completion list) =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x.node < y.node || (x.node = y.node && x.local_seq < y.local_seq) then
        x :: merge_completions a' b
      else y :: merge_completions a b'

let drain c iterate =
  let rec go acc = if pending_ops c = 0 then List.rev acc else go (iterate () :: acc) in
  go []

let kill c ~node =
  buffer_clear c.buffers.(node);
  c.dead.(node) <- true

let grow_array a len zero = Array.init len (fun i -> if i < Array.length a then a.(i) else zero)

let add_node c =
  let id = n c in
  let seq0, elt0 = match Hashtbl.find_opt c.retired id with Some s -> s | None -> (0, 0) in
  c.buffers <- grow_array c.buffers (id + 1) (buffer ());
  c.seq_counters <- grow_array c.seq_counters (id + 1) seq0;
  c.elt_counters <- grow_array c.elt_counters (id + 1) elt0;
  c.dead <- grow_array c.dead (id + 1) false

let remove_last_node c =
  let leaving = n c - 1 in
  if c.buffers.(leaving).len > 0 then
    invalid_arg (c.name ^ ".remove_last_node: leaving node still has buffered operations");
  Hashtbl.replace c.retired leaving (c.seq_counters.(leaving), c.elt_counters.(leaving));
  c.buffers <- Array.sub c.buffers 0 leaving;
  c.seq_counters <- Array.sub c.seq_counters 0 leaving;
  c.elt_counters <- Array.sub c.elt_counters 0 leaving;
  c.dead <- Array.sub c.dead 0 leaving
