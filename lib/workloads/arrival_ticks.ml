(* Per node, the ticks of operations [lo, hi) sit at [seq land (cap - 1)]
   of a power-of-two ring; a taken slot holds -1 until [lo] moves past it,
   so operations may complete in any order. *)
type ring = { mutable ticks : int array; mutable lo : int; mutable hi : int }
type t = ring array

let create ~n = Array.init n (fun _ -> { ticks = [||]; lo = 0; hi = 0 })

let grow r =
  let cap = max 4 (2 * Array.length r.ticks) in
  let ticks = Array.make cap (-1) in
  for seq = r.lo to r.hi - 1 do
    ticks.(seq land (cap - 1)) <- r.ticks.(seq land (Array.length r.ticks - 1))
  done;
  r.ticks <- ticks

let add t ~node ~tick =
  let r = t.(node) in
  if r.hi - r.lo = Array.length r.ticks then grow r;
  r.ticks.(r.hi land (Array.length r.ticks - 1)) <- tick;
  r.hi <- r.hi + 1

let take t ~node ~local_seq =
  let r = t.(node) in
  if local_seq < r.lo || local_seq >= r.hi then -1
  else begin
    let mask = Array.length r.ticks - 1 in
    let slot = local_seq land mask in
    let tick = r.ticks.(slot) in
    r.ticks.(slot) <- -1;
    while r.lo < r.hi && r.ticks.(r.lo land mask) < 0 do
      r.lo <- r.lo + 1
    done;
    tick
  end
