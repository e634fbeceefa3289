(* Struct-of-arrays binary min-heap on (time, seq) — the asynchronous
   engine's event queue.  Since seq is unique, (time, seq) is a total
   order: any correct heap pops the exact same sequence as the old
   record-based binheap, which is what keeps run digests bit-identical.

   Times live in an unboxed float array; the wire is the same integer tag +
   payload column encoding as {!Roundq}.  [pop] parks the popped entry in
   the vacated slot just past the new end, so reading it back allocates
   nothing. *)

type 'msg t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable tags : int array;
  mutable pays : 'msg array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; srcs = [||]; dsts = [||]; tags = [||]; pays = [||]; len = 0 }

let length t = t.len

let grow t payload =
  let cap = Array.length t.seqs in
  let cap' = if cap = 0 then 32 else 2 * cap in
  let copy a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- copy t.times 0.0;
  t.seqs <- copy t.seqs 0;
  t.srcs <- copy t.srcs 0;
  t.dsts <- copy t.dsts 0;
  t.tags <- copy t.tags 0;
  t.pays <- copy t.pays payload

(* Lexicographic (time, seq) comparison between slots [i] and [j]. *)
let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  if ti < tj then true else if ti > tj then false else t.seqs.(i) < t.seqs.(j)

let swap t i j =
  let f = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- f;
  let x = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- x;
  let x = t.srcs.(i) in
  t.srcs.(i) <- t.srcs.(j);
  t.srcs.(j) <- x;
  let x = t.dsts.(i) in
  t.dsts.(i) <- t.dsts.(j);
  t.dsts.(j) <- x;
  let x = t.tags.(i) in
  t.tags.(i) <- t.tags.(j);
  t.tags.(j) <- x;
  let p = t.pays.(i) in
  t.pays.(i) <- t.pays.(j);
  t.pays.(j) <- p

let push t ~time ~seq ~src ~dst ~tag payload =
  if t.len = Array.length t.seqs then grow t payload;
  let i = ref t.len in
  t.len <- !i + 1;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.srcs.(!i) <- src;
  t.dsts.(!i) <- dst;
  t.tags.(!i) <- tag;
  t.pays.(!i) <- payload;
  while !i > 0 && before t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  if t.len = 0 then false
  else begin
    let last = t.len - 1 in
    (* Move the root into the freed slot [last] and re-heapify; the caller
       reads the popped entry from there via the [popped_*] accessors. *)
    swap t 0 last;
    t.len <- last;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i in
      if l < last && before t l !s then s := l;
      if r < last && before t r !s then s := r;
      if !s = !i then continue := false
      else begin
        swap t !i !s;
        i := !s
      end
    done;
    true
  end

let popped_time t = t.times.(t.len)
let popped_src t = t.srcs.(t.len)
let popped_dst t = t.dsts.(t.len)
let popped_tag t = t.tags.(t.len)
let popped_payload t = t.pays.(t.len)
