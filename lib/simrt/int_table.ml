(* Int-keyed chained hash tables held in flat int arrays.  Every table
   draws its nodes from a [store] shared by all the tables of one layer;
   a table owns only its bucket heads.  The layout is [Hashtbl]'s, so the
   visit order is too: bucket [hash key land (buckets - 1)], a new key at
   the head of its bucket, doubling once size exceeds twice the buckets
   with each bucket split in order, and [reset] back to the initial
   bucket count. *)
type store = {
  mutable next : int array; (* next node in the bucket, or -1 *)
  mutable keys : int array;
  mutable vals : int array;
  mutable free : int; (* free nodes, chained through [next]; -1 if none *)
  mutable used : int; (* nodes ever handed out *)
}

(* [heads] has [nb] buckets, or is empty until the first insert. *)
type t = {
  hash : int -> int;
  initial : int;
  mutable nb : int;
  mutable heads : int array;
  mutable size : int;
}

let store () = { next = [||]; keys = [||]; vals = [||]; free = -1; used = 0 }

(* Bits 31.. of the product: every key bit moves the low ones, which pick
   the bucket. *)
let scatter k = (k * 0x2545F4914F6CDD1D) lsr 31

(* [Hashtbl.create n]'s bucket count. *)
let create ?(hash = Int.hash) n =
  let rec pow2 x = if x >= n then x else pow2 (2 * x) in
  let b = pow2 16 in
  { hash; initial = b; nb = b; heads = [||]; size = 0 }

let length t = t.size

let grow a fill =
  let a' = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let alloc st =
  if st.free >= 0 then begin
    let node = st.free in
    st.free <- st.next.(node);
    node
  end
  else begin
    let node = st.used in
    if node = Array.length st.next then begin
      st.next <- grow st.next (-1);
      st.keys <- grow st.keys 0;
      st.vals <- grow st.vals 0
    end;
    st.used <- node + 1;
    node
  end

(* Split every bucket [i] into [i] and [i + nb], each keeping the order
   its nodes had, as [Hashtbl]'s in-place resize does. *)
let resize st t =
  let nb = t.nb in
  let heads = Array.make (2 * nb) (-1) in
  for i = 0 to nb - 1 do
    let node = ref t.heads.(i) in
    let lo = ref (-1) and hi = ref (-1) in
    while !node >= 0 do
      let n = !node in
      node := st.next.(n);
      st.next.(n) <- -1;
      if t.hash st.keys.(n) land nb = 0 then begin
        if !lo < 0 then heads.(i) <- n else st.next.(!lo) <- n;
        lo := n
      end
      else begin
        if !hi < 0 then heads.(i + nb) <- n else st.next.(!hi) <- n;
        hi := n
      end
    done
  done;
  t.heads <- heads;
  t.nb <- 2 * nb

let add st t key v =
  if Array.length t.heads < t.nb then t.heads <- Array.make t.nb (-1);
  let node = alloc st in
  let b = t.hash key land (t.nb - 1) in
  st.keys.(node) <- key;
  st.vals.(node) <- v;
  st.next.(node) <- t.heads.(b);
  t.heads.(b) <- node;
  t.size <- t.size + 1;
  if t.size > 2 * t.nb then resize st t

(* The node holding [key], or -1. *)
let find_node st t key =
  if t.size = 0 then -1
  else begin
    let node = ref t.heads.(t.hash key land (t.nb - 1)) in
    while !node >= 0 && st.keys.(!node) <> key do
      node := st.next.(!node)
    done;
    !node
  end

let find st t key =
  let node = find_node st t key in
  if node < 0 then -1 else st.vals.(node)

let replace st t key v =
  let node = find_node st t key in
  if node >= 0 then st.vals.(node) <- v else add st t key v

let remove st t key =
  if t.size = 0 then -1
  else begin
    let b = t.hash key land (t.nb - 1) in
    let prev = ref (-1) and node = ref t.heads.(b) in
    while !node >= 0 && st.keys.(!node) <> key do
      prev := !node;
      node := st.next.(!node)
    done;
    let n = !node in
    if n < 0 then -1
    else begin
      if !prev < 0 then t.heads.(b) <- st.next.(n) else st.next.(!prev) <- st.next.(n);
      st.next.(n) <- st.free;
      st.free <- n;
      t.size <- t.size - 1;
      st.vals.(n)
    end
  end

(* Empty the table, keeping its bucket count, as [Hashtbl.clear]. *)
let clear st t =
  if t.size > 0 then begin
    for b = 0 to t.nb - 1 do
      let node = ref t.heads.(b) in
      while !node >= 0 do
        let n = !node in
        node := st.next.(n);
        st.next.(n) <- st.free;
        st.free <- n
      done;
      t.heads.(b) <- -1
    done;
    t.size <- 0
  end

let reset st t =
  clear st t;
  if t.nb > t.initial then begin
    t.heads <- [||];
    t.nb <- t.initial
  end

let fold st t f acc =
  let acc = ref acc in
  if t.size > 0 then
    for b = 0 to t.nb - 1 do
      let node = ref t.heads.(b) in
      while !node >= 0 do
        acc := f st.keys.(!node) st.vals.(!node) !acc;
        node := st.next.(!node)
      done
    done;
  !acc
