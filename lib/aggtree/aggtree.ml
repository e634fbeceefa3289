module Ldb = Dpq_overlay.Ldb

type t = {
  ldb : Ldb.t;
  root : Ldb.vnode;
  parent : Ldb.vnode option array;
  children : Ldb.vnode list array;
  depth : int array;
  height : int;
}

let compute_parent ldb root v =
  if v = root then None
  else
    match Ldb.kind v with
    | Ldb.Middle -> Some (Ldb.vnode ~owner:(Ldb.owner v) Ldb.Left)
    | Ldb.Right -> Some (Ldb.vnode ~owner:(Ldb.owner v) Ldb.Middle)
    | Ldb.Left -> Some (Ldb.pred ldb v)

let of_ldb ldb =
  let nv = 3 * Ldb.n ldb in
  let root = Ldb.min_vnode ldb in
  (* Removed nodes' vnodes are not on the cycle: they get no parent, no
     children and keep depth -1 (the membership test). *)
  let parent =
    Array.init nv (fun v ->
        if Ldb.is_present ldb ~id:(Ldb.owner v) then compute_parent ldb root v else None)
  in
  let children = Array.make nv [] in
  Array.iteri
    (fun v p ->
      match p with
      | None -> ()
      | Some p -> children.(p) <- v :: children.(p))
    parent;
  Array.iteri
    (fun p cs ->
      children.(p) <-
        List.sort (fun a b -> Float.compare (Ldb.label ldb a) (Ldb.label ldb b)) cs)
    children;
  (* BFS from the root for depths. *)
  let depth = Array.make nv (-1) in
  depth.(root) <- 0;
  let q = Queue.create () in
  Queue.add root q;
  let height = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if depth.(v) > !height then height := depth.(v);
    List.iter
      (fun c ->
        depth.(c) <- depth.(v) + 1;
        Queue.add c q)
      children.(v)
  done;
  { ldb; root; parent; children; depth; height = !height }

let ldb t = t.ldb
let n t = Ldb.n t.ldb
let root t = t.root
let parent t v = t.parent.(v)
let children t v = t.children.(v)
let is_leaf t v = t.children.(v) = []
let in_tree t v = t.depth.(v) >= 0
let height t = t.height
let vnodes t = Array.init (3 * Ldb.n t.ldb) (fun v -> v)

let check_invariants t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nv = 3 * Ldb.n t.ldb in
  let problems = ref None in
  let fail e = if !problems = None then problems := Some e in
  let present v = Ldb.is_present t.ldb ~id:(Ldb.owner v) in
  (* Exactly one root among the live vnodes. *)
  let roots = ref 0 in
  for v = 0 to nv - 1 do
    if present v && t.parent.(v) = None then incr roots
  done;
  if !roots <> 1 then fail (Printf.sprintf "expected 1 root, found %d" !roots);
  (* Parent/child consistency, <=2 children, reachability of live vnodes. *)
  for v = 0 to nv - 1 do
    (match t.parent.(v) with
    | None -> ()
    | Some p ->
        if not (List.mem v t.children.(p)) then
          fail (Printf.sprintf "vnode %d missing from children of its parent %d" v p));
    if List.length t.children.(v) > 2 then
      fail (Printf.sprintf "vnode %d has %d > 2 children" v (List.length t.children.(v)));
    if present v && t.depth.(v) < 0 then
      fail (Printf.sprintf "vnode %d unreachable from root" v);
    if (not (present v)) && (t.parent.(v) <> None || t.children.(v) <> []) then
      fail (Printf.sprintf "removed vnode %d still linked into the tree" v)
  done;
  match !problems with None -> Ok () | Some e -> err "%s" e
