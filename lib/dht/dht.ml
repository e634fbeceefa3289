module Ldb = Dpq_overlay.Ldb
module Sync = Dpq_simrt.Sync_engine
module Async = Dpq_simrt.Async_engine
module Phase = Dpq_aggtree.Phase
module Element = Dpq_util.Element
module Bitsize = Dpq_util.Bitsize

type op =
  | Put of { origin : int; key : int; elt : Element.t; confirm : bool }
  | Get of { origin : int; key : int }

type completion =
  | Put_confirmed of { origin : int; key : int }
  | Got of { origin : int; key : int; elt : Element.t }

(* The synchronous engine every batch runs on, with the arguments it was
   built with; [sync_send] is its send, built once with it. *)
type engine = {
  eng : int Sync.t;
  etrace : Dpq_obs.Trace.t option;
  efaults : Dpq_simrt.Fault_plan.t option;
  esched : Dpq_simrt.Sched.t option;
  sync_send : src:int -> dst:int -> int -> unit;
}

type t = {
  mutable ldb : Ldb.t;
  mutable header_bits : int; (* routing header for the current n, cached *)
  hash : Dpq_util.Hashing.t;
  k : int; (* replication degree; 1 = no replication *)
  (* Replica r's copy of the key space: replica 0 is the primary copy every
     rendezvous decision is made on; copies r >= 1 are maintained by the
     primary with backup-kind messages and only read by anti-entropy
     repair. *)
  stores : (int, Element.t Queue.t) Hashtbl.t array; (* key -> stored elements *)
  parkeds : (int, int Queue.t) Hashtbl.t array; (* key -> waiting requesters *)
  (* Transient tombstones: a backup removal that overtook its matching
     insertion (routes differ, so ordering across messages is arbitrary).
     Provably empty whenever a batch has quiesced. *)
  neg_elts : (int, Element.t list ref) Hashtbl.t array;
  neg_parks : (int, int list ref) Hashtbl.t array;
  (* Replica placement scratch: points and owners of replicas 0 .. k-1. *)
  rpoints : float array;
  rowners : int array;
  (* The in-flight batch.  Route [rid]'s visited-vnode path is
     [arena.(r_start.(rid)) ..] of length [r_len.(rid)]; its payload is one
     entry of each column.  Every route of a batch shares them; they grow
     geometrically during the batch and are dropped at its end. *)
  mutable arena : Ldb.path_buf;
  mutable nroutes : int;
  mutable r_start : int array;
  mutable r_len : int array;
  mutable r_bits : int array; (* payload bits, computed at launch *)
  mutable r_kind : int array;
  mutable r_origin : int array;
  mutable r_key : int array;
  mutable r_elt : Element.t array;
  mutable r_rep : int array; (* replica index of a backup message *)
  mutable completions : completion list; (* newest first *)
  mutable engine : engine option;
}

let compute_header_bits ldb =
  (* target point (≈ 2 log n bits at the needed resolution) + hop counter *)
  let n = max 2 (Ldb.n ldb) in
  (2 * Bitsize.log2_ceil n) + Bitsize.log2_ceil n

(* Filler for the element column and "no element" from [store_pop]. *)
let no_elt = Element.make ~prio:0 ~origin:(-1) ~seq:(-1) ()

let create ?(k = 1) ~ldb ~seed () =
  if k < 1 then invalid_arg "Dht.create: replication degree must be >= 1";
  {
    ldb;
    header_bits = compute_header_bits ldb;
    hash = Dpq_util.Hashing.create ~seed;
    k;
    stores = Array.init k (fun _ -> Hashtbl.create 64);
    parkeds = Array.init k (fun _ -> Hashtbl.create 16);
    neg_elts = Array.init k (fun _ -> Hashtbl.create 4);
    neg_parks = Array.init k (fun _ -> Hashtbl.create 4);
    rpoints = Array.make k 0.0;
    rowners = Array.make k 0;
    arena = Ldb.path_buf ();
    nroutes = 0;
    r_start = [||];
    r_len = [||];
    r_bits = [||];
    r_kind = [||];
    r_origin = [||];
    r_key = [||];
    r_elt = [||];
    r_rep = [||];
    completions = [];
    engine = None;
  }

let ldb t = t.ldb
(* A key's point as its 53-bit mantissa, the form [Ldb] looks it up in
   without boxing it. *)
let key_mantissa t k = Dpq_util.Hashing.point t.hash k
let key_point t k = Ldb.point_of_mantissa (key_mantissa t k)

(* Successor points: replica r of a key starts at h(x) + r/k (mod 1), then
   walks forward one managed arc at a time past every node that already
   holds a lower replica of the same key.  The walk is what makes the
   guarantee "any k - 1 copies of a key can be lost" literal rather than
   probabilistic: a real node's three virtual arcs are scattered around the
   circle, so with fixed offsets alone all k points can land on arcs of ONE
   node — a single kill then destroys every copy and anti-entropy has
   nothing left to pull from (seen in the wild at n = 5, k = 3).  Placement
   is recomputed against the current overlay on every use, so copies
   re-spread automatically after a kill re-homes the circle.  Replica 0 is
   exactly the unreplicated placement, so k = 1 runs are bit-identical to
   the historical behavior.  [place_replicas t r key] places replicas
   0..r in order into [t.rpoints] and [t.rowners], each walk checking the
   owners of the ones before it.  It builds no array or closure, and the
   next call overwrites the result.  Replica 0's point is the key's
   mantissa and crosses into [Ldb] unboxed; the others are built by float
   arithmetic (h(x) + r/k, then cycle labels), which no fixed-point int
   reproduces exactly for every k, so they keep [Ldb]'s float entry point
   and are boxed on each call, as are [p0] and every label read back. *)
let owner_used t r o =
  let used = ref false in
  for j = 0 to r - 1 do
    if t.rowners.(j) = o then used := true
  done;
  !used

let place_replicas t r key =
  let m0 = key_mantissa t key in
  let p0 = Ldb.point_of_mantissa m0 in
  t.rpoints.(0) <- p0;
  t.rowners.(0) <- Ldb.owner (Ldb.manager_of_mantissa t.ldb m0);
  for r' = 1 to r do
    let p = p0 +. (float_of_int r' /. float_of_int t.k) in
    let p = ref (if p >= 1.0 then p -. 1.0 else p) in
    let m = ref (Ldb.manager_of_point t.ldb !p) in
    (* Cap the walk at one full lap: with fewer live nodes than replicas a
       fresh owner does not exist, and the base point is the honest answer. *)
    let steps = ref 0 in
    while !steps <= 3 * Ldb.n t.ldb && owner_used t r' (Ldb.owner !m) do
      p := Ldb.label t.ldb (Ldb.succ t.ldb !m);
      m := Ldb.manager_of_point t.ldb !p;
      incr steps
    done;
    t.rpoints.(r') <- !p;
    t.rowners.(r') <- Ldb.owner !m
  done

let replica_point t r key =
  place_replicas t r key;
  t.rpoints.(r)

let manager_of_key t k = Ldb.manager_of_mantissa t.ldb (key_mantissa t k)

let replica_owner t r key =
  place_replicas t r key;
  t.rowners.(r)

(* In-flight wire format: an immediate integer [(rid lsl 16) lor idx]
   naming a route of the batch and the hop position of the message's
   current holder on that route's vnode path.  The modelled wire cost is
   the O(log n)-bit target point + hop counter of de Bruijn routing (a
   fixed routing header) plus the payload's encoded size, computed once at
   launch.  Forwarding a hop is then [w + 1], and launching a route walks
   it into the arena and writes one entry per payload column: a batch
   allocates nothing per route or per hop once its buffers have grown. *)
let kind_put = 0
let kind_put_confirm = 1
let kind_get = 2
let kind_reply = 3
let kind_confirm = 4

(* Primary -> backup replica maintenance (never sent when k = 1). *)
let kind_bset = 5
let kind_brm = 6
let kind_bpark = 7
let kind_bunpark = 8

let payload_bits ~kind ~origin ~key ~elt ~rep =
  let ob = Bitsize.bits_of_int origin and kb = Bitsize.bits_of_int key in
  if kind = kind_put || kind = kind_put_confirm then ob + kb + Element.encoded_bits elt + 1
  else if kind = kind_get || kind = kind_confirm then ob + kb
  else if kind = kind_reply then ob + kb + Element.encoded_bits elt
  else if kind = kind_bset || kind = kind_brm then
    kb + Element.encoded_bits elt + Bitsize.bits_of_int rep
  else kb + ob + Bitsize.bits_of_int rep

let grow a fill =
  let a' = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Start a batch on empty buffers: an earlier batch may have raised
   before [end_batch]. *)
let start_batch t =
  Ldb.path_clear t.arena;
  t.nroutes <- 0;
  t.completions <- []

(* Drop the batch's storage.  Keeping the arena and the columns for the
   next batch would save only their regrowth, a few dozen allocations per
   batch, but it held the largest batch's buffers through every other
   phase: at 20 s, 1.47x the parent's peak heap on skeap-open, against
   0.96x when they are dropped (EXPERIMENTS.md §S15). *)
let end_batch t =
  t.arena <- Ldb.path_buf ();
  t.nroutes <- 0;
  t.r_start <- [||];
  t.r_len <- [||];
  t.r_bits <- [||];
  t.r_kind <- [||];
  t.r_origin <- [||];
  t.r_key <- [||];
  t.r_elt <- [||];
  t.r_rep <- [||];
  t.completions <- []

(* Record the payload of the route just walked into the arena at [start],
   [len] vnodes long; returns its route id.  Sends nothing. *)
let record_route t ~start ~len ~kind ~origin ~key ~elt ~rep =
  if len > 0x10000 then invalid_arg "Dht: route too long for the wire encoding";
  let rid = t.nroutes in
  if rid = Array.length t.r_start then begin
    t.r_start <- grow t.r_start 0;
    t.r_len <- grow t.r_len 0;
    t.r_bits <- grow t.r_bits 0;
    t.r_kind <- grow t.r_kind 0;
    t.r_origin <- grow t.r_origin 0;
    t.r_key <- grow t.r_key 0;
    t.r_elt <- grow t.r_elt no_elt;
    t.r_rep <- grow t.r_rep 0
  end;
  t.r_start.(rid) <- start;
  t.r_len.(rid) <- len;
  t.r_bits.(rid) <- payload_bits ~kind ~origin ~key ~elt ~rep;
  t.r_kind.(rid) <- kind;
  t.r_origin.(rid) <- origin;
  t.r_key.(rid) <- key;
  t.r_elt.(rid) <- elt;
  t.r_rep.(rid) <- rep;
  t.nroutes <- rid + 1;
  rid

(* Walk a route from [src_vnode] to the manager of [point] and record it.
   A reply or backup point is a float; a request goes to its key's point,
   which [add_key_route] walks as a mantissa. *)
let add_route t ~src_vnode ~point ~kind ~origin ~key ~elt ~rep =
  let start = Ldb.path_length t.arena in
  let len = Ldb.walk_route t.ldb t.arena ~src:src_vnode ~point in
  record_route t ~start ~len ~kind ~origin ~key ~elt ~rep

let add_key_route t ~src_vnode ~kind ~origin ~key ~elt =
  let start = Ldb.path_length t.arena in
  let len = Ldb.walk_route_mantissa t.ldb t.arena ~src:src_vnode ~mantissa:(key_mantissa t key) in
  record_route t ~start ~len ~kind ~origin ~key ~elt ~rep:0

let hop_owner t rid idx = Ldb.owner (Ldb.path_get t.arena (t.r_start.(rid) + idx))

(* Put route [rid]'s first message on the wire.  [send] abstracts over the
   engine. *)
let send_route t ~send rid =
  let src = hop_owner t rid 0 in
  if t.r_len.(rid) <= 1 then
    (* Already at the manager: local handling via a self-send. *)
    send ~src ~dst:src (rid lsl 16)
  else send ~src ~dst:(hop_owner t rid 1) ((rid lsl 16) lor 1)

let route_via t ~send ~src_vnode ~point ~kind ~origin ~key ~elt ~rep =
  send_route t ~send (add_route t ~src_vnode ~point ~kind ~origin ~key ~elt ~rep)

let size_bits t w = t.header_bits + t.r_bits.(w lsr 16)

(* ------------------------------------------------- per-replica table ops *)

let tbl_push tbl key v =
  let q =
    match Hashtbl.find_opt tbl key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tbl key q;
        q
  in
  Queue.push v q

(* Remove the first entry of [key]'s queue satisfying [eq]; false if none. *)
let tbl_remove tbl key eq =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some q ->
      let keep = Queue.create () in
      let found = ref false in
      Queue.iter
        (fun v -> if (not !found) && eq v then found := true else Queue.push v keep)
        q;
      if !found then
        if Queue.is_empty keep then Hashtbl.remove tbl key else Hashtbl.replace tbl key keep;
      !found

let neg_add tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace tbl key (ref [ v ])

(* Cancel one tombstone matching [eq]; false if none. *)
let neg_cancel tbl key eq =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some l -> (
      let rec take acc = function
        | [] -> None
        | v :: rest when eq v -> Some (List.rev_append acc rest)
        | v :: rest -> take (v :: acc) rest
      in
      match take [] !l with
      | None -> false
      | Some rest ->
          if rest = [] then Hashtbl.remove tbl key else l := rest;
          true)

let store_push t key elt = tbl_push t.stores.(0) key elt
let park t key requester = tbl_push t.parkeds.(0) key requester

(* Pop the oldest entry of [key]'s queue, or [none]; no option is built. *)
let tbl_pop tbl key none =
  match Hashtbl.find tbl key with
  | exception Not_found -> none
  | q ->
      if Queue.is_empty q then none
      else begin
        let e = Queue.pop q in
        if Queue.is_empty q then Hashtbl.remove tbl key;
        e
      end

let store_pop t key = tbl_pop t.stores.(0) key no_elt
let unpark t key = tbl_pop t.parkeds.(0) key (-1)

(* Backup apply: a set/park whose removal already arrived cancels against
   the tombstone instead of landing. *)
let backup_set t r key elt =
  if not (neg_cancel t.neg_elts.(r) key (Element.equal elt)) then tbl_push t.stores.(r) key elt

let backup_rm t r key elt =
  if not (tbl_remove t.stores.(r) key (Element.equal elt)) then neg_add t.neg_elts.(r) key elt

let backup_park t r key origin =
  if not (neg_cancel t.neg_parks.(r) key (Int.equal origin)) then
    tbl_push t.parkeds.(r) key origin

let backup_unpark t r key origin =
  if not (tbl_remove t.parkeds.(r) key (Int.equal origin)) then
    neg_add t.neg_parks.(r) key origin

(* ------------------------------------------------------------- routing *)

let[@inline] reply_point t origin = Ldb.label t.ldb (Ldb.vnode ~owner:origin Ldb.Middle)

(* Primary-side replica maintenance fan-out (no-op at k = 1): one message
   of backup [kind] to each replica 1 .. k-1.  Every route is walked before
   the first is sent, because a send may deliver locally at once and
   re-enter [handle], which overwrites the placement scratch. *)
let backups_send t ~send ~src_vnode ~key ~kind ~origin ~elt =
  if t.k > 1 then begin
    place_replicas t (t.k - 1) key;
    let first = t.nroutes in
    for r = 1 to t.k - 1 do
      ignore (add_route t ~src_vnode ~point:t.rpoints.(r) ~kind ~origin ~key ~elt ~rep:r)
    done;
    for r = 1 to t.k - 1 do
      send_route t ~send (first + r - 1)
    done
  end

let complete t c = t.completions <- c :: t.completions

(* Engine-agnostic message handler.  [send] enqueues a message. *)
let handle t ~send w =
  let rid = w lsr 16 in
  let idx = w land 0xffff in
  let last = t.r_len.(rid) - 1 in
  if idx < last then
    (* Still in transit: forward one hop. *)
    send ~src:(hop_owner t rid idx) ~dst:(hop_owner t rid (idx + 1)) (w + 1)
  else begin
    if last < 0 then failwith "Dht: empty routing path";
    let final = Ldb.path_get t.arena (t.r_start.(rid) + last) in
    let kind = t.r_kind.(rid) and origin = t.r_origin.(rid) and key = t.r_key.(rid) in
    let elt = t.r_elt.(rid) and r = t.r_rep.(rid) in
    if kind = kind_put || kind = kind_put_confirm then begin
      let requester = unpark t key in
      if requester >= 0 then begin
        (* A Get was already waiting: rendezvous complete. *)
        backups_send t ~send ~src_vnode:final ~key ~kind:kind_bunpark ~origin:requester ~elt:no_elt;
        route_via t ~send ~src_vnode:final ~point:(reply_point t requester) ~kind:kind_reply
          ~origin:requester ~key ~elt ~rep:0
      end
      else begin
        store_push t key elt;
        backups_send t ~send ~src_vnode:final ~key ~kind:kind_bset ~origin:0 ~elt
      end;
      if kind = kind_put_confirm then
        route_via t ~send ~src_vnode:final ~point:(reply_point t origin) ~kind:kind_confirm ~origin
          ~key ~elt:no_elt ~rep:0
    end
    else if kind = kind_get then begin
      let elt = store_pop t key in
      if elt != no_elt then begin
        backups_send t ~send ~src_vnode:final ~key ~kind:kind_brm ~origin:0 ~elt;
        route_via t ~send ~src_vnode:final ~point:(reply_point t origin) ~kind:kind_reply ~origin
          ~key ~elt ~rep:0
      end
      else begin
        park t key origin;
        backups_send t ~send ~src_vnode:final ~key ~kind:kind_bpark ~origin ~elt:no_elt
      end
    end
    else if kind = kind_reply then complete t (Got { origin; key; elt })
    else if kind = kind_confirm then complete t (Put_confirmed { origin; key })
    else if kind = kind_bset then backup_set t r key elt
    else if kind = kind_brm then backup_rm t r key elt
    else if kind = kind_bpark then backup_park t r key origin
    else backup_unpark t r key origin
  end

let launch t ~send op =
  match op with
  | Put { origin; key; elt; confirm } ->
      send_route t ~send
        (add_key_route t ~src_vnode:(Ldb.vnode ~owner:origin Ldb.Middle)
           ~kind:(if confirm then kind_put_confirm else kind_put)
           ~origin ~key ~elt)
  | Get { origin; key } ->
      send_route t ~send
        (add_key_route t ~src_vnode:(Ldb.vnode ~owner:origin Ldb.Middle) ~kind:kind_get ~origin
           ~key ~elt:no_elt)

(* One trace event per launched operation, tagged with the manager node the
   key rendezvouses at. *)
let trace_ops trace t ops =
  match trace with
  | None -> ()
  | Some _ ->
      List.iter
        (fun op ->
          match op with
          | Put { origin; key; _ } ->
              Dpq_obs.Trace.dht_put trace ~origin ~key ~manager:(Ldb.owner (manager_of_key t key))
          | Get { origin; key } ->
              Dpq_obs.Trace.dht_get trace ~origin ~key ~manager:(Ldb.owner (manager_of_key t key)))
        ops

let same a b = match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false

(* The DHT's synchronous engine, reset to the state [Sync.create] leaves
   (so a batch costs and draws faults exactly as on a fresh engine), or
   rebuilt when the overlay changed ([kill_node] and [set_topology] drop
   it), the call's trace, fault plan or scheduler differ from the ones it
   was built with, or an earlier batch raised and left it busy. *)
let sync_engine ?trace ?faults ?sched t =
  match t.engine with
  | Some e
    when same e.etrace trace && same e.efaults faults && same e.esched sched
         && Sync.pending e.eng = 0
         && Sync.unacked e.eng = 0 ->
      Sync.reset_clock e.eng;
      e
  | _ ->
      let send_ref = ref (fun ~src:_ ~dst:_ _ -> assert false) in
      let send ~src ~dst m = !send_ref ~src ~dst m in
      let eng =
        Sync.create ~n:(Ldb.n t.ldb) ~size_bits:(size_bits t)
          ~handler:(fun _eng ~dst:_ ~src:_ w -> handle t ~send w)
          ?trace ?faults ?sched ()
      in
      send_ref := (fun ~src ~dst m -> Sync.send eng ~src ~dst m);
      let e = { eng; etrace = trace; efaults = faults; esched = sched; sync_send = send } in
      t.engine <- Some e;
      e

let run_batch_sync ?trace ?faults ?sched t ops =
  let span = Dpq_obs.Trace.phase_start trace "dht" in
  trace_ops trace t ops;
  let e = sync_engine ?trace ?faults ?sched t in
  start_batch t;
  List.iter (fun op -> launch t ~send:e.sync_send op) ops;
  let rounds = Sync.run_to_quiescence e.eng in
  let report = Phase.report_of_metrics (Sync.metrics e.eng) rounds in
  Phase.trace_phase_end trace span "dht" report;
  let cs = List.rev t.completions in
  end_batch t;
  (cs, report)

let run_batch_async ?trace ?faults ?sched t ~seed ?(policy = Dpq_simrt.Async_engine.Uniform (1.0, 10.0)) ops =
  (* The asynchronous model reports no synchronous cost, so the span closes
     with zeros even though delivery events are traced inside it. *)
  let span = Dpq_obs.Trace.phase_start trace "dht-async" in
  trace_ops trace t ops;
  start_batch t;
  let send_ref = ref (fun ~src:_ ~dst:_ _ -> assert false) in
  let send ~src ~dst m = !send_ref ~src ~dst m in
  let handler _eng ~dst:_ ~src:_ w = handle t ~send w in
  let eng = Async.create ~n:(Ldb.n t.ldb) ~seed ~policy ?trace ?faults ?sched ~size_bits:(size_bits t) ~handler () in
  send_ref := (fun ~src ~dst m -> Async.send eng ~src ~dst m);
  List.iter (fun op -> launch t ~send op) ops;
  ignore (Async.run_to_quiescence eng);
  Phase.trace_phase_end trace span "dht-async" Phase.empty_report;
  let cs = List.rev t.completions in
  end_batch t;
  cs

let set_topology t ldb' =
  (* Count the elements (and parked requests) whose manager moved to a
     different real node: the data that a join/leave hands off. *)
  let moved = ref 0 in
  let owner_of ldb key = Ldb.owner (Ldb.manager_of_mantissa ldb (key_mantissa t key)) in
  Hashtbl.iter
    (fun key q -> if owner_of t.ldb key <> owner_of ldb' key then moved := !moved + Queue.length q)
    t.stores.(0);
  Hashtbl.iter
    (fun key q -> if owner_of t.ldb key <> owner_of ldb' key then moved := !moved + Queue.length q)
    t.parkeds.(0);
  t.ldb <- ldb';
  t.header_bits <- compute_header_bits ldb';
  t.engine <- None;
  !moved

let stored_counts t =
  let counts = Array.make (Ldb.n t.ldb) 0 in
  Hashtbl.iter
    (fun key q ->
      let owner = Ldb.owner (manager_of_key t key) in
      counts.(owner) <- counts.(owner) + Queue.length q)
    t.stores.(0);
  counts

let size t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.stores.(0) 0
let pending_gets t = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.parkeds.(0) 0

(* One pass over the primary store, bucketed by owner: O(m + n) per call
   instead of a scan of all m keys for each of the n nodes.  Each node's
   list comes out exactly as a per-node [Hashtbl.fold] built it (the
   table's iteration order, each queue reversed onto the accumulator) —
   KSelect's Bernoulli draws walk these lists in order. *)
let elements_by_node t =
  let by_node = Array.make (Ldb.n t.ldb) [] in
  Hashtbl.iter
    (fun key q ->
      let owner = Ldb.owner (manager_of_key t key) in
      by_node.(owner) <- Queue.fold (fun acc e -> e :: acc) by_node.(owner) q)
    t.stores.(0);
  by_node

(* One pass that edits the primary store as it walks it
   ([filter_map_inplace] visits bindings in [iter]'s order): a key with no
   match is kept as it is, a key whose elements all match is dropped, and
   any other key's queue keeps its unmatched elements, rotated through
   itself in order.  Each key's taken elements go onto its owner's list in
   queue order, in front of the keys visited before. *)
let take_matching_by_node t ~f =
  let taken = Array.make (Ldb.n t.ldb) [] in
  Hashtbl.filter_map_inplace
    (fun key q ->
      let hits = Queue.fold (fun c e -> if f e then c + 1 else c) 0 q in
      if hits = 0 then Some q
      else begin
        let mine = ref [] in
        for _ = 1 to Queue.length q do
          let e = Queue.take q in
          if f e then mine := e :: !mine else Queue.push e q
        done;
        let owner = Ldb.owner (manager_of_key t key) in
        taken.(owner) <- List.rev_append !mine taken.(owner);
        (* Replica copies drop the same identities, key by key; modelled as
           free local bookkeeping, like the take itself (Seap charges this
           phase's traffic elsewhere). *)
        for r = 1 to t.k - 1 do
          List.iter (fun e -> ignore (tbl_remove t.stores.(r) key (Element.equal e))) !mine
        done;
        if Queue.is_empty q then None else Some q
      end)
    t.stores.(0);
  taken

(* ===================================================== anti-entropy repair

   Replica copies diverge only one way: a copy can MISS entries (its range
   was stored on a node that died, or a planted test divergence), never
   hold stale extras — removals are only issued by a primary that owns the
   entry, and tombstones absorb message races within a batch.  Union-merge
   is therefore the correct reconciliation, and one directed pull per
   replica pair suffices.

   The protocol is modeled on Scalaris's rr_recon: for every ordered
   replica pair (r_to pulls from r_from) and every pair of live nodes
   (w = the node owning the damaged range at r_to, v = the node owning the
   same keys at r_from), a session reconciles the two key sets with a
   compressed Merkle exchange.  Keys are placed in a binary hash trie over
   the top [max_depth] bits of a per-key integer hash u(x); a node's
   signature is the XOR over its keys of mix(u(x), content-sig(x)), which
   both sides compute from a sorted (u, sig) array with prefix-XOR range
   queries — no materialized tree.  w sends its frontier signatures
   top-down; v prunes equal subtrees, ships the entries of differing
   leaf-sized ranges, and asks w to descend otherwise.  Signatures travel
   truncated to 32 bits (Scalaris's trade-off: a collision only delays
   convergence by one repair pass).  Traffic is O(δ log m) for δ differing
   entries among m: one signature pair per differing node per level. *)

type repair_stats = {
  sessions : int;
  keys_pulled : int;
  elements_shipped : int;
  repair_messages : int;
  repair_bits : int;
}

let zero_repair_stats =
  { sessions = 0; keys_pulled = 0; elements_shipped = 0; repair_messages = 0; repair_bits = 0 }

(* Trie depth: u(x) keeps the top 52 bits of the key hash so shifted
   interval bounds stay well inside OCaml's 63-bit ints. *)
let max_depth = 52
let bucket_max = 4
let sig_bits = 32
let sig_mask = (1 lsl sig_bits) - 1

let key_u t key = Dpq_util.Hashing.int t.hash (key lxor 0x5bd1e995) land ((1 lsl max_depth) - 1)

(* Content signature of one key's replica copy: order-independent in the
   stored multiset (identities are unique), order-dependent in nothing. *)
let content_sig t elts parked =
  let h e =
    Dpq_util.Hashing.int t.hash
      (Dpq_util.Hashing.pair t.hash e.Element.prio (Dpq_util.Hashing.pair t.hash e.Element.origin e.Element.seq))
  in
  let acc = List.fold_left (fun acc e -> acc lxor h e) 0 elts in
  List.fold_left (fun acc o -> acc lxor Dpq_util.Hashing.int t.hash (o lxor 0x27d4eb2f)) acc parked
  land sig_mask

(* One side of a session: keys sorted by u, with per-key signatures, a
   prefix-XOR array for O(log) node signatures, and the full entries for
   shipping. *)
type side = {
  us : int array;
  skeys : int array;
  entries : (Element.t list * int list) array; (* elements, parked origins *)
  xor_pfx : int array; (* xor_pfx.(i) = xor of mix(u, sig) over [0, i) *)
}

let side_of_keys t r keys =
  let items =
    List.map
      (fun key ->
        let elts =
          match Hashtbl.find_opt t.stores.(r) key with
          | Some q -> List.of_seq (Queue.to_seq q)
          | None -> []
        in
        let parked =
          match Hashtbl.find_opt t.parkeds.(r) key with
          | Some q -> List.of_seq (Queue.to_seq q)
          | None -> []
        in
        (key_u t key, key, (elts, parked)))
      keys
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let n = List.length items in
  let us = Array.make n 0 and skeys = Array.make n 0 in
  let entries = Array.make n ([], []) in
  List.iteri
    (fun i (u, key, e) ->
      us.(i) <- u;
      skeys.(i) <- key;
      entries.(i) <- e)
    items;
  let xor_pfx = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let elts, parked = entries.(i) in
    let mix = Dpq_util.Hashing.pair t.hash us.(i) (content_sig t elts parked) in
    xor_pfx.(i + 1) <- xor_pfx.(i) lxor (mix land sig_mask)
  done;
  { us; skeys; entries; xor_pfx }

(* Index range [lo, hi) of u values under trie node (depth, prefix). *)
let side_range side ~depth ~prefix =
  let width = max_depth - depth in
  let lo_u = prefix lsl width in
  let hi_u = (prefix + 1) lsl width in
  let bsearch target =
    let lo = ref 0 and hi = ref (Array.length side.us) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if side.us.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (bsearch lo_u, bsearch hi_u)

let side_sig side ~lo ~hi = side.xor_pfx.(hi) lxor side.xor_pfx.(lo)

type rnode = { rdepth : int; rprefix : int; rsig : int; rleaf : bool }

type rmsg =
  | R_sigs of { sid : int; nodes : rnode list }
  | R_reply of {
      sid : int;
      descend : (int * int) list; (* (depth, prefix) pairs w should expand *)
      ship : (int * Element.t list * int list) list; (* key, elements, parked *)
    }

type session = {
  sid : int;
  sw : int; (* puller node *)
  sv : int; (* offerer node *)
  s_r_to : int;
  w_side : side;
  v_side : side;
  mutable outstanding : int;
  mutable s_keys_pulled : int;
  mutable s_elements_shipped : int;
  mutable s_done : bool;
      (* completion latch: co-located sessions deliver self-messages inline,
         so an outer R_reply frame can observe outstanding = 0 again after a
         nested frame already completed the session *)
}

let sid_bits = 16

let rmsg_bits = function
  | R_sigs { nodes; _ } ->
      List.fold_left (fun acc n -> acc + 6 + n.rdepth + sig_bits + 1) sid_bits nodes
  | R_reply { descend; ship; _ } ->
      let d = List.fold_left (fun acc (depth, _) -> acc + 6 + depth) 0 descend in
      List.fold_left
        (fun acc (key, elts, parked) ->
          acc + Bitsize.bits_of_int key
          + List.fold_left (fun a e -> a + Element.encoded_bits e) 0 elts
          + List.fold_left (fun a o -> a + Bitsize.bits_of_int o) 0 parked)
        (sid_bits + d) ship

let wnode_of w_side ~depth ~prefix =
  let lo, hi = side_range w_side ~depth ~prefix in
  {
    rdepth = depth;
    rprefix = prefix;
    rsig = side_sig w_side ~lo ~hi;
    rleaf = hi - lo <= bucket_max || depth >= max_depth;
  }

(* Merge entries shipped by the offerer into replica [r_to]'s copy: add
   elements missing by identity and parked requesters missing by count —
   strictly additive, per the one-sided divergence invariant. *)
let merge_shipped t s ship =
  List.iter
    (fun (key, elts, parked) ->
      let changed = ref false in
      let have_elts =
        match Hashtbl.find_opt t.stores.(s.s_r_to) key with
        | Some q -> List.of_seq (Queue.to_seq q)
        | None -> []
      in
      List.iter
        (fun e ->
          if not (List.exists (Element.equal e) have_elts) then begin
            tbl_push t.stores.(s.s_r_to) key e;
            changed := true;
            s.s_elements_shipped <- s.s_elements_shipped + 1
          end)
        elts;
      let have_parked =
        match Hashtbl.find_opt t.parkeds.(s.s_r_to) key with
        | Some q -> List.of_seq (Queue.to_seq q)
        | None -> []
      in
      let count x l = List.length (List.filter (Int.equal x) l) in
      List.sort_uniq Int.compare parked
      |> List.iter (fun o ->
             for _ = 1 to count o parked - count o have_parked do
               tbl_push t.parkeds.(s.s_r_to) key o;
               changed := true
             done);
      if !changed then s.s_keys_pulled <- s.s_keys_pulled + 1)
    ship

(* Run one directed reconciliation round: every replica pulls what it is
   missing from replica (r + stride) mod k.  All sessions share one
   synchronous engine; messages between co-located replicas are free local
   deliveries. *)
let repair_round ?trace t ~stride ~on_session =
  let live =
    List.filter (fun id -> Ldb.is_present t.ldb ~id) (List.init (Ldb.n t.ldb) Fun.id)
  in
  let sessions = Hashtbl.create 32 in
  let next_sid = ref 0 in
  (* Partition each replica's keys by (owner at r_to, owner at r_from). *)
  let keys_of r =
    let ks = Hashtbl.create 64 in
    Hashtbl.iter (fun key _ -> Hashtbl.replace ks key ()) t.stores.(r);
    Hashtbl.iter (fun key _ -> Hashtbl.replace ks key ()) t.parkeds.(r);
    Hashtbl.fold (fun key () acc -> key :: acc) ks [] |> List.sort Int.compare
  in
  let session_lists = Hashtbl.create 64 in
  (* (w, v, r_to) -> (w_keys ref, v_keys ref) *)
  let bucket w v r_to =
    match Hashtbl.find_opt session_lists (w, v, r_to) with
    | Some b -> b
    | None ->
        let b = (ref [], ref []) in
        Hashtbl.replace session_lists (w, v, r_to) b;
        b
  in
  for r_to = 0 to t.k - 1 do
    let r_from = (r_to + stride) mod t.k in
    List.iter
      (fun key ->
        let w = replica_owner t r_to key and v = replica_owner t r_from key in
        let wl, _ = bucket w v r_to in
        wl := key :: !wl)
      (keys_of r_to);
    List.iter
      (fun key ->
        let w = replica_owner t r_to key and v = replica_owner t r_from key in
        let _, vl = bucket w v r_to in
        vl := key :: !vl)
      (keys_of r_from)
  done;
  let send_ref = ref (fun ~src:_ ~dst:_ (_ : rmsg) -> assert false) in
  let send ~src ~dst m = !send_ref ~src ~dst m in
  let handler _eng ~dst:_ ~src:_ msg =
    match msg with
    | R_sigs { sid; nodes } ->
        (* Offerer side: prune equal subtrees, ship leaf-sized diffs, ask
           for a descent otherwise. *)
        let s = Hashtbl.find sessions sid in
        let descend = ref [] and ship = ref [] in
        List.iter
          (fun wn ->
            let lo, hi = side_range s.v_side ~depth:wn.rdepth ~prefix:wn.rprefix in
            let vsig = side_sig s.v_side ~lo ~hi in
            if vsig <> wn.rsig then
              if wn.rleaf || hi - lo <= bucket_max || wn.rdepth >= max_depth then begin
                for i = lo to hi - 1 do
                  let elts, parked = s.v_side.entries.(i) in
                  ship := (s.v_side.skeys.(i), elts, parked) :: !ship
                done
              end
              else descend := (wn.rdepth, wn.rprefix) :: !descend)
          nodes;
        send ~src:s.sv ~dst:s.sw (R_reply { sid; descend = List.rev !descend; ship = List.rev !ship })
    | R_reply { sid; descend; ship } ->
        let s = Hashtbl.find sessions sid in
        s.outstanding <- s.outstanding - 1;
        merge_shipped t s ship;
        let children =
          List.concat_map
            (fun (depth, prefix) ->
              [
                wnode_of s.w_side ~depth:(depth + 1) ~prefix:(2 * prefix);
                wnode_of s.w_side ~depth:(depth + 1) ~prefix:((2 * prefix) + 1);
              ])
            descend
        in
        if children <> [] then begin
          s.outstanding <- s.outstanding + 1;
          send ~src:s.sw ~dst:s.sv (R_sigs { sid; nodes = children })
        end;
        if s.outstanding = 0 && not s.s_done then begin
          s.s_done <- true;
          on_session s
        end
  in
  let eng =
    Sync.create ~n:(Ldb.n t.ldb) ~size_bits:rmsg_bits ~handler ?trace ()
  in
  send_ref := (fun ~src ~dst m -> Sync.send eng ~src ~dst m);
  (* Kick off every non-trivial session with the puller's root signature. *)
  Hashtbl.fold (fun key b acc -> (key, b) :: acc) session_lists []
  |> List.sort compare
  |> List.iter (fun ((w, v, r_to), (wl, vl)) ->
         if (!wl <> [] || !vl <> []) && List.mem w live && List.mem v live then begin
           let sid = !next_sid in
           incr next_sid;
           let s =
             {
               sid;
               sw = w;
               sv = v;
               s_r_to = r_to;
               w_side = side_of_keys t r_to !wl;
               v_side = side_of_keys t ((r_to + stride) mod t.k) !vl;
               outstanding = 1;
               s_keys_pulled = 0;
               s_elements_shipped = 0;
               s_done = false;
             }
           in
           Hashtbl.replace sessions sid s;
           send ~src:w ~dst:v (R_sigs { sid; nodes = [ wnode_of s.w_side ~depth:0 ~prefix:0 ] })
         end);
  let rounds = Sync.run_to_quiescence eng in
  let m = Sync.metrics eng in
  (!next_sid, rounds, Dpq_simrt.Metrics.total_messages m, Dpq_simrt.Metrics.total_bits m)

let repair ?trace t =
  if t.k = 1 then zero_repair_stats
  else begin
    let span = Dpq_obs.Trace.phase_start trace "repair" in
    let keys_pulled = ref 0 and elements_shipped = ref 0 in
    let sessions = ref 0 and messages = ref 0 and bits = ref 0 and rounds = ref 0 in
    let on_session s =
      if s.s_keys_pulled > 0 then begin
        keys_pulled := !keys_pulled + s.s_keys_pulled;
        elements_shipped := !elements_shipped + s.s_elements_shipped;
        Dpq_obs.Trace.repair_session trace ~src:s.sv ~dst:s.sw ~keys_pulled:s.s_keys_pulled
          ~elements_shipped:s.s_elements_shipped
      end
    in
    (* k - 1 directed strides propagate the union to every replica even
       when several copies of the same key were damaged. *)
    for stride = 1 to t.k - 1 do
      let ns, r, m, b = repair_round ?trace t ~stride ~on_session in
      sessions := !sessions + ns;
      rounds := !rounds + r;
      messages := !messages + m;
      bits := !bits + b
    done;
    Dpq_obs.Trace.repair_end trace ~sessions:!sessions ~keys_pulled:!keys_pulled
      ~elements_shipped:!elements_shipped;
    Dpq_obs.Trace.phase_end trace ~span ~name:"repair" ~rounds:!rounds ~messages:!messages
      ~max_congestion:0 ~max_message_bits:0 ~total_bits:!bits;
    {
      sessions = !sessions;
      keys_pulled = !keys_pulled;
      elements_shipped = !elements_shipped;
      repair_messages = !messages;
      repair_bits = !bits;
    }
  end

(* ------------------------------------------------------- permanent loss *)

type kill_report = { destroyed : int; repair : repair_stats }

let drop_replica_entries t ~r ~f =
  if r < 0 || r >= t.k then invalid_arg "Dht.drop_replica_entries: replica out of range";
  let dropped = ref 0 in
  let doomed tbl =
    Hashtbl.fold (fun key q acc -> if f ~key then (key, Queue.length q) :: acc else acc) tbl []
  in
  List.iter
    (fun (key, len) ->
      Hashtbl.remove t.stores.(r) key;
      dropped := !dropped + len)
    (doomed t.stores.(r));
  List.iter
    (fun (key, len) ->
      Hashtbl.remove t.parkeds.(r) key;
      dropped := !dropped + len)
    (doomed t.parkeds.(r));
  !dropped

let kill_node ?trace t ~node =
  if not (Ldb.is_present t.ldb ~id:node) then invalid_arg "Dht.kill_node: node already gone";
  (* 1. Destroy every replica copy the dead node stored (computed on the
     old overlay, where it still owns its ranges). *)
  let destroyed = ref 0 in
  for r = 0 to t.k - 1 do
    destroyed :=
      !destroyed + drop_replica_entries t ~r ~f:(fun ~key -> replica_owner t r key = node)
  done;
  (* 2. Re-home its key-range: survivors' cycle positions absorb it. *)
  t.ldb <- Ldb.remove t.ldb ~id:node;
  t.header_bits <- compute_header_bits t.ldb;
  t.engine <- None;
  Dpq_obs.Trace.repair_start trace ~node ~reason:"kill" ~entries_lost:!destroyed;
  (* 3. Anti-entropy repair rebuilds the lost copies from the survivors. *)
  let stats = repair ?trace t in
  { destroyed = !destroyed; repair = stats }
