module Element = Dpq_util.Element
module Interval = Dpq_util.Interval
module Bitsize = Dpq_util.Bitsize
module Hashing = Dpq_util.Hashing
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Dht = Dpq_dht.Dht
module Kselect = Dpq_kselect.Kselect
module Oplog = Dpq_semantics.Oplog
module Gossip = Dpq_gossip.Gossip

type pending = { local_seq : int; kind : [ `Ins of Element.t | `Del ] }

type consistency = Serializable | Sequential

type t = {
  mutable n : int;
  seed : int;
  consistency : consistency;
  trace : Dpq_obs.Trace.t option;
  faults : Dpq_simrt.Fault_plan.t option;
  sched : Dpq_simrt.Sched.t option;
  mutable ldb : Ldb.t;
  mutable tree : Aggtree.t;
  dht : Dht.t;
  ins_key_hash : Hashing.t; (* fresh random key per inserted element *)
  pos_key_hash : Hashing.t; (* (phase, pos) -> key for the rendezvous *)
  mutable buffers : pending Queue.t array;
  mutable seq_counters : int array;
  mutable elt_counters : int array;
  mutable m : int; (* v0.m: elements in the heap *)
  mutable phase_no : int;
  (* counters of retired node slots, so a reused id resumes its sequence
     numbers and oplog identities stay unique across churn *)
  retired : (int, int * int) Hashtbl.t;
  mutable witness_counter : int;
  mutable log : Oplog.record list;
  gossip : Gossip.t option; (* load estimator; exchanges after every round *)
}

let create ?(seed = 1) ?(replication = 1) ?(consistency = Serializable) ?trace ?faults ?sched
    ?gossip ~n () =
  if n < 1 then invalid_arg "Seap.create: need n >= 1";
  let ldb = Ldb.build ~n ~seed in
  {
    n;
    seed;
    consistency;
    trace;
    faults;
    sched;
    ldb;
    tree = Aggtree.of_ldb ldb;
    dht = Dht.create ~k:replication ~ldb ~seed:(seed + 7919) ();
    ins_key_hash = Hashing.create ~seed:(seed + 104729);
    pos_key_hash = Hashing.create ~seed:(seed + 1299709);
    buffers = Array.init n (fun _ -> Queue.create ());
    seq_counters = Array.make n 0;
    elt_counters = Array.make n 0;
    m = 0;
    phase_no = 0;
    retired = Hashtbl.create 4;
    witness_counter = 0;
    log = [];
    gossip = Option.map (fun config -> Gossip.create ~config ~seed ~n ()) gossip;
  }

let n t = t.n
let tree t = t.tree
let consistency t = t.consistency
let heap_size t = t.m
let replication t = Dht.replication t.dht
let live t ~node = node >= 0 && node < t.n && Ldb.is_present t.ldb ~id:node

let check_node t node =
  if node < 0 || node >= t.n then invalid_arg (Printf.sprintf "Seap: node %d out of range" node);
  if not (Ldb.is_present t.ldb ~id:node) then
    invalid_arg (Printf.sprintf "Seap: node %d was permanently lost" node)

let insert t ~node ~prio =
  check_node t node;
  if prio < 1 then invalid_arg "Seap.insert: priority must be >= 1";
  let seq = t.elt_counters.(node) in
  t.elt_counters.(node) <- seq + 1;
  let elt = Element.make ~prio ~origin:node ~seq () in
  let local_seq = t.seq_counters.(node) in
  t.seq_counters.(node) <- local_seq + 1;
  Queue.push { local_seq; kind = `Ins elt } t.buffers.(node);
  elt

let delete_min t ~node =
  check_node t node;
  let local_seq = t.seq_counters.(node) in
  t.seq_counters.(node) <- local_seq + 1;
  Queue.push { local_seq; kind = `Del } t.buffers.(node)

let pending_ops t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.buffers
let trace t = t.trace

let load_estimate t =
  match t.gossip with
  | None -> None
  | Some g -> Gossip.estimate g ~node:(Ldb.owner (Aggtree.root t.tree))

type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type completion = Dpq_types.Types.completion = {
  node : int;
  local_seq : int;
  outcome : [ `Inserted of Element.t | `Got of Element.t | `Empty ];
}

type round_result = {
  completions : completion list;
  report : Phase.report;
  kselect : Kselect.diagnostics option;
}

let int_bits = Bitsize.bits_of_int

let run_dht t ~dht_mode ops =
  match dht_mode with
  | Dht_sync -> Dht.run_batch_sync ?trace:t.trace ?faults:t.faults ?sched:t.sched t.dht ops
  | Dht_async { seed; policy } ->
      let cs = Dht.run_batch_async ?trace:t.trace ?faults:t.faults ?sched:t.sched t.dht ~seed ~policy ops in
      (cs, Phase.empty_report)

let next_witness t =
  let w = t.witness_counter in
  t.witness_counter <- w + 1;
  w

(* Take this phase's share of every node's buffer: all matching operations
   (Serializable) or only the maximal leading run of them (Sequential). *)
let snapshot t ~keep =
  Array.map
    (fun q ->
      match t.consistency with
      | Serializable ->
          let all = List.of_seq (Queue.to_seq q) in
          Queue.clear q;
          let mine, rest = List.partition keep all in
          List.iter (fun p -> Queue.push p q) rest;
          mine
      | Sequential ->
          let rec take acc =
            match Queue.peek_opt q with
            | Some p when keep p ->
                ignore (Queue.pop q);
                take (p :: acc)
            | _ -> List.rev acc
          in
          take [])
    t.buffers

(* ------------------------------------------------------------- inserts *)

let insert_phase t ~dht_mode =
  t.phase_no <- t.phase_no + 1;
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  (* Snapshot the buffered inserts (deletes stay for the next phase).
     Serializable mode takes every buffered insert; Sequential mode takes
     only each node's maximal leading run of inserts, so that a node's
     operations are consumed strictly in issue order across phases — the
     paper's §6 sketch of how to restore local consistency, at the cost of
     queues that can lag behind high injection rates. *)
  let pending_inserts = snapshot t ~keep:(fun p -> p.kind <> `Del) in
  (* Aggregate the insert count; the anchor updates m (§5.1). *)
  let count_local v =
    match Ldb.kind v with
    | Ldb.Middle -> List.length pending_inserts.(Ldb.owner v)
    | _ -> 0
  in
  let total, _memo, up_r =
    Phase.up ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~local:count_local ~combine:( + )
      ~size_bits:(fun c -> int_bits (max 1 c))
      ()
  in
  add up_r;
  t.m <- t.m + total;
  (* Anchor's go-ahead broadcast, then the Put storm. *)
  add (Phase.broadcast ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~payload:() ~size_bits:(fun () -> 1) ());
  let ops = ref [] in
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun node ins ->
      List.iter
        (fun p ->
          match p.kind with
          | `Ins elt ->
              let key = Hashing.pair t.ins_key_hash elt.Element.origin elt.Element.seq in
              Hashtbl.replace by_key (node, key) (p.local_seq, elt);
              ops := Dht.Put { origin = node; key; elt; confirm = true } :: !ops
          | `Del -> assert false)
        ins)
    pending_inserts;
  let dht_cs, dht_r = run_dht t ~dht_mode (List.rev !ops) in
  add dht_r;
  let completions = ref [] in
  let inserted = ref [] in
  List.iter
    (fun c ->
      match c with
      | Dht.Put_confirmed { origin; key } -> (
          match Hashtbl.find_opt by_key (origin, key) with
          | None -> failwith "Seap: confirmation for unknown put"
          | Some (local_seq, elt) ->
              completions := { node = origin; local_seq; outcome = `Inserted elt } :: !completions;
              inserted := (origin, local_seq, elt) :: !inserted)
      | Dht.Got _ -> failwith "Seap: unexpected Get completion in insert phase")
    dht_cs;
  if List.length !inserted <> List.length !ops then
    failwith "Seap: some inserts were not confirmed";
  (* Witness: this phase's inserts are concurrent, so any fixed permutation
     serves (Lemma 5.2 picks a random one); (node, issue order) additionally
     preserves local consistency for the Sequential mode. *)
  let sorted =
    List.sort
      (fun (n1, s1, _) (n2, s2, _) ->
        let c = Int.compare n1 n2 in
        if c <> 0 then c else Int.compare s1 s2)
      !inserted
  in
  List.iter
    (fun (node, local_seq, elt) ->
      t.log <-
        Oplog.
          { node; local_seq; witness = next_witness t; kind = Oplog.Insert elt; result = None }
        :: t.log)
    sorted;
  (!completions, !report)

(* ------------------------------------------------------------- deletes *)

let pos_key t pos = Hashing.pair t.pos_key_hash t.phase_no pos

let delete_phase t ~dht_mode =
  t.phase_no <- t.phase_no + 1;
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  let pending_deletes = snapshot t ~keep:(fun p -> p.kind = `Del) in
  (* Aggregate the delete count k (memo drives the position decomposition
     for the deleters later). *)
  let count_local v =
    match Ldb.kind v with
    | Ldb.Middle -> List.length pending_deletes.(Ldb.owner v)
    | _ -> 0
  in
  let k, del_memo, up_r =
    Phase.up ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~local:count_local ~combine:( + )
      ~size_bits:(fun c -> int_bits (max 1 c))
      ()
  in
  add up_r;
  let completions = ref [] in
  let kselect_diag = ref None in
  let bots = ref [] in
  if k > 0 then begin
    let k_eff = min k t.m in
    if k_eff > 0 then begin
      (* Find the k_eff-th smallest stored element. *)
      let elements = Dht.elements_by_node t.dht in
      let sel =
        Kselect.select ~seed:(t.seed + t.phase_no) ?trace:t.trace ?faults:t.faults ?sched:t.sched
          ~tree:t.tree ~elements ~k:k_eff ()
      in
      add sel.Kselect.report;
      kselect_diag := Some sel.Kselect.diagnostics;
      let e_k = sel.Kselect.element in
      (* Broadcast e_k so every node can pick out its rank-<=k elements. *)
      add
        (Phase.broadcast ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~payload:e_k
           ~size_bits:Element.encoded_bits ());
      (* Pull those elements out of their random-key homes and assign them
         positions 1..k_eff by interval decomposition. *)
      let taken =
        Dht.take_matching_by_node t.dht ~f:(fun e -> Element.compare e e_k <= 0)
        |> Array.map (List.sort Element.compare)
      in
      let taken_total = Array.fold_left (fun acc l -> acc + List.length l) 0 taken in
      if taken_total <> k_eff then
        failwith
          (Printf.sprintf "Seap: expected %d elements at or below e_k, found %d" k_eff
             taken_total);
      let counts_local v =
        match Ldb.kind v with Ldb.Middle -> List.length taken.(Ldb.owner v) | _ -> 0
      in
      let total_chk, taken_memo, up2 =
        Phase.up ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~local:counts_local ~combine:( + )
          ~size_bits:(fun c -> int_bits (max 1 c))
          ()
      in
      add up2;
      assert (total_chk = k_eff);
      let elt_positions, down1 =
        Phase.down ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~memo:taken_memo
          ~root_payload:(Interval.make 1 k_eff)
          ~split:(fun ~parts iv -> Interval.split_sizes iv parts)
          ~size_bits:(fun iv ->
            if Interval.is_empty iv then 2
            else Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv))
          ()
      in
      add down1;
      (* Decompose [1, k_eff] over the deleters as well; the shortage
         (k - k_eff) turns into ⊥ answers at the traversal-last deleters. *)
      let del_positions, down2 =
        Phase.down ?trace:t.trace ?faults:t.faults ?sched:t.sched ~tree:t.tree ~memo:del_memo
          ~root_payload:(Interval.make 1 k_eff)
          ~split:(fun ~parts iv ->
            (* like Interval.split_sizes but tolerating shortage *)
            let rest = ref iv in
            List.map
              (fun want ->
                let front, back = Interval.take !rest want in
                rest := back;
                front)
              parts)
          ~size_bits:(fun iv ->
            if Interval.is_empty iv then 2
            else Bitsize.interval_bits ~lo:(Interval.lo iv) ~hi:(Interval.hi iv))
          ()
      in
      add down2;
      (* Phase 4-style DHT traffic: re-store the k smallest under h(pos),
         fetch per assigned deleter position. *)
      let ops = ref [] in
      let get_index = Hashtbl.create 64 in
      for node = 0 to t.n - 1 do
        let mv = Ldb.vnode ~owner:node Ldb.Middle in
        (match elt_positions.(mv) with
        | None -> if taken.(node) <> [] then failwith "Seap: stored elements got no positions"
        | Some iv ->
            List.iter2
              (fun pos elt ->
                ops := Dht.Put { origin = node; key = pos_key t pos; elt; confirm = false } :: !ops)
              (Interval.positions iv) taken.(node));
        let dels = pending_deletes.(node) in
        let positions =
          match del_positions.(mv) with None -> [] | Some iv -> Interval.positions iv
        in
        let rec assign (dels : pending list) positions =
          match (dels, positions) with
          | [], _ -> ()
          | d :: dtl, pos :: ptl ->
              let key = pos_key t pos in
              Hashtbl.replace get_index (node, key) d.local_seq;
              ops := Dht.Get { origin = node; key } :: !ops;
              assign dtl ptl
          | d :: dtl, [] ->
              (* ⊥: more deletes than elements (clause 2 of Def. 1.2 is
                 preserved: the heap really is empty for these). *)
              bots := (node, d.local_seq) :: !bots;
              assign dtl []
        in
        assign dels positions
      done;
      let dht_cs, dht_r = run_dht t ~dht_mode (List.rev !ops) in
      add dht_r;
      let raw_got = ref [] in
      List.iter
        (fun c ->
          match c with
          | Dht.Got { origin; key; elt } -> (
              match Hashtbl.find_opt get_index (origin, key) with
              | None -> failwith "Seap: DHT returned an element nobody asked for"
              | Some local_seq ->
                  Hashtbl.remove get_index (origin, key);
                  raw_got := (origin, local_seq, elt) :: !raw_got)
          | Dht.Put_confirmed _ -> ())
        dht_cs;
      if Hashtbl.length get_index > 0 then
        failwith "Seap: some DeleteMin requests never met their element";
      t.m <- t.m - k_eff;
      (* Once all of a node's fetches are in, it rebinds them locally:
         smallest fetched element to its first-issued delete, and so on.
         That keeps each node's delete answers in issue order (needed for
         the Sequential mode; harmless otherwise, since the phase's deletes
         are concurrent). *)
      let got = ref [] in
      let by_node = Hashtbl.create 16 in
      List.iter
        (fun (node, local_seq, elt) ->
          let seqs, elts =
            match Hashtbl.find_opt by_node node with Some se -> se | None -> ([], [])
          in
          Hashtbl.replace by_node node (local_seq :: seqs, elt :: elts))
        !raw_got;
      Hashtbl.iter
        (fun node (seqs, elts) ->
          let seqs = List.sort Int.compare seqs in
          let elts = List.sort Element.compare elts in
          List.iter2
            (fun local_seq elt ->
              got := (node, local_seq, elt) :: !got;
              completions := { node; local_seq; outcome = `Got elt } :: !completions)
            seqs elts)
        by_node;
      (* Witness: matched deletes in element-rank order (any permutation of
         the concurrent phase is a valid serialization; rank order makes the
         serial replay pop exact minima), then the ⊥s. *)
      let sorted = List.sort (fun (_, _, a) (_, _, b) -> Element.compare a b) !got in
      List.iter
        (fun (node, local_seq, elt) ->
          t.log <-
            Oplog.
              {
                node;
                local_seq;
                witness = next_witness t;
                kind = Oplog.Delete_min;
                result = Some elt;
              }
            :: t.log)
        sorted
    end;
    (* ⊥ answers for everything that found an empty heap (either k_eff = 0
       or the excess handled above); patch their witnesses last. *)
    if k_eff = 0 then
      Array.iteri
        (fun node (dels : pending list) ->
          List.iter (fun (d : pending) -> bots := (node, d.local_seq) :: !bots) dels)
        pending_deletes;
    (* ⊥ answers serialize after the matched deletes of the phase, in
       per-node issue order (they are mutually concurrent). *)
    let sorted_bots = List.sort compare !bots in
    List.iter
      (fun (node, local_seq) ->
        completions := { node; local_seq; outcome = `Empty } :: !completions;
        t.log <-
          Oplog.
            {
              node;
              local_seq;
              witness = next_witness t;
              kind = Oplog.Delete_min;
              result = None;
            }
          :: t.log)
      sorted_bots
  end;
  (!completions, !report, !kselect_diag)

(* Kills commit at round boundaries (quiescent points): destroy the dead
   node's copies, drop its buffered operations, re-home its key range and
   repair, then resynchronize the anchor's element count m with what
   actually survived (identical when k > kills so far; smaller only when
   replication could not cover the loss). *)
let commit_kills t =
  match t.faults with
  | None -> ()
  | Some plan ->
      List.iter
        (fun node ->
          if node >= t.n then
            invalid_arg
              (Printf.sprintf "Seap: fault plan kills node %d but the heap has %d nodes" node t.n);
          if Ldb.is_present t.ldb ~id:node then begin
            Queue.clear t.buffers.(node);
            ignore (Dht.kill_node ?trace:t.trace t.dht ~node);
            t.ldb <- Dht.ldb t.dht;
            t.tree <- Aggtree.of_ldb t.ldb;
            t.m <- Dht.size t.dht
          end;
          Dpq_simrt.Fault_plan.commit_kill plan t.trace ~node)
        (Dpq_simrt.Fault_plan.pending_kills plan)

let process_round ?(dht_mode = Dht_sync) t =
  commit_kills t;
  let ins_cs, ins_r = insert_phase t ~dht_mode in
  let del_cs, del_r, kdiag = delete_phase t ~dht_mode in
  (* Gossip exchange at the round boundary.  The local observation diffs
     the monotone per-node issue counters, so operations still buffered
     (Sequential mode retains unserviced deletes) count once, when issued. *)
  let gossip_r =
    match t.gossip with
    | None -> Phase.empty_report
    | Some g ->
        Gossip.exchange ?trace:t.trace ?faults:t.faults ?sched:t.sched g
          ~live:(fun v -> v < t.n && Ldb.is_present t.ldb ~id:v)
          ~cumulative:(fun v -> t.seq_counters.(v))
          ~anchor:(Ldb.owner (Aggtree.root t.tree))
          ()
  in
  let completions =
    List.sort
      (fun a b ->
        let c = Int.compare a.node b.node in
        if c <> 0 then c else Int.compare a.local_seq b.local_seq)
      (ins_cs @ del_cs)
  in
  { completions; report = Phase.add_report (Phase.add_report ins_r del_r) gossip_r; kselect = kdiag }

let drain ?(dht_mode = Dht_sync) t =
  let rec go acc =
    if pending_ops t = 0 then List.rev acc else go (process_round ~dht_mode t :: acc)
  in
  go []

let oplog t = Oplog.of_list t.log

let take_log t =
  let l = t.log in
  t.log <- [];
  (* witnesses are assigned when an operation serializes, which can precede
     the moment its record is logged (e.g. matched deletes complete after
     the DHT round), so the retained list is not witness-sorted *)
  List.sort (fun (a : Oplog.record) b -> Int.compare a.Oplog.witness b.Oplog.witness) l
let stored_per_node t = Dht.stored_counts t.dht

(* ------------------------------------------------- membership changes *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

let retopology t ldb' =
  let moved = Dht.set_topology t.dht ldb' in
  t.ldb <- ldb';
  t.tree <- Aggtree.of_ldb ldb';
  moved

let grow_array a len zero = Array.init len (fun i -> if i < Array.length a then a.(i) else zero)

let add_node t =
  let join_messages = Ldb.join_cost_hops t.ldb in
  let ldb' = Ldb.join t.ldb in
  let moved_elements = retopology t ldb' in
  t.n <- t.n + 1;
  t.buffers <-
    Array.init t.n (fun i -> if i < Array.length t.buffers then t.buffers.(i) else Queue.create ());
  let seq0, elt0 =
    match Hashtbl.find_opt t.retired (t.n - 1) with Some c -> c | None -> (0, 0)
  in
  t.seq_counters <- grow_array t.seq_counters t.n seq0;
  t.elt_counters <- grow_array t.elt_counters t.n elt0;
  Option.iter (fun g -> Gossip.grow g t.n) t.gossip;
  Dpq_obs.Trace.churn t.trace ~kind:"join" ~n:t.n ~join_messages ~moved_elements;
  { join_messages; moved_elements }

let remove_last_node t =
  if t.n <= 1 then invalid_arg "Seap.remove_last_node: cannot empty the heap";
  let leaving = t.n - 1 in
  if not (Queue.is_empty t.buffers.(leaving)) then
    invalid_arg "Seap.remove_last_node: leaving node still has buffered operations";
  Hashtbl.replace t.retired leaving (t.seq_counters.(leaving), t.elt_counters.(leaving));
  let ldb' = Ldb.leave t.ldb ~id:leaving in
  let moved_elements = retopology t ldb' in
  t.n <- t.n - 1;
  t.buffers <- Array.sub t.buffers 0 t.n;
  t.seq_counters <- Array.sub t.seq_counters 0 t.n;
  t.elt_counters <- Array.sub t.elt_counters 0 t.n;
  let join_messages = Ldb.join_cost_hops ldb' in
  Dpq_obs.Trace.churn t.trace ~kind:"leave" ~n:t.n ~join_messages ~moved_elements;
  { join_messages; moved_elements }
