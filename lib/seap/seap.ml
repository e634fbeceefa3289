module Element = Dpq_util.Element
module Bitsize = Dpq_util.Bitsize
module Hashing = Dpq_util.Hashing
module Ldb = Dpq_overlay.Ldb
module Aggtree = Dpq_aggtree.Aggtree
module Phase = Dpq_aggtree.Phase
module Dht = Dpq_dht.Dht
module Kselect = Dpq_kselect.Kselect
module Oplog = Dpq_semantics.Oplog
module Clients = Dpq_types.Clients
module Host = Dpq_dht.Host

type consistency = Serializable | Sequential

type t = {
  host : Host.t;
  seed : int;
  consistency : consistency;
  ins_key_hash : Hashing.t; (* fresh random key per inserted element *)
  pos_key_hash : Hashing.t; (* (phase, pos) -> key for the rendezvous *)
  mutable m : int; (* v0.m: elements in the heap *)
  mutable phase_no : int;
}

let create ?(seed = 1) ?(replication = 1) ?(consistency = Serializable) ?trace ?faults ?sched
    ?gossip ~n () =
  if n < 1 then invalid_arg "Seap.create: need n >= 1";
  {
    host = Host.create ~name:"Seap" ?trace ?faults ?sched ?gossip ~seed ~replication ~n ();
    seed;
    consistency;
    ins_key_hash = Hashing.create ~seed:(seed + 104729);
    pos_key_hash = Hashing.create ~seed:(seed + 1299709);
    m = 0;
    phase_no = 0;
  }

let clients t = t.host.clients

include Clients.Make (struct
  type nonrec t = t

  let clients = clients
end)

let consistency t = t.consistency
let heap_size t = t.m
let load_estimate t = Host.load_estimate t.host

type dht_mode = Dpq_types.Types.dht_mode =
  | Dht_sync
  | Dht_async of { seed : int; policy : Dpq_simrt.Async_engine.delay_policy }

type round_result = {
  completions : completion list;
  report : Phase.report;
  kselect : Kselect.diagnostics option;
}

let int_bits = Bitsize.bits_of_int

(* Take this phase's share of every node's buffer: all matching operations
   (Serializable) or only the maximal leading run of them (Sequential). *)
let snapshot t keep =
  Clients.snapshot t.host.clients
    (match t.consistency with Serializable -> Matching keep | Sequential -> Leading keep)

(* Aggregate a pair of per-node list lengths to the anchor; the memo
   drives a later decomposition over the same nodes. *)
let count_pairs_up (h : Host.t) fst_per_node snd_per_node =
  Phase.up h.net
    ~local:(fun v ->
      match Ldb.kind v with
      | Ldb.Middle ->
          let node = Ldb.owner v in
          (List.length fst_per_node.(node), List.length snd_per_node.(node))
      | _ -> (0, 0))
    ~combine:(fun (a, b) (c, d) -> (a + c, b + d))
    ~size_bits:(fun (a, b) -> int_bits (max 1 a) + int_bits (max 1 b))

(* ------------------------------------------------------------- inserts *)

let insert_phase t ~dht_mode =
  let h = t.host in
  t.phase_no <- t.phase_no + 1;
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  (* Snapshot the buffered inserts (deletes stay for the next phase).
     Serializable mode takes every buffered insert; Sequential mode takes
     only each node's maximal leading run of inserts, so that a node's
     operations are consumed strictly in issue order across phases — the
     paper's §6 sketch of how to restore local consistency, at the cost of
     queues that can lag behind high injection rates. *)
  let pending_inserts = snapshot t (fun k -> k <> `Del) in
  (* Anchor's go-ahead broadcast, then the Put storm.  The insert count
     reaches the anchor on the delete phase's convergecast, which each node
     sends only once its own Puts are confirmed (§5.1's m update). *)
  add (Phase.broadcast h.net ~bits:1);
  let ops = ref [] in
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun node ins ->
      List.iter
        (fun (p : Clients.pending) ->
          match p.kind with
          | `Ins elt ->
              let key = Hashing.pair t.ins_key_hash elt.Element.origin elt.Element.seq in
              Hashtbl.replace by_key (node, key) (p.local_seq, elt);
              ops := Dht.Put { origin = node; key; elt; confirm = true } :: !ops
          | `Del -> assert false)
        ins)
    pending_inserts;
  let dht_cs, dht_r = Host.run_dht h ~dht_mode (List.rev !ops) in
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
    (fun (node, local_seq, elt) -> Clients.serialize h.clients ~node ~local_seq (Oplog.Insert elt) None)
    sorted;
  (!completions, !report, pending_inserts)

(* ------------------------------------------------------------- deletes *)

let pos_key t pos = Hashing.pair t.pos_key_hash t.phase_no pos

let delete_phase t ~dht_mode ~pending_inserts =
  let h = t.host in
  t.phase_no <- t.phase_no + 1;
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  let pending_deletes = snapshot t (fun k -> k = `Del) in
  (* The batch's one count convergecast, (inserts, deletes) per subtree:
     the anchor adds the inserts to m, then learns k.  A node sends it after
     its own confirmed Puts, so it is the barrier between the phase's
     inserts and its deletes (Lemma 5.2). *)
  let (inserts, k), _memo, up_r = count_pairs_up h pending_inserts pending_deletes in
  add up_r;
  t.m <- t.m + inserts;
  let completions = ref [] in
  let kselect_diag = ref None in
  let bots = ref [] in
  if k > 0 then begin
    let k_eff = min k t.m in
    if k_eff > 0 then begin
      (* Find the k_eff-th smallest stored element. *)
      let elements = Dht.elements_by_node h.dht in
      let sel =
        Kselect.select ~seed:(t.seed + t.phase_no) ~net:h.net ~elements ~k:k_eff ()
      in
      add sel.Kselect.report;
      kselect_diag := Some sel.Kselect.diagnostics;
      let e_k = sel.Kselect.element in
      (* Broadcast e_k so every node can pick out its rank-<=k elements. *)
      add (Phase.broadcast h.net ~bits:(Element.encoded_bits e_k));
      (* Pull those elements out of their random-key homes and assign them
         positions 1..k_eff by interval decomposition. *)
      let taken =
        Dht.take_matching_by_node h.dht ~f:(fun e -> Element.compare e e_k <= 0)
        |> Array.map (List.sort Element.compare)
      in
      let taken_total = Array.fold_left (fun acc l -> acc + List.length l) 0 taken in
      if taken_total <> k_eff then
        failwith
          (Printf.sprintf "Seap: expected %d elements at or below e_k, found %d" k_eff
             taken_total);
      let (taken_chk, del_chk), memo, up2 = count_pairs_up h taken pending_deletes in
      add up2;
      assert (taken_chk = k_eff && del_chk = k);
      (* One positions pass decomposes [1, k_eff] over the taken elements
         and over the deleters.  The deleter column is cut at k_eff, so its
         shortage (k - k_eff) turns into ⊥ answers at the traversal-last
         deleters. *)
      let starts, down_r =
        Phase.positions h.net ~memo ~first:[| 1; 1 |]
          ~size:(fun (elts, dels) j -> if j = 0 then elts else dels)
          ~bits:(fun _ start size -> Phase.cut_bits ~limit:k_eff start size)
          ~fixed_bits:0
      in
      add down_r;
      (* Phase 4-style DHT traffic: re-store the k smallest under h(pos),
         fetch per assigned deleter position. *)
      let ops = ref [] in
      let get_index = Hashtbl.create 64 in
      for node = 0 to Clients.n h.clients - 1 do
        let mv = Ldb.vnode ~owner:node Ldb.Middle in
        let elt_start = starts.(2 * mv) and del_start = starts.((2 * mv) + 1) in
        if elt_start < 0 && taken.(node) <> [] then
          failwith "Seap: stored elements got no positions";
        List.iteri
          (fun i elt ->
            ops :=
              Dht.Put { origin = node; key = pos_key t (elt_start + i); elt; confirm = false }
              :: !ops)
          taken.(node);
        List.iteri
          (fun i (d : Clients.pending) ->
            let pos = del_start + i in
            if del_start > 0 && pos <= k_eff then begin
              let key = pos_key t pos in
              Hashtbl.replace get_index (node, key) d.local_seq;
              ops := Dht.Get { origin = node; key } :: !ops
            end
            else
              (* ⊥: more deletes than elements (clause 2 of Def. 1.2 is
                 preserved: the heap really is empty for these). *)
              bots := (node, d.local_seq) :: !bots)
          pending_deletes.(node)
      done;
      let dht_cs, dht_r = Host.run_dht h ~dht_mode (List.rev !ops) in
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
          Clients.serialize h.clients ~node ~local_seq Oplog.Delete_min (Some elt))
        sorted
    end;
    (* ⊥ answers for everything that found an empty heap (either k_eff = 0
       or the excess handled above); patch their witnesses last. *)
    if k_eff = 0 then
      Array.iteri
        (fun node (dels : Clients.pending list) ->
          List.iter (fun (d : Clients.pending) -> bots := (node, d.local_seq) :: !bots) dels)
        pending_deletes;
    (* ⊥ answers serialize after the matched deletes of the phase, in
       per-node issue order (they are mutually concurrent). *)
    let sorted_bots = List.sort compare !bots in
    List.iter
      (fun (node, local_seq) ->
        completions := { node; local_seq; outcome = `Empty } :: !completions;
        Clients.serialize h.clients ~node ~local_seq Oplog.Delete_min None)
      sorted_bots
  end;
  (!completions, !report, !kselect_diag)

(* After a kill, resynchronize the anchor's element count m with what
   actually survived (identical when k > kills so far; smaller only when
   replication could not cover the loss). *)
let resync_m t () = t.m <- Dht.size t.host.dht

let process_round ?(dht_mode = Dht_sync) t =
  Host.commit_kills t.host ~step:(resync_m t);
  let ins_cs, ins_r, pending_inserts = insert_phase t ~dht_mode in
  let del_cs, del_r, kdiag = delete_phase t ~dht_mode ~pending_inserts in
  (* Gossip exchange at the round boundary (Sequential mode's retained
     deletes count once, when issued). *)
  let gossip_r = Host.exchange_gossip t.host in
  {
    completions = Clients.sort_completions (ins_cs @ del_cs);
    report = Phase.add_report (Phase.add_report ins_r del_r) gossip_r;
    kselect = kdiag;
  }

let drain ?(dht_mode = Dht_sync) t = Clients.drain t.host.clients (fun () -> process_round ~dht_mode t)

let stored_per_node t = Dht.stored_counts t.host.dht

(* ------------------------------------------------- membership changes *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

let add_node t = Host.add_node t.host ~step:ignore
let remove_last_node t = Host.remove_last_node t.host ~step:ignore
