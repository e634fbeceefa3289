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
module Int_table = Dpq_simrt.Int_table

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

let is_insert : Clients.kind -> bool = function `Ins _ -> true | `Del -> false
let is_delete : Clients.kind -> bool = function `Del -> true | `Ins _ -> false

let inserted (p : Clients.pending) =
  match p.kind with `Ins elt -> elt | `Del -> invalid_arg "Seap: a delete among the inserts"

(* Aggregate a pair of per-node list lengths to the anchor, packed in one
   int; the memo drives a later decomposition over the same nodes. *)
let count_pairs_up (h : Host.t) fst_per_node snd_per_node =
  let counts, memo, r =
    Phase.up h.net
      ~local:(fun v ->
        match Ldb.kind v with
        | Ldb.Middle ->
            let node = Ldb.owner v in
            Phase.pack_counts (List.length fst_per_node.(node)) (List.length snd_per_node.(node))
        | _ -> 0)
      ~combine:( + )
      ~size_bits:(fun c ->
        int_bits (max 1 (Phase.first_count c)) + int_bits (max 1 (Phase.second_count c)))
  in
  (Phase.first_count counts, Phase.second_count counts, memo, r)

(* The requests of a phase that expect an answer, by DHT key: a flat int
   table from key to the request's slot (an insert's: its origin), so a
   request costs no bucket, tuple or option.  An answer removes its
   request; an answer to an unknown or already answered key finds -1. *)
type requests = { store : Int_table.store; by_key : Int_table.t }

let requests count = { store = Int_table.store (); by_key = Int_table.create ~hash:Fun.id count }

let request rq key slot =
  if Int_table.find rq.store rq.by_key key >= 0 then failwith "Seap: two requests share a DHT key";
  Int_table.add rq.store rq.by_key key slot

let answer rq key = Int_table.remove rq.store rq.by_key key
let unanswered rq = Int_table.length rq.by_key

(* ------------------------------------------------------------- inserts *)

(* [node]'s inserts as confirmed Puts, in issue order, before [tail]; each
   key's request names its origin. *)
let[@tail_mod_cons] rec insert_puts t rq node tail = function
  | [] -> tail
  | p :: rest ->
      let elt = inserted p in
      let key = Hashing.pair t.ins_key_hash elt.Element.origin elt.Element.seq in
      request rq key node;
      Dht.Put { origin = node; key; elt; confirm = true } :: insert_puts t rq node tail rest

let rec serialize_inserts clients node = function
  | [] -> ()
  | (p : Clients.pending) :: rest ->
      Clients.serialize clients ~node ~local_seq:p.local_seq (Oplog.Insert (inserted p)) None;
      serialize_inserts clients node rest

let[@tail_mod_cons] rec insert_answers node tail = function
  | [] -> tail
  | (p : Clients.pending) :: rest ->
      { node; local_seq = p.local_seq; outcome = `Inserted (inserted p) }
      :: insert_answers node tail rest

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
  let pending_inserts = snapshot t is_insert in
  let n = Array.length pending_inserts in
  (* Anchor's go-ahead broadcast, then the Put storm.  The insert count
     reaches the anchor on the delete phase's convergecast, which each node
     sends only once its own Puts are confirmed (§5.1's m update). *)
  add (Phase.broadcast h.net ~bits:1);
  let count = Array.fold_left (fun acc ins -> acc + List.length ins) 0 pending_inserts in
  let rq = requests count in
  let ops = ref [] in
  for node = n - 1 downto 0 do
    ops := insert_puts t rq node !ops pending_inserts.(node)
  done;
  let dht_cs, dht_r = Host.run_dht h ~dht_mode !ops in
  add dht_r;
  List.iter
    (fun c ->
      match c with
      | Dht.Put_confirmed { origin; key } ->
          if answer rq key <> origin then failwith "Seap: confirmation for unknown put"
      | Dht.Got _ -> failwith "Seap: unexpected Get completion in insert phase")
    dht_cs;
  if unanswered rq > 0 then failwith "Seap: some inserts were not confirmed";
  (* Witness: this phase's inserts are concurrent, so any fixed permutation
     serves (Lemma 5.2 picks a random one); (node, issue order) additionally
     preserves local consistency for the Sequential mode.  The snapshot is
     already in that order, and so are the completions. *)
  for node = 0 to n - 1 do
    serialize_inserts h.clients node pending_inserts.(node)
  done;
  let completions = ref [] in
  for node = n - 1 downto 0 do
    completions := insert_answers node !completions pending_inserts.(node)
  done;
  (!completions, !report, pending_inserts)

(* ------------------------------------------------------------- deletes *)

let pos_key t pos = Hashing.pair t.pos_key_hash t.phase_no pos

(* The fetch requests of the matched deletes, one slot each: nodes
   ascending, each node's in issue order, so a node's slots are
   consecutive.  [d_elt] is the element a slot's Get fetched, rebound to
   the node's deletes in element order into [d_rebound]. *)
type deletes = {
  d_node : int array;
  d_seq : int array;
  d_elt : Element.t array;
  d_rebound : Element.t array;
}

(* [node]'s Puts of its taken elements under positions [pos ..], in
   order, before [tail]. *)
let[@tail_mod_cons] rec taken_puts t node pos tail = function
  | [] -> tail
  | elt :: rest ->
      Dht.Put { origin = node; key = pos_key t pos; elt; confirm = false }
      :: taken_puts t node (pos + 1) tail rest

(* [node]'s first [count] deletes as Gets of positions [pos ..], filling
   slots [slot ..], before [tail]. *)
let[@tail_mod_cons] rec delete_gets t rq (d : deletes) node pos slot count tail = function
  | (p : Clients.pending) :: rest when count > 0 ->
      let key = pos_key t pos in
      request rq key slot;
      d.d_node.(slot) <- node;
      d.d_seq.(slot) <- p.local_seq;
      Dht.Get { origin = node; key } :: delete_gets t rq d node (pos + 1) (slot + 1) (count - 1) tail rest
  | _ -> tail

(* ⊥ for [node]'s deletes after its first [matched]. *)
let rec serialize_empty clients node matched = function
  | [] -> ()
  | (p : Clients.pending) :: rest ->
      if matched <= 0 then
        Clients.serialize clients ~node ~local_seq:p.local_seq Oplog.Delete_min None;
      serialize_empty clients node (matched - 1) rest

(* [node]'s delete answers in issue order before [tail]: the rebound
   elements of its slots [slot ..] while [count] last, then ⊥. *)
let[@tail_mod_cons] rec delete_answers rebound node slot count tail = function
  | [] -> tail
  | (p : Clients.pending) :: rest ->
      let outcome = if count > 0 then `Got rebound.(slot) else `Empty in
      { node; local_seq = p.local_seq; outcome }
      :: delete_answers rebound node (slot + 1) (count - 1) tail rest

let delete_phase t ~dht_mode ~pending_inserts =
  let h = t.host in
  t.phase_no <- t.phase_no + 1;
  let report = ref Phase.empty_report in
  let add r = report := Phase.add_report !report r in
  let pending_deletes = snapshot t is_delete in
  let n = Array.length pending_deletes in
  (* The batch's one count convergecast, (inserts, deletes) per subtree:
     the anchor adds the inserts to m, then learns k.  A node sends it after
     its own confirmed Puts, so it is the barrier between the phase's
     inserts and its deletes (Lemma 5.2). *)
  let inserts, k, _memo, up_r = count_pairs_up h pending_inserts pending_deletes in
  add up_r;
  t.m <- t.m + inserts;
  let kselect_diag = ref None in
  (* [matched.(node)]: how many of the node's deletes, a prefix in issue
     order, fetch an element; the rest answer ⊥.  [first.(node)] is its
     first slot, [rebound] the fetched elements by slot. *)
  let matched = Array.make n 0 and first = Array.make n 0 in
  let rebound = ref [||] in
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
      let taken_chk, del_chk, memo, up2 = count_pairs_up h taken pending_deletes in
      add up2;
      assert (taken_chk = k_eff && del_chk = k);
      (* One positions pass decomposes [1, k_eff] over the taken elements
         and over the deleters.  The deleter column is cut at k_eff, so its
         shortage (k - k_eff) turns into ⊥ answers at the traversal-last
         deleters. *)
      let starts, down_r =
        Phase.positions h.net ~memo ~first:[| 1; 1 |]
          ~size:(fun c j -> if j = 0 then Phase.first_count c else Phase.second_count c)
          ~bits:(fun _ start size -> Phase.cut_bits ~limit:k_eff start size)
          ~fixed_bits:0
      in
      add down_r;
      (* Phase 4-style DHT traffic: re-store the k smallest under h(pos),
         fetch per assigned deleter position.  The positions up to k_eff
         are a prefix of each node's deletes. *)
      let slots = ref 0 in
      for node = 0 to n - 1 do
        let del_start = starts.((2 * Ldb.vnode ~owner:node Ldb.Middle) + 1) in
        first.(node) <- !slots;
        if del_start > 0 then
          matched.(node) <- max 0 (min (List.length pending_deletes.(node)) (k_eff - del_start + 1));
        slots := !slots + matched.(node)
      done;
      let d =
        {
          d_node = Array.make !slots 0;
          d_seq = Array.make !slots 0;
          d_elt = Array.make !slots e_k;
          d_rebound = Array.make !slots e_k;
        }
      in
      let rq = requests !slots in
      let ops = ref [] in
      for node = n - 1 downto 0 do
        let mv = Ldb.vnode ~owner:node Ldb.Middle in
        let elt_start = starts.(2 * mv) and del_start = starts.((2 * mv) + 1) in
        if elt_start < 0 && taken.(node) <> [] then
          failwith "Seap: stored elements got no positions";
        ops :=
          taken_puts t node elt_start
            (delete_gets t rq d node del_start first.(node) matched.(node) !ops
               pending_deletes.(node))
            taken.(node)
      done;
      let dht_cs, dht_r = Host.run_dht h ~dht_mode !ops in
      add dht_r;
      List.iter
        (fun c ->
          match c with
          | Dht.Got { origin; key; elt } ->
              let slot = answer rq key in
              if slot < 0 || d.d_node.(slot) <> origin then
                failwith "Seap: DHT returned an element nobody asked for";
              d.d_elt.(slot) <- elt
          | Dht.Put_confirmed _ -> ())
        dht_cs;
      if unanswered rq > 0 then failwith "Seap: some DeleteMin requests never met their element";
      t.m <- t.m - k_eff;
      (* Once all of a node's fetches are in, it rebinds them locally:
         smallest fetched element to its first-issued delete, and so on.
         That keeps each node's delete answers in issue order (needed for
         the Sequential mode; harmless otherwise, since the phase's deletes
         are concurrent).  Witness: matched deletes in element-rank order
         (any permutation of the concurrent phase is a valid
         serialization; rank order makes the serial replay pop exact
         minima), so one pass over the slots in element order rebinds and
         serializes.  Elements are unique: any sort gives the same order. *)
      let by_elt = Array.init !slots Fun.id in
      Array.sort (fun a b -> Element.compare d.d_elt.(a) d.d_elt.(b)) by_elt;
      let next = Array.copy first in
      Array.iter
        (fun s ->
          let node = d.d_node.(s) in
          let slot = next.(node) in
          next.(node) <- slot + 1;
          d.d_rebound.(slot) <- d.d_elt.(s);
          Clients.serialize h.clients ~node ~local_seq:d.d_seq.(slot) Oplog.Delete_min
            (Some d.d_elt.(s)))
        by_elt;
      rebound := d.d_rebound
    end
  end;
  (* ⊥ answers for everything that found an empty heap (k_eff = 0, or the
     excess over it) serialize after the matched deletes of the phase, in
     per-node issue order (they are mutually concurrent). *)
  for node = 0 to n - 1 do
    serialize_empty h.clients node matched.(node) pending_deletes.(node)
  done;
  let completions = ref [] in
  for node = n - 1 downto 0 do
    completions :=
      delete_answers !rebound node first.(node) matched.(node) !completions pending_deletes.(node)
  done;
  (!completions, !report, !kselect_diag)

(* After a kill, resynchronize the anchor's element count m with what
   actually survived (identical when k > kills so far; smaller only when
   replication could not cover the loss). *)
let resync_m t () = t.m <- Dht.size t.host.dht

let process_round ?(dht_mode = Dht_sync) t =
  if Host.commit_kills t.host then resync_m t ();
  let ins_cs, ins_r, pending_inserts = insert_phase t ~dht_mode in
  let del_cs, del_r, kdiag = delete_phase t ~dht_mode ~pending_inserts in
  (* Gossip exchange at the round boundary (Sequential mode's retained
     deletes count once, when issued). *)
  let gossip_r = Host.exchange_gossip t.host in
  {
    completions = Clients.merge_completions ins_cs del_cs;
    report = Phase.add_report (Phase.add_report ins_r del_r) gossip_r;
    kselect = kdiag;
  }

let drain ?(dht_mode = Dht_sync) t = Clients.drain t.host.clients (fun () -> process_round ~dht_mode t)

let stored_per_node t = Dht.stored_counts t.host.dht

(* ------------------------------------------------- membership changes *)

type churn_cost = Dpq_types.Types.churn_cost = { join_messages : int; moved_elements : int }

let add_node t = Host.add_node t.host ~step:ignore
let remove_last_node t = Host.remove_last_node t.host ~step:ignore
