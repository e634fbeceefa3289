(* A faithful walkthrough of Figure 1 from the paper: three nodes, priority
   universe P = {1,2}, and the exact batches from the figure, traced through
   Skeap's four phases.

   Run with:  dune exec examples/figure1_walkthrough.exe *)

module B = Dpq_skeap.Batch
module A = Dpq_skeap.Anchor
module I = Dpq_util.Interval

let show_assignment label asg =
  Printf.printf "%s:\n" label;
  List.iteri
    (fun j (ea : A.entry_assign) ->
      let ins =
        String.concat ", "
          (Array.to_list (Array.mapi (fun i iv -> Printf.sprintf "p%d:%s" (i + 1) (I.to_string iv)) ea.A.ins))
      in
      let dels =
        String.concat ", "
          (List.map (fun (p, iv) -> Printf.sprintf "p%d:%s" p (I.to_string iv)) ea.A.dels)
      in
      Printf.printf "  entry %d: inserts (%s) deletes (%s)%s\n" (j + 1) ins dels
        (if ea.A.bot > 0 then Printf.sprintf " plus %d x ⊥" ea.A.bot else ""))
    asg

let () =
  print_endline "== Figure 1 of Feldmann & Scheideler (SPAA 2019), step by step ==\n";
  (* (a) The three nodes' local operation sequences, as batches. *)
  let v_a = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1 ] in
  let v_b = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1; B.Ins 1; B.Ins 2; B.Del ] in
  let v_c = B.of_ops ~num_prios:2 ~prio:B.op_prio [ B.Ins 1; B.Del; B.Del ] in
  Printf.printf "(a) local batches before Phase 1:\n";
  Printf.printf "      v_a = %s\n" (B.to_string v_a);
  Printf.printf "      v_b = %s\n" (B.to_string v_b);
  Printf.printf "      v_c = %s\n\n" (B.to_string v_c);

  (* (b) Phase 1: combine up the aggregation tree. *)
  let combined = B.combine v_a (B.combine v_b v_c) in
  Printf.printf "(b) after Phase 1 the anchor holds the combined batch %s\n"
    (B.to_string combined);
  Printf.printf "    (the paper's ((4,1),3): 4 inserts of priority 1, 1 of priority 2, 3 deletes)\n\n";

  (* (c) Phase 2: the anchor assigns position intervals. *)
  let anchor = A.create ~num_prios:2 in
  Printf.printf "    anchor state before: first_1=%d last_1=%d first_2=%d last_2=%d\n"
    (A.first anchor ~prio:1) (A.last anchor ~prio:1) (A.first anchor ~prio:2)
    (A.last anchor ~prio:2);
  let asg = A.assign anchor combined in
  show_assignment "(c) after Phase 2 (paper: I=( [1,4],[1,1] ), D=( [1,3],∅ ))" asg;
  Printf.printf "    anchor state after: first_1=%d last_1=%d first_2=%d last_2=%d\n\n"
    (A.first anchor ~prio:1) (A.last anchor ~prio:1) (A.first anchor ~prio:2)
    (A.last anchor ~prio:2);

  (* (d) Phase 3: one positions pass.  Every nonzero count of the combined
     batch is a column; a part's piece of a column starts where the
     previous part's ends (v_a, then v_b, then v_c, as the tree orders
     them).  Insert columns hand out positions, the delete column offsets
     into the draws D. *)
  let cols = A.columns asg combined in
  let next = Array.copy (A.firsts cols) in
  List.iter
    (fun (name, part) ->
      let ins =
        List.filter_map
          (fun prio ->
            let j = A.column cols ~entry:0 ~prio in
            let count = if j < 0 then 0 else A.size cols part j in
            if count = 0 then None
            else
              let iv = I.of_first_card ~first:next.(j) ~card:count in
              Some (Printf.sprintf "p%d:%s" prio (I.to_string iv)))
          [ 1; 2 ]
      in
      let j = A.column cols ~entry:0 ~prio:0 in
      let dels =
        List.init (A.size cols part j) (fun k ->
            let off = next.(j) + k in
            let d = A.draw cols ~entry:0 off in
            if d < 0 then "⊥"
            else Printf.sprintf "p%d:%d" (A.draw_prio cols d) (A.draw_pos cols d off))
      in
      Printf.printf "(d) decomposition for %s: inserts (%s) deletes (%s)\n" name
        (String.concat ", " ins) (String.concat ", " dels);
      Array.iteri (fun j s -> next.(j) <- s + A.size cols part j) next)
    [ ("v_a", v_a); ("v_b", v_b); ("v_c", v_c) ];

  print_endline "\nEvery operation now owns a unique (priority, position) pair;";
  print_endline "Phase 4 turns them into DHT Put(h(p,pos), e) / Get(h(p,pos)) requests";
  print_endline "that rendezvous at the same virtual node regardless of message delays."
