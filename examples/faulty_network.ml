(* Faulty network: the same heap, but every message can be dropped,
   duplicated, or lost to a crashed receiver (PR "robustness" tentpole).

   Run with:  dune exec examples/faulty_network.exe

   A seeded [Fault_plan] drops 10% of all transmissions, duplicates
   another 5%, and takes node 2 down for a stall-and-recover window in
   the middle of the run.  The protocols never see any of it: the
   reliable-delivery sublayer (per-channel sequence numbers, acks,
   timeout retransmission with exponential backoff) re-issues lost
   packets until they land, suppresses the duplicates, and releases
   arrivals in per-channel FIFO order.  The operation log still verifies
   end to end — same guarantee as on the perfect network, bought with
   retransmissions instead of luck. *)

module H = Dpq.Dpq_heap
module Fp = Dpq_simrt.Fault_plan
module Rng = Dpq_util.Rng

let () =
  let faults =
    Fp.create ~drop:0.10 ~duplicate:0.05
      ~crashes:[ { Fp.node = 2; from_tick = 120; until_tick = 260 } ]
      ~seed:42 ()
  in
  let h = H.create ~seed:2026 ~faults ~n:8 H.Seap in
  let rng = Rng.create ~seed:7 in
  print_endline "== a Seap on a faulty network: 10% drop, 5% dup, node 2 crashes mid-run ==";
  for round = 1 to 6 do
    for _ = 1 to 24 do
      let node = Rng.int rng (H.n h) in
      if Rng.bool rng then ignore (H.insert h ~node ~prio:(1 + Rng.int rng 1_000_000))
      else H.delete_min h ~node
    done;
    ignore (H.process h);
    let s = Fp.stats faults in
    Printf.printf "round %d: heap=%d | dropped=%d duplicated=%d crash-lost=%d retransmits=%d\n"
      round (H.heap_size h) s.Fp.drops s.Fp.duplicates s.Fp.crash_drops s.Fp.retransmits
  done;
  ignore (H.drain h);
  let s = Fp.stats faults in
  Printf.printf "\nfault tally: %d transmissions dropped, %d duplicated, %d lost to the crash\n"
    s.Fp.drops s.Fp.duplicates s.Fp.crash_drops;
  Printf.printf "recovered by: %d retransmissions, %d acks, %d duplicate deliveries suppressed\n"
    s.Fp.retransmits s.Fp.acks_sent s.Fp.dups_suppressed;
  match H.verify h with
  | Ok () -> print_endline "entire faulty history verified: serializable + heap consistent ✓"
  | Error e ->
      Printf.printf "semantics check FAILED: %s\n" e;
      exit 1
