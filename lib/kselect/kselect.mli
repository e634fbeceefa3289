(** KSelect: distributed k-selection in O(log n) rounds w.h.p. with
    O(log n)-bit messages (paper §4, Theorem 4.2).

    Given m = poly(n) elements distributed over the n nodes of an
    aggregation tree, KSelect finds the element of rank [k] in three phases:

    + {b Phase 1 — sampling} (§4.1): [log q + 1] iterations (m = n^q).  Each
      node reports the priorities of its ⌊k/n⌋-th and ⌈k/n⌉-th smallest
      local candidates; the tree aggregates their min/max [P_min]/[P_max];
      candidates outside [\[P_min, P_max\]] are discarded and [k], [N]
      updated.  Cuts N from n^q to O(n^{3/2} log n) w.h.p. (Lemma 4.4).
    + {b Phase 2 — representatives} (§4.2–4.4): each surviving candidate is
      sampled with probability √n/N into a representative set C' of size
      n' = Θ(√n); C' is {e distributively sorted} (Algorithm 3): every
      representative is routed to the node owning its position, replicated
      to n' nodes along a binary copy tree T(v_i) over the emulated de Bruijn
      graph, copies c_{i,j} and c_{j,i} rendezvous at the node managing
      h(i,j) (a symmetric hash), comparison votes flow back and are added up
      the copy tree, giving each representative its order in C'.  The anchor
      then picks c_l, c_r at orders k·n'/N ∓ δ, δ = Θ(√(log n)·n^{1/4}),
      computes their exact ranks with one more aggregation, and discards
      candidates outside (c_l, c_r].  Repeats until N ≤ √n (Lemma 4.7).
    + {b Phase 3 — exact} (§4.5): one sorting round over {e all} remaining
      candidates; the element ordered k-th is the answer.

    Deviations from the paper text, for unconditional correctness at any n:
    a node with fewer than ⌈k/n⌉ local candidates reports sentinel (±∞)
    priorities in Phase 1, and Phase 2's pruning only applies when the
    exact ranks confirm rank(c_l) < k ≤ rank(c_r) — the paper's w.h.p.
    guarantees make these guards almost always moot, but they make the
    implementation correct with certainty (progress remains probabilistic;
    after repeated no-progress iterations the protocol falls through to the
    exact phase). *)

module Element = Dpq_util.Element
module Phase = Dpq_aggtree.Phase

type diagnostics = {
  initial_candidates : int;
  phase1_iterations : int;  (** full Phase-1 iterations actually run (0 when skipped) *)
  phase1_skipped : bool;
      (** Phase 1 was skipped entirely: the whole batch was small enough
          to go straight to the exact phase *)
  phase1_candidates : int list;  (** N after each Phase-1 iteration *)
  phase2_candidates : int list;  (** N after each Phase-2 iteration *)
  phase2_rep_counts : int list;  (** n' drawn in each Phase-2 iteration *)
  mean_trees_per_node : float;
      (** average number of copy trees T(v_i) a node participated in across
          sorting stages — Lemma 4.5 says Θ(1) *)
  phase3_candidates : int;  (** candidates sorted exactly at the end *)
}

type impl = [ `Aggregated | `Pairwise ]
(** Which sorting-stage wire format to run (see {!select}). *)

type result = {
  element : Element.t;
  report : Phase.report;
  diagnostics : diagnostics;
}

val select :
  ?seed:int ->
  ?rep_factor:float ->
  ?impl:impl ->
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  tree:Dpq_aggtree.Aggtree.t ->
  elements:Element.t list array ->
  k:int ->
  unit ->
  result
(** [select ~tree ~elements ~k ()] runs the full protocol; [elements.(v)] is
    node [v]'s initial candidate set.  Raises [Invalid_argument] if [k] is
    not within [1 .. total number of elements] or the array length differs
    from the tree's node count.

    [rep_factor] (default 4) scales the representative count n' =
    rep_factor·√n of Phase 2a.  A larger n' prunes faster per iteration
    but costs more rendezvous traffic — the trade-off quantified by
    experiment A1.  Correctness is unaffected either way (the exact-rank
    guards hold unconditionally).  Phase 2's δ (Lemma 4.6) is fixed at
    √(log n)·n^{1/4}, i.e. the lemma's constant taken as 1.

    [impl] selects the sorting-stage wire format.  [`Aggregated] (default)
    addresses every copy-tree / rendezvous / vote payload directly to its
    destination's manager (looked up once per stage) and sends ONE
    combined vector message per (src, dst) pair per round; it also skips
    Phases 1–2 outright for batches no larger than the Phase-2 stopping
    threshold.  [`Pairwise] is the pre-optimization protocol — every payload
    its own hop-by-hop wire word — kept executable as the reference the
    differential test layer compares against.  Both return the exact same
    element for the same seed. *)

val select_seq : Element.t list -> k:int -> Element.t
(** Sequential oracle: sort and index.  Raises [Invalid_argument] on a bad
    [k]. *)

val kth_statistics : Element.t list -> k:int -> Element.t * int * int
(** Oracle diagnostics: the k-th element plus how many elements are strictly
    below/above it. *)

val unsafe_misaggregate_votes : bool ref
(** Test-only: when set, an activation's aggregated send swaps the
    smaller/larger counts of the first vote in every multi-item combined
    message — a planted wrong-aggregation bug.  The differential test layer
    flips this to prove the oracle comparison actually catches aggregation
    mistakes.  Never set outside tests. *)
