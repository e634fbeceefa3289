(** KSelect: distributed k-selection over the aggregation tree, with
    O(log n)-bit messages in O(log n) rounds w.h.p. (paper §4, Theorem 4.2).

    Given m = poly(n) elements distributed over the n nodes of an
    aggregation tree, KSelect finds the element of rank [k].  Two
    implementations return the same element for every input:

    - {b [`Counting]} (the default, Seap's selection) counts ranks on the
      tree.  Each iteration is one broadcast and one up pass.  The
      broadcast names the bucket the anchor kept last time (every node
      drops its candidates outside it) and the new pivots; the up pass
      carries the count of the subtree's candidates in each bucket.  The
      anchor keeps the bucket that holds rank [k], and the priorities it
      can hold.  Iteration 0 has one bucket and also carries the smallest
      and largest candidate, unless the caller passes a priority bound:
      then iteration 0 already cuts the bound into ranges (or collects,
      when the candidates fit one message).  While the kept bucket is larger than one
      message and spans at least 16 priorities, the next pivots cut that
      span into 16 equal parts, and the broadcast carries only its two
      ends.  Once the bucket fits one message, a pass without pivots
      collects it.  On a narrower span (ties), pivots come from a sample:
      each bucket's count travels with the s candidates of smallest seeded
      tag h(seed, iteration, element), a bottom-s sample that merges
      exactly up the tree, and the sorted sample of the kept bucket is the
      next pivots, so the bucket shrinks by about (s+2)/2 per iteration.
      A message holds at most 16 counts, or b+1 counts and (b+1)·s
      elements (b = s = {!fanout}), fewer where a subtree has fewer
      candidates in range, and a node's load per pass is bounded by its
      tree fan-in.  Its trace is one [kselect_round] with stage
      ["phase2"] per iteration and one ["phase3"] at the end.

    - {b [`Pairwise]} is the paper's protocol, kept as the reference the
      differential tests compare against:
      + {b Phase 1 — sampling} (§4.1): [log q + 1] iterations (m = n^q).
        Each node reports the priorities of its ⌊k/n⌋-th and ⌈k/n⌉-th
        smallest local candidates; the tree aggregates their min/max
        [P_min]/[P_max]; candidates outside [\[P_min, P_max\]] are
        discarded and [k], [N] updated.  An iteration whose bounds cannot
        prune anything ends Phase 1.
      + {b Phase 2 — representatives} (§4.2–4.4): each surviving candidate
        is sampled with probability √n/N into a representative set C' of
        size n' = Θ(√n); C' is {e distributively sorted} (Algorithm 3):
        every representative is routed to the node owning its position,
        replicated to n' nodes along a binary copy tree T(v_i) over the
        emulated de Bruijn graph, copies c_{i,j} and c_{j,i} rendezvous at
        the node managing h(i,j), and comparison votes flow back up the
        copy tree, giving each representative its order in C'.  The anchor
        picks c_l, c_r at orders k·n'/N ∓ δ, δ = Θ(√(log n)·n^{1/4}),
        computes their exact ranks with one more aggregation, and discards
        candidates outside (c_l, c_r]; the decision rides on the next
        broadcast.  Repeats until N ≤ √n (Lemma 4.7).
      + {b Phase 3 — exact} (§4.5): one sorting stage over {e all}
        remaining candidates; the element ordered k-th is the answer.

      Deviations from the paper text, for unconditional correctness at any
      n: a node with fewer than ⌈k/n⌉ local candidates reports sentinel
      (±∞) priorities in Phase 1, and Phase 2's pruning only applies when
      the exact ranks confirm rank(c_l) < k ≤ rank(c_r). *)

module Element = Dpq_util.Element
module Phase = Dpq_aggtree.Phase

type diagnostics = {
  initial_candidates : int;
  phase1_iterations : int;
      (** Phase-1 iterations actually run, up to and including the first
          void one (0 for [`Counting]) *)
  phase1_skipped : bool;  (** no Phase 1 ran: [true] for [`Counting] *)
  phase1_candidates : int list;  (** N after each Phase-1 iteration *)
  phase2_candidates : int list;
      (** N after each Phase-2 iteration; for [`Counting], the count of the
          bucket kept by each iteration *)
  phase2_rep_counts : int list;  (** n' drawn in each Phase-2 iteration ([[]] for [`Counting]) *)
  mean_trees_per_node : float;
      (** average number of copy trees T(v_i) a node participated in across
          sorting stages — Lemma 4.5 says Θ(1); 0 for [`Counting] *)
  phase3_candidates : int;
      (** candidates sorted exactly at the end; for [`Counting], the final
          bucket's count (at most (b+1)·s) *)
}

type impl = [ `Counting | `Pairwise ]
(** Which implementation to run (see above). *)

type result = {
  element : Element.t;
  report : Phase.report;
  diagnostics : diagnostics;
  le_counts : int array;
      (** [le_counts.(v)]: how many of node [v]'s candidates are at most
          [element].  [`Counting] reads them off its passes (the
          candidates each node dropped below a kept bucket, plus those of
          the last bucket up to [element]), so that a caller can split
          positions among the [k] smallest without counting them again;
          [`Pairwise] counts them directly. *)
}

val select :
  ?seed:int ->
  ?rep_factor:float ->
  ?impl:impl ->
  ?bound:int * int ->
  net:Phase.net ->
  elements:Element.t list array ->
  k:int ->
  unit ->
  result
(** [select ~net ~elements ~k ()] runs the protocol over [net]'s tree (its
    tree passes on [net]; [`Pairwise]'s sorting stages on engines of their
    own with [net]'s trace, fault plan and scheduler); [elements.(v)] is node
    [v]'s initial candidate set.  Raises [Invalid_argument] if [k] is not
    within [1 .. total number of elements] or the array length differs from
    the tree's node count.

    [rep_factor] (default 4) scales [`Pairwise]'s representative count n' =
    rep_factor·√n of Phase 2a.  A larger n' prunes faster per iteration
    but costs more rendezvous traffic — the trade-off quantified by
    experiment A1.  Correctness is unaffected either way (the exact-rank
    guards hold unconditionally).  Phase 2's δ (Lemma 4.6) is fixed at
    √(log n)·n^{1/4}, i.e. the lemma's constant taken as 1.

    [impl] (default [`Counting]) picks the implementation; [rep_factor]
    only matters to [`Pairwise].  Both return the exact same element.

    [bound] [(lo, hi)]: priorities the caller expects every candidate's
    priority to lie in, such as Seap's anchor keeps from the inserts it
    counted.  [`Counting]'s first iteration then starts from it instead of
    learning the smallest and largest candidate.  The bound is not
    checked: a candidate outside it still counts, so a wrong bound costs
    iterations, never the answer.  [`Pairwise] ignores it. *)

val select_seq : Element.t list -> k:int -> Element.t
(** Sequential oracle: sort and index.  Raises [Invalid_argument] on a bad
    [k]. *)

val fanout : int
(** b = s of [`Counting]'s sampled passes: the pivots per iteration and the
    entries per bucket sample. *)

val sample_max : int
(** (b+1)·s: the sample one [`Counting] message carries at most, and the
    largest bucket a pass collects whole. *)

val bottom_s_merge : (int * Element.t) list -> (int * Element.t) list -> (int * Element.t) list
(** [bottom_s_merge a b]: the {!fanout} smallest of [a]'s and [b]'s
    (tag, element) entries together, ascending by tag, equal tags by
    element — computed as [`Counting]'s up pass does it: each list's own
    bottom sample first, then one merge of the two. *)
