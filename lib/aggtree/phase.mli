(** Message-level aggregation phases over the aggregation tree.

    An {e aggregation phase} (paper §2.2) moves values from the leaves to the
    anchor, combining along the way; a {e decomposition phase} (Skeap Phase 3,
    §3.2.3, Seap's positions and KSelect's representatives) hands out
    consecutive positions from the anchor down, splitting them at every node
    by the counts memorized on the way up.

    Every phase runs on a {!net}: the tree plus one synchronous engine
    ({!Dpq_simrt.Sync_engine}) that is reset between phases, so each phase
    costs exactly what it would on a fresh engine.  A tree message is the id
    of one virtual node; its payload lives in the phase's per-vnode arrays,
    so a message allocates nothing.  The returned {!report} carries the
    paper's three cost measures.  Protocol drivers sequence phases and sum
    the reports — the anchor-initiated "start next phase" broadcast is
    charged explicitly by the drivers via {!broadcast}. *)

type report = {
  rounds : int;
  messages : int;
  max_congestion : int;
  max_message_bits : int;
  total_bits : int;
  local_deliveries : int;
  busiest_node_load : int;
      (** total messages handled by the single busiest node.  When reports
          are summed across phases the per-phase maxima add up, making this
          an upper bound on any one node's total work — the quantity a
          unit-bandwidth node serializes on. *)
}

val empty_report : report

val add_report : report -> report -> report
(** Sequential composition: rounds/messages/bits add, congestion and
    max-message-size take the max. *)

val report_of_metrics : Dpq_simrt.Metrics.t -> int -> report
(** [report_of_metrics m rounds]: the report of one engine run that took
    [rounds] rounds and recorded [m]. *)

val trace_phase_end : Dpq_obs.Trace.t option -> Dpq_obs.Trace.span -> string -> report -> unit
(** [trace_phase_end trace span name r] closes [span] with exactly [r]'s
    numbers — the equality the trace-vs-report cross-check relies on. *)

type net
(** One tree's message layer: the tree, its trace, fault plan and
    scheduler, and the engine every phase on the tree runs on.  Build a new
    one whenever the tree is rebuilt.  Phases on one net run one at a time:
    starting a phase while another runs on the same net (or after one
    raised) raises [Invalid_argument]. *)

val net :
  ?trace:Dpq_obs.Trace.t ->
  ?faults:Dpq_simrt.Fault_plan.t ->
  ?sched:Dpq_simrt.Sched.t ->
  Aggtree.t ->
  net
(** With [trace], every phase opens a span (["up"], ["down"] for
    {!positions}, or ["broadcast"]), traces every delivery, and closes the
    span with exactly the returned report's numbers.  With [faults], phases
    run over the faulty network with reliable delivery; with [sched], under
    that adversarial scheduler. *)

val tree : net -> Aggtree.t
val trace : net -> Dpq_obs.Trace.t option
val faults : net -> Dpq_simrt.Fault_plan.t option
val sched : net -> Dpq_simrt.Sched.t option

type 'a memo
(** What every virtual node memorizes during an up pass: its own
    contribution and its sub-aggregate (own combined with its children's
    sub-aggregates). *)

val up :
  net ->
  local:(Dpq_overlay.Ldb.vnode -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  size_bits:('a -> int) ->
  'a * 'a memo * report
(** Run one aggregation phase; returns the combined value at the anchor.
    A vnode sends its parent once all its children have, and the message
    is charged [size_bits] of the vnode's sub-aggregate. *)

val derive :
  net -> local:(Dpq_overlay.Ldb.vnode -> 'a) -> combine:('a -> 'a -> 'a) -> 'a * 'a memo
(** [derive net ~local ~combine]: the root value and memo that {!up} with
    these arguments would return, computed without a message.  For values
    every vnode already holds from earlier passes (a subtree's count that
    its children's messages carried), so a positions pass can split by them
    without a convergecast of its own. *)

val memo_own : 'a memo -> Dpq_overlay.Ldb.vnode -> 'a
val memo_sub : 'a memo -> Dpq_overlay.Ldb.vnode -> 'a
(** Test seam: a vnode's own value and its sub-aggregate.  A vnode outside
    the tree has no sub-aggregate; its [memo_sub] is arbitrary. *)

(** {2 Two counts in one immediate}

    An up pass that sums two counts per vnode can carry both in one int:
    [combine] is then [( + )] and no value of the pass is boxed.  Each
    count takes 31 bits, so sums stay exact while both columns' totals stay
    below [2{^31}] — counts of operations and elements held in memory, far
    below it. *)

val pack_counts : int -> int -> int
(** [pack_counts a b] holds [a] and [b].  Raises [Invalid_argument] unless
    both are in [\[0, 2{^31})]. *)

val first_count : int -> int
val second_count : int -> int
(** [first_count (pack_counts a b) = a] and [second_count (pack_counts a b)
    = b]; likewise for sums of packed counts. *)

val positions :
  net ->
  memo:'a memo ->
  first:int array ->
  size:('a -> int -> int) ->
  bits:(int -> int -> int -> int) ->
  fixed_bits:int ->
  int array * report
(** The decomposition phase: hand out consecutive positions by count, in
    [w = Array.length first] columns.  Column [j] starts at [first.(j)] at
    the anchor and is split by the counts [size x j] of the memo, each
    vnode's own piece first, then its children's in label order.  The
    result maps vnode [v] to the first position of its own piece in column
    [j], [starts.(v * w + j)] (the piece is [\[s, s + size - 1\]]), and to
    -1 where the phase never reached [v].  A message to a child [c] is
    charged [fixed_bits] plus, per column, [bits j s size] of [c]'s piece
    of its subtree.  Raises [Invalid_argument] if [memo] comes from another
    tree's up pass. *)

val cut_bits : limit:int -> int -> int -> int
(** [cut_bits ~limit start size]: the cost of the piece [\[start,
    start + size - 1\]] cut at [limit] (the last demands go short when the
    counts exceed it), charged as an interval payload: 2 bits when empty,
    else {!Dpq_util.Bitsize.interval_bits}. *)

val broadcast : net -> bits:int -> report
(** Flood a [bits]-bit value from the anchor to every virtual node: the
    phase-change announcement of the protocol drivers. *)
