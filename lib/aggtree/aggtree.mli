(** The aggregation tree induced by the LDB (paper Lemma 2.2, Appendix A).

    Parent rules (Appendix A): the parent of a middle virtual node [m(v)] is
    [l(v)] (virtual edge, free); the parent of a left virtual node is its
    cycle predecessor (linear edge); the parent of a right virtual node is
    [m(v)] (virtual edge).  Every parent has a strictly smaller label, so the
    structure is a tree rooted at the globally smallest virtual node — the
    {e anchor}.  Each node has at most two children and the height is
    [O(log n)] w.h.p. (Corollary A.4). *)

type t

val of_ldb : Dpq_overlay.Ldb.t -> t

val ldb : t -> Dpq_overlay.Ldb.t
val n : t -> int
(** Number of real nodes. *)

val root : t -> Dpq_overlay.Ldb.vnode
(** The anchor. *)

val parent : t -> Dpq_overlay.Ldb.vnode -> Dpq_overlay.Ldb.vnode option
(** [None] exactly for the root. *)

val children : t -> Dpq_overlay.Ldb.vnode -> Dpq_overlay.Ldb.vnode list
(** In deterministic order (ascending label); at most two (Lemma 2.2(i)). *)

val is_leaf : t -> Dpq_overlay.Ldb.vnode -> bool
val leaves : t -> Dpq_overlay.Ldb.vnode list

val depth : t -> Dpq_overlay.Ldb.vnode -> int
(** Root has depth 0; -1 for vnodes of removed nodes (not in the tree). *)

val in_tree : t -> Dpq_overlay.Ldb.vnode -> bool
(** Is [v] part of the tree?  False exactly for vnodes of nodes removed
    from the overlay ({!Dpq_overlay.Ldb.remove}). *)

val height : t -> int
(** Maximum depth. *)

val vnodes : t -> Dpq_overlay.Ldb.vnode array
(** All virtual nodes. *)

val bottom_up_order : t -> Dpq_overlay.Ldb.vnode list
(** Every node appears after all of its children — the order a pure
    (non-message-level) aggregation oracle can fold in. *)

val check_invariants : t -> (unit, string) result
(** Tree well-formedness: single root, parent/child mutual consistency,
    every vnode reachable from the root, ≤ 2 children each. *)
