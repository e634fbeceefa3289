(** Per-batch route memo for the DHT.

    A batch of routed DHT operations over a fixed overlay walks the same
    paths over and over: replies always route to the requester's fixed
    reply point, and replica traffic repeats per key.  Within one batch the
    overlay cannot change (kills and joins commit only at quiescent batch
    boundaries), so a route is a pure function of (source vnode, point),
    and this table memoizes {!Dpq_overlay.Ldb.route_array} for the
    lifetime of a batch.  The returned array is shared across hits, which
    is safe because forwarding only ever reads it.  The table sends no
    messages: the DHT still hops the full path and pays for every hop. *)

type t

val create : Dpq_overlay.Ldb.t -> t
(** Build an empty table over the given overlay snapshot.  The table must
    be dropped when the overlay changes (i.e. at the batch boundary). *)

val path : t -> src:Dpq_overlay.Ldb.vnode -> point:float -> Dpq_overlay.Ldb.vnode array
(** Memoized [Ldb.route_array].  Hits return the same (read-only) array. *)
