module Trace = Dpq_obs.Trace
module Oplog = Dpq_semantics.Oplog
module Element = Dpq_util.Element

(* FNV-1a over the run's observable behaviour.  Not cryptographic — it only
   needs to separate "same schedule" from "different schedule" reliably. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let mix h i = Int64.mul (Int64.logxor h (Int64.of_int i)) fnv_prime
let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s

let mix_elt h (e : Element.t) =
  mix (mix (mix h e.Element.prio) e.Element.origin) e.Element.seq

let mix_records h rs =
  List.fold_left
    (fun h (r : Oplog.record) ->
      let h = mix (mix (mix (mix h 1) r.Oplog.node) r.Oplog.local_seq) r.Oplog.witness in
      let h =
        match r.Oplog.kind with
        | Oplog.Insert e -> mix_elt (mix h 2) e
        | Oplog.Delete_min -> mix h 3
      in
      match r.Oplog.result with None -> mix h 4 | Some e -> mix_elt (mix h 5) e)
    h rs

let mix_oplog h log = mix_records h (Oplog.to_list log)

(* The schedule-identity slice of the trace: delivery order, scheduler
   perturbations, fault injections and retransmissions.  Phase spans and
   cost summaries are derived data and deliberately excluded — two runs
   with the same deliveries digest equal even if cost accounting evolves. *)
let mix_trace h t =
  List.fold_left
    (fun h ev ->
      match ev with
      | Trace.Msg_delivered { span; round; src; dst; bits } ->
          mix (mix (mix (mix (mix (mix h 10) span) round) src) dst) bits
      | Trace.Sched_perturbed { span; kind; src; dst } ->
          mix (mix (mix_string (mix (mix h 11) span) kind) src) dst
      | Trace.Fault_injected { span; kind; src; dst } ->
          mix (mix (mix_string (mix (mix h 12) span) kind) src) dst
      | Trace.Retransmit { span; src; dst; attempt } ->
          mix (mix (mix (mix (mix h 13) span) src) dst) attempt
      | _ -> h)
    h (Trace.events t)

let to_hex = Printf.sprintf "%016Lx"

let of_run ~oplog ~trace = to_hex (mix_trace (mix_oplog fnv_offset oplog) trace)

(* Streaming form: records are folded in as they are drained, the trace (if
   any) is mixed once at the end — the same left fold [of_run] performs, so
   a streamed run and a materialized run of the same execution digest
   equal. *)
type acc = { mutable h : int64 }

let start () = { h = fnv_offset }
let feed_records acc rs = acc.h <- mix_records acc.h rs

let finish ?trace acc =
  match trace with None -> to_hex acc.h | Some t -> to_hex (mix_trace acc.h t)
