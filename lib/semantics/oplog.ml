module Element = Dpq_util.Element

type kind = Insert of Element.t | Delete_min

type record = {
  node : int;
  local_seq : int;
  witness : int;
  kind : kind;
  result : Element.t option;
}

type t = record list (* kept sorted by witness *)

let of_list rs = List.sort (fun a b -> Int.compare a.witness b.witness) rs
let to_list t = t
let length = List.length

let elt_key (e : Element.t) = (e.Element.prio, e.Element.origin, e.Element.seq)

let matching t =
  let by_elt = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.kind with
      | Insert e -> Hashtbl.replace by_elt (elt_key e) r
      | Delete_min -> ())
    t;
  List.filter_map
    (fun r ->
      match (r.kind, r.result) with
      | Delete_min, Some e -> (
          match Hashtbl.find_opt by_elt (elt_key e) with
          | Some ins -> Some (ins, r)
          | None ->
              invalid_arg
                (Printf.sprintf "Oplog.matching: delete returned element %s never inserted"
                   (Element.to_string e)))
      | _ -> None)
    t
