type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let fmt_float ?(dec = 2) v = Printf.sprintf "%.*f" dec v

let pad align width s =
  let len = String.length s in
  if len >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - len) ' '
    | Right -> String.make (width - len) ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      headers
  in
  let aligns = List.map snd t.columns in
  let render_cells cells =
    let parts =
      List.mapi
        (fun i c -> pad (List.nth aligns i) (List.nth widths i) c)
        cells
    in
    "| " ^ String.concat " | " parts ^ " |"
  in
  let sep =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("## " ^ t.title ^ "\n");
  Buffer.add_string buf (render_cells headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_cells r ^ "\n")) rows;
  Buffer.contents buf

let print t = print_string (render t)
