type t = { title : string; rows : (string * Tcjson.t) list list }

let make title rows =
  (match rows with
  | [] -> ()
  | first :: _ ->
    let columns = List.map fst first in
    List.iter
      (fun row ->
        if List.map fst row <> columns then
          invalid_arg (Printf.sprintf "Table.make %S: rows disagree on columns" title);
        List.iter
          (function
            | _, (Tcjson.List _ | Tcjson.Obj _) ->
              invalid_arg (Printf.sprintf "Table.make %S: cells must be scalars" title)
            | _ -> ())
          row)
      rows);
  { title; rows }

let cell_text = function
  | Tcjson.Null -> "null"
  | Tcjson.Bool b -> string_of_bool b
  | Tcjson.Int i -> string_of_int i
  | Tcjson.Float x -> if Float.is_finite x then Printf.sprintf "%.6g" x else "null"
  | Tcjson.String s -> s
  | Tcjson.List _ | Tcjson.Obj _ -> assert false (* rejected by [make] *)

let to_markdown t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "## %s\n\n" t.title;
  (match t.rows with
  | [] -> Buffer.add_string b "(no rows)\n"
  | first :: _ ->
    let header = List.map fst first in
    let body = List.map (List.map (fun (_, v) -> cell_text v)) t.rows in
    let widths =
      List.fold_left
        (List.map2 (fun w cell -> max w (String.length cell)))
        (List.map (fun h -> max 3 (String.length h)) header)
        body
    in
    let line cells =
      Buffer.add_char b '|';
      List.iter2 (fun w cell -> Printf.bprintf b " %-*s |" w cell) widths cells;
      Buffer.add_char b '\n'
    in
    line header;
    line (List.map (fun w -> String.make w '-') widths);
    List.iter line body);
  Buffer.add_char b '\n';
  Buffer.contents b

let to_json t = Tcjson.List (List.map (fun row -> Tcjson.Obj row) t.rows)

let keyed_to_json tables = Tcjson.Obj (List.map (fun (key, t) -> (key, to_json t)) tables)
