(* Tokencmp.Table: the markdown and JSON renderings of one table carry
   the same columns, in the same order, with the same values, and the
   JSON round-trips through the parser. *)

module T = Tokencmp.Table
module J = Tcjson

let rows =
  [
    [ ("name", J.String "a"); ("n", J.Int 3); ("x", J.Float 0.125); ("ok", J.Bool true);
      ("note", J.Null) ];
    [ ("name", J.String "b c"); ("n", J.Int (-7)); ("x", J.Float 12345.678);
      ("ok", J.Bool false); ("note", J.String "x") ];
    [ ("name", J.String "nan"); ("n", J.Int 0); ("x", J.Float Float.nan); ("ok", J.Bool true);
      ("note", J.Null) ];
    [ ("name", J.String "inf"); ("n", J.Int max_int); ("x", J.Float Float.neg_infinity);
      ("ok", J.Bool false); ("note", J.Null) ];
  ]

(* Header cells and one cell list per body row of a markdown table. *)
let parse_markdown md =
  let cells line =
    match List.rev (String.split_on_char '|' line) with
    | "" :: rest -> List.tl (List.rev_map String.trim rest)
    | _ -> Alcotest.failf "not a table row: %S" line
  in
  let lines =
    List.filter (fun l -> String.length l > 0 && l.[0] = '|') (String.split_on_char '\n' md)
  in
  match List.map cells lines with
  | header :: _rule :: body -> (header, body)
  | _ -> Alcotest.fail "no table in markdown"

let test_text_matches_json () =
  let t = T.make "demo" rows in
  let md = T.to_markdown t in
  Alcotest.(check bool) "titled" true (String.starts_with ~prefix:"## demo\n" md);
  let header, body = parse_markdown md in
  let objects =
    match T.to_json t with
    | J.List objects -> objects
    | _ -> Alcotest.fail "table JSON is not a list"
  in
  Alcotest.(check int) "one object per row" (List.length rows) (List.length objects);
  Alcotest.(check int) "one text line per row" (List.length rows) (List.length body);
  List.iter2
    (fun obj cells ->
      let fields = match obj with J.Obj f -> f | _ -> Alcotest.fail "row is not an object" in
      Alcotest.(check (list string)) "same columns, same order" (List.map fst fields) header;
      List.iter2
        (fun (col, v) cell ->
          match v with
          | J.Int i -> Alcotest.(check int) col i (int_of_string cell)
          | J.Float x when Float.is_finite x ->
            Alcotest.(check (float (1e-5 *. Float.abs x))) col x (float_of_string cell)
          | J.Float _ | J.Null -> Alcotest.(check string) col "null" cell
          | J.String s -> Alcotest.(check string) col s cell
          | J.Bool b -> Alcotest.(check bool) col b (bool_of_string cell)
          | J.List _ | J.Obj _ -> Alcotest.fail "non-scalar cell")
        fields cells)
    objects body

(* Non-finite floats serialize as null, so the parsed JSON equals the
   table JSON with those cells nulled. *)
let test_json_round_trips () =
  let json = T.to_json (T.make "demo" rows) in
  let rec nulled = function
    | J.Float x when not (Float.is_finite x) -> J.Null
    | J.List l -> J.List (List.map nulled l)
    | J.Obj f -> J.Obj (List.map (fun (k, v) -> (k, nulled v)) f)
    | v -> v
  in
  match J.parse (J.to_string json) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (J.equal parsed (nulled json))
  | Error e -> Alcotest.failf "re-parse: %s" e

let test_rejects_ragged_rows () =
  Alcotest.check_raises "column mismatch"
    (Invalid_argument "Table.make \"t\": rows disagree on columns") (fun () ->
      ignore (T.make "t" [ [ ("a", J.Int 1) ]; [ ("b", J.Int 2) ] ]));
  Alcotest.check_raises "nested cell"
    (Invalid_argument "Table.make \"t\": cells must be scalars") (fun () ->
      ignore (T.make "t" [ [ ("a", J.List []) ] ]))

let tests =
  [
    Alcotest.test_case "markdown and JSON carry the same cells" `Quick test_text_matches_json;
    Alcotest.test_case "JSON round-trips through the parser" `Quick test_json_round_trips;
    Alcotest.test_case "ragged or nested rows are rejected" `Quick test_rejects_ragged_rows;
  ]
