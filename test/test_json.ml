module J = Tcjson

let test_escaping () =
  Alcotest.(check string) "quote and backslash" "\"a\\\"b\\\\c\"\n"
    (J.to_string (J.String "a\"b\\c"));
  Alcotest.(check string) "newline tab cr" "\"a\\nb\\tc\\rd\"\n"
    (J.to_string (J.String "a\nb\tc\rd"));
  Alcotest.(check string) "control chars as \\u" "\"\\u0000\\u0001\\u001f\"\n"
    (J.to_string (J.String "\x00\x01\x1f"))

let test_float_repr () =
  Alcotest.(check string) "integer-valued" "3.0" (J.float_repr 3.);
  Alcotest.(check string) "negative" "-2.5" (J.float_repr (-2.5));
  (* 1e15 is the boundary where %.1f would print 16 digits: beyond it
     the shortest round-tripping form takes over. *)
  Alcotest.(check string) "just below boundary" "999999999999999.0"
    (J.float_repr 999999999999999.);
  Alcotest.(check string) "at boundary" "1e+15" (J.float_repr 1e15);
  List.iter
    (fun x ->
      Alcotest.(check (float 0.)) (J.float_repr x) x (float_of_string (J.float_repr x)))
    [ 0.1; 1. /. 3.; 1e22; -1.7976931348623157e308; 5e-324; 149.03617571; 1e15 ];
  Alcotest.(check string) "nan is null" "null" (J.float_repr Float.nan);
  Alcotest.(check string) "inf is null" "null" (J.float_repr Float.infinity);
  Alcotest.(check string) "-inf is null" "null" (J.float_repr Float.neg_infinity)

let test_rendering () =
  let v =
    J.Obj
      [
        ("a", J.Int 1);
        ("b", J.List [ J.Bool true; J.Null ]);
        ("c", J.Obj []);
        ("d", J.List []);
      ]
  in
  Alcotest.(check string) "stable two-space rendering"
    "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \"c\": {},\n  \"d\": []\n}\n"
    (J.to_string v)

let test_parse_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "he said \"hi\"\n\ttab");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("big", J.Float 1e15);
        ("nested", J.List [ J.Obj [ ("x", J.Null) ]; J.List []; J.Bool false ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (J.equal v v')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_basics () =
  let ok s v =
    match J.parse s with
    | Ok v' -> Alcotest.(check bool) (Printf.sprintf "parse %S" s) true (J.equal v v')
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  ok "null" J.Null;
  ok " [1, 2.5, -3] " (J.List [ J.Int 1; J.Float 2.5; J.Int (-3) ]);
  ok "{\"k\": \"\\u0041\\u00e9\"}" (J.Obj [ ("k", J.String "A\xc3\xa9") ]);
  ok "1e3" (J.Float 1000.);
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_member_equal () =
  let v = J.Obj [ ("x", J.Int 3); ("y", J.Null) ] in
  Alcotest.(check bool) "member hit" true (J.member "x" v = Some (J.Int 3));
  Alcotest.(check bool) "member miss" true (J.member "z" v = None);
  Alcotest.(check bool) "int/float numeric equality" true (J.equal (J.Int 3) (J.Float 3.));
  Alcotest.(check bool) "int/float inequality" false (J.equal (J.Int 3) (J.Float 3.5));
  Alcotest.(check bool) "obj field order matters" false
    (J.equal v (J.Obj [ ("y", J.Null); ("x", J.Int 3) ]))

let tests =
  [
    Alcotest.test_case "string escaping" `Quick test_escaping;
    Alcotest.test_case "float_repr round-trip" `Quick test_float_repr;
    Alcotest.test_case "stable rendering" `Quick test_rendering;
    Alcotest.test_case "emit/parse round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parser basics and failures" `Quick test_parse_basics;
    Alcotest.test_case "member and equality" `Quick test_member_equal;
  ]
