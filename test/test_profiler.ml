(* Coherence profiler end to end: the report's per-class counts sum to
   the miss total, hop attribution sums to the span totals, the
   Perfetto export (spans + counter tracks) validates, the report is
   the six tables in print order and is deterministic, and
   [Profiler.failures] names each broken guarantee once. *)

module J = Tcjson
module Pr = Tokencmp.Profiler

let run_profile proto =
  let config = Mcmp.Config.tiny in
  let nprocs = Mcmp.Config.nprocs config in
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 10 } in
  Pr.profile ~config ~protocol:proto
    ~programs:(Workload.Locking.programs wl ~seed:3 ~nprocs)
    ~seed:3 ()

(* The report as [tokencmp profile -o] writes it. *)
let report_json r = Tokencmp.Table.keyed_to_json (Pr.tables [ r ])

let check_report name (r : Pr.t) =
  Alcotest.(check bool) (name ^ ": completed") true r.Pr.completed;
  let rc = r.Pr.reconciliation in
  Alcotest.(check bool) (name ^ ": class decomposition exact") true rc.Pr.classes_exact;
  Alcotest.(check bool) (name ^ ": span accounting exact") true rc.Pr.spans_exact;
  (* Span mass must equal the Welford miss-latency mass: a report whose
     spans carry more latency than the misses retired does not
     reconcile. *)
  Alcotest.(check bool) (name ^ ": span mass reconciles") true (Pr.spans_reconcile rc);
  Alcotest.(check int)
    (name ^ ": class counts sum to misses")
    rc.Pr.misses
    (List.fold_left (fun acc row -> acc + row.Pr.count) 0 r.Pr.classes);
  let att = r.Pr.attribution in
  Alcotest.(check bool) (name ^ ": attribution sums to span total") true
    (Float.abs (att.Obs.Span.att_total_ns -. rc.Pr.span_mass_ns)
    <= 1e-6 *. Float.max 1. rc.Pr.span_mass_ns);
  Alcotest.(check bool) (name ^ ": sampler produced counter tracks") true
    (r.Pr.nsamples > 0);
  (match Obs.Perfetto.validate r.Pr.perfetto with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: perfetto validation: %s" name e);
  Alcotest.(check (list string)) (name ^ ": no failure") [] (Pr.failures r);
  (* Hot blocks never count more misses than exist, and come sorted. *)
  let rec desc = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) (name ^ ": hot blocks sorted") true
        (a.Pr.block_misses >= b.Pr.block_misses);
      desc rest
    | _ -> ()
  in
  desc r.Pr.hot_blocks;
  List.iter
    (fun blk ->
      Alcotest.(check bool) (name ^ ": block miss count bounded") true
        (blk.Pr.block_misses <= rc.Pr.misses))
    r.Pr.hot_blocks;
  (* The report: six tables in print order, each row led by the
     protocol, and the run and reconciliation rows carry the record. *)
  let json = report_json r in
  (match json with
  | J.Obj tables ->
    Alcotest.(check (list string)) (name ^ ": report keys")
      [ "runs"; "classes"; "attribution"; "hot_blocks"; "contended_blocks"; "reconciliation" ]
      (List.map fst tables);
    List.iter
      (fun (key, rows) ->
        match rows with
        | J.List rows ->
          List.iter
            (fun row ->
              Alcotest.(check bool) (name ^ ": " ^ key ^ " row led by protocol") true
                (match row with
                | J.Obj (("protocol", J.String p) :: _) -> p = r.Pr.protocol
                | _ -> false))
            rows
        | _ -> Alcotest.failf "%s: %s is not a list of rows" name key)
      tables
  | _ -> Alcotest.failf "%s: report is not an object" name);
  let cell key column =
    match J.member key json with
    | Some (J.List [ row ]) -> J.member column row
    | _ -> None
  in
  Alcotest.(check bool) (name ^ ": runs row has ops") true
    (cell "runs" "ops" = Some (J.Int r.Pr.ops));
  Alcotest.(check bool) (name ^ ": runs row has samples") true
    (cell "runs" "samples" = Some (J.Int r.Pr.nsamples));
  Alcotest.(check bool) (name ^ ": reconciliation row has misses") true
    (cell "reconciliation" "misses" = Some (J.Int rc.Pr.misses));
  Alcotest.(check bool) (name ^ ": reconciliation row has spans_exact") true
    (cell "reconciliation" "spans_exact" = Some (J.Bool true))

let test_token () =
  let r = run_profile (Tokencmp.Protocols.token Token.Policy.dst1) in
  check_report "token" r;
  (* The locking run on the token protocol exercises remote sharing. *)
  let count cause =
    match List.find_opt (fun row -> row.Pr.cause = cause) r.Pr.classes with
    | Some row -> row.Pr.count
    | None -> 0
  in
  Alcotest.(check bool) "token: remote sharing classified" true
    (count Obs.Event.Sharing_remote > 0);
  Alcotest.(check bool) "token: cold misses classified" true (count Obs.Event.Cold > 0);
  Alcotest.(check bool) "token: network time attributed" true
    (r.Pr.attribution.Obs.Span.att_flight_ns > 0.)

let test_directory () =
  let r = run_profile Tokencmp.Protocols.directory in
  check_report "directory" r;
  Alcotest.(check bool) "directory: dram time attributed" true
    (r.Pr.attribution.Obs.Span.att_mem_ns > 0.)

let test_deterministic () =
  let proto = Tokencmp.Protocols.token Token.Policy.dst1 in
  let a = report_json (run_profile proto) in
  let b = report_json (run_profile proto) in
  Alcotest.(check bool) "same seed, same report" true (J.equal a b)

(* [Profiler.failures] is the one rule [tokencmp profile] and the
   profile bench section fail on: each broken guarantee of a doctored
   report yields exactly one message, led by the protocol. *)
let test_failures () =
  let r = run_profile (Tokencmp.Protocols.token Token.Policy.dst1) in
  let rc = r.Pr.reconciliation in
  let one what doctored =
    match Pr.failures doctored with
    | [ msg ] ->
      Alcotest.(check bool) (what ^ ": message names the protocol") true
        (String.starts_with ~prefix:"TokenCMP-dst1: " msg)
    | fs -> Alcotest.failf "%s: expected one failure, got %d" what (List.length fs)
  in
  one "not completed" { r with Pr.completed = false };
  one "class counts differ from misses"
    {
      r with
      Pr.reconciliation =
        { rc with Pr.class_count_total = rc.Pr.misses + 1; classes_exact = false };
    };
  one "spans inexact on an unwrapped ring"
    { r with Pr.reconciliation = { rc with Pr.spans_exact = false } };
  one "attribution off the span mass"
    {
      r with
      Pr.attribution =
        {
          r.Pr.attribution with
          Obs.Span.att_total_ns = r.Pr.attribution.Obs.Span.att_total_ns +. 1.;
        };
    };
  one "no samples" { r with Pr.nsamples = 0 };
  one "perfetto without traceEvents" { r with Pr.perfetto = J.Obj [] };
  Alcotest.(check (list string)) "a wrapped ring may leave spans inexact" []
    (Pr.failures
       { r with Pr.reconciliation = { rc with Pr.buffer_dropped = 1; spans_exact = false } });
  (* The span-mass rule behind [spans_exact]. *)
  Alcotest.(check bool) "span mass disagreement detected" false
    (Pr.spans_reconcile { rc with Pr.span_mass_ns = rc.Pr.span_mass_ns *. (1. +. 1e-3) })

let tests =
  [
    Alcotest.test_case "token profile reconciles and renders" `Quick test_token;
    Alcotest.test_case "directory profile reconciles and renders" `Quick test_directory;
    Alcotest.test_case "profile report is deterministic" `Quick test_deterministic;
    Alcotest.test_case "failures: one message per broken guarantee" `Quick test_failures;
  ]
