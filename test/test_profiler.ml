(* Coherence profiler end to end: the report's per-class counts sum to
   the miss total, hop attribution sums to the span totals, the
   Perfetto export (spans + counter tracks) validates, and rendering is
   deterministic. *)

module J = Tcjson
module Pr = Tokencmp.Profiler

let run_profile proto =
  let config = Mcmp.Config.tiny in
  let nprocs = Mcmp.Config.nprocs config in
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 10 } in
  Pr.profile ~config ~protocol:proto
    ~programs:(Workload.Locking.programs wl ~seed:3 ~nprocs)
    ~seed:3 ()

let check_report name (r : Pr.t) =
  Alcotest.(check bool) (name ^ ": completed") true r.Pr.completed;
  let rc = r.Pr.reconciliation in
  Alcotest.(check bool) (name ^ ": class decomposition exact") true rc.Pr.classes_exact;
  Alcotest.(check bool) (name ^ ": span accounting exact") true rc.Pr.spans_exact;
  (* Span mass must equal the Welford miss-latency mass: a report whose
     spans carry more latency than the misses retired does not
     reconcile. *)
  Alcotest.(check bool) (name ^ ": span mass reconciles") true (Pr.spans_reconcile rc);
  Alcotest.(check bool) (name ^ ": span mass disagreement detected") false
    (Pr.spans_reconcile { rc with Pr.span_mass_ns = rc.Pr.span_mass_ns *. (1. +. 1e-3) });
  Alcotest.(check int)
    (name ^ ": class counts sum to misses")
    rc.Pr.misses
    (List.fold_left (fun acc row -> acc + row.Pr.count) 0 r.Pr.classes);
  let att = r.Pr.attribution in
  let span_total = r.Pr.span_summary.Obs.Span.total_ns in
  Alcotest.(check bool) (name ^ ": attribution sums to span total") true
    (Float.abs (att.Obs.Span.att_total_ns -. span_total)
    <= 1e-6 *. Float.max 1. span_total);
  Alcotest.(check bool) (name ^ ": sampler produced counter tracks") true
    (r.Pr.nsamples > 0);
  (match Obs.Perfetto.validate r.Pr.perfetto with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: perfetto validation: %s" name e);
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
  (* Rendering: JSON round-trips through the parser, markdown carries
     the section structure. *)
  let json = Pr.to_json r in
  (match J.parse (J.to_string json) with
  | Ok round -> Alcotest.(check bool) (name ^ ": json round-trips") true (J.equal round json)
  | Error e -> Alcotest.failf "%s: json re-parse: %s" name e);
  let md = Pr.to_markdown r in
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and ml = String.length md in
        let rec go i = i + nl <= ml && (String.sub md i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (name ^ ": markdown has " ^ needle) true contains)
    [ "## Miss classification"; "## Critical-path attribution"; "## Reconciliation" ]

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
  let a = Pr.to_json (run_profile proto) in
  let b = Pr.to_json (run_profile proto) in
  Alcotest.(check bool) "same seed, same report" true (J.equal a b)

let tests =
  [
    Alcotest.test_case "token profile reconciles and renders" `Quick test_token;
    Alcotest.test_case "directory profile reconciles and renders" `Quick test_directory;
    Alcotest.test_case "profile report is deterministic" `Quick test_deterministic;
  ]
