(* Failure forensics: repro bundles round-trip through JSON and replay
   bit-identically (clean and failing, stochastic and scripted), the
   ddmin shrinker produces 1-minimal schedules deterministically at any
   job count, and the two planted counterexamples — a token-drop
   detection and a chaos partition livelock — shrink from hundreds of
   scheduled faults to a handful of events that still fail. *)

module T = Fault.Torture
module P = Fault.Plan
module B = Forensics.Bundle

let us = Sim.Time.us

(* Planted case #1: token-carrying drops on the dst1 policy. Seed 23
   is Detected with a rich materialized schedule (~170 events). *)
let drop_params = T.default_params

let drop_spec = Fault.Spec.with_drops ~tokens:true ~prob:0.02 Fault.Spec.default
let drop_target = T.Token Token.Policy.dst1
let drop_seed = 23

(* Seed 15 under the same recipe retires everything: the clean-replay
   fixture. *)
let clean_seed = 15

(* Planted case #2: a pure 2-region split held longer than the
   reliable transport's full backoff chain (~307us), recovery armed.
   Every cross-region frame exhausts its retransmit budget while the
   run is still going: livelock, on every seed. *)
let livelock_params =
  {
    T.default_params with
    T.p_recover = true;
    p_chaos = Some (Fault.Chaos.split ~at:(us 5) ~duration:(us 400) ());
  }

let livelock_target = T.Token Token.Policy.dst1
let livelock_seed = 1

let run_drop seed = T.run drop_params drop_target ~spec:drop_spec ~seed

let run_livelock () =
  T.run livelock_params livelock_target ~spec:Fault.Spec.default ~seed:livelock_seed

(* ---- bundle round-trip ---- *)

let test_bundle_roundtrip () =
  let o = run_drop drop_seed in
  Alcotest.(check bool) "planted drop case detected" true (T.verdict o = T.Detected);
  Alcotest.(check bool)
    "schedule is rich (>=100 events)" true
    (List.length o.T.plan_events >= 100);
  let b = B.make o in
  let j = B.to_json b in
  match B.of_json j with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok b2 ->
    Alcotest.(check bool) "seed survives" true (b2.B.seed = b.B.seed);
    Alcotest.(check bool) "spec survives" true (b2.B.spec = b.B.spec);
    Alcotest.(check bool) "params survive" true (b2.B.params = b.B.params);
    Alcotest.(check bool) "digest survives" true (b2.B.recorded = b.B.recorded);
    Alcotest.(check bool)
      "target survives" true
      (T.target_name b2.B.target = T.target_name b.B.target);
    (* Byte-level: serializing the parsed bundle reproduces the JSON. *)
    Alcotest.(check string) "JSON is canonical" (Tcjson.to_string j)
      (Tcjson.to_string (B.to_json b2))

let test_bundle_file_roundtrip () =
  let o = run_livelock () in
  (match T.verdict o with
  | T.Failed msg ->
    Alcotest.(check bool)
      "planted livelock verdict" true
      (msg = "livelock: did not converge after partition heal")
  | v -> Alcotest.failf "planted livelock got %a" T.pp_verdict v);
  let b = B.make o in
  let path = Filename.temp_file "tokencmp-test" ".repro.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      B.write_file path b;
      match B.read_file path with
      | Error e -> Alcotest.failf "read_file failed: %s" e
      | Ok b2 ->
        Alcotest.(check bool) "chaos spec survives" true
          (b2.B.params.T.p_chaos = livelock_params.T.p_chaos);
        Alcotest.(check bool) "digest survives" true (b2.B.recorded = b.B.recorded))

(* A plan whose causes stack — a flap, a cut and a lossy burst — is
   serialized cause by cause and parses back to the same list. *)
let test_bundle_chaos_causes_roundtrip () =
  let plan =
    Fault.Chaos.flaky ~cycles:1 () @ Fault.Chaos.split ~duration:(us 25) ()
    @ Fault.Chaos.burst_loss ()
  in
  let b =
    {
      B.target = livelock_target;
      seed = 1;
      spec = Fault.Spec.default;
      params = { livelock_params with T.p_chaos = Some plan };
      recorded =
        { B.d_verdict = T.Survived_partition; d_ops = 1; d_events = 2; d_runtime = us 3;
          d_misses = 4; d_reports = [] };
    }
  in
  let j = B.to_json b in
  match B.of_json j with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok b2 ->
    Alcotest.(check bool) "every cause survives" true (b2.B.params.T.p_chaos = Some plan);
    Alcotest.(check string) "JSON is canonical" (Tcjson.to_string j)
      (Tcjson.to_string (B.to_json b2))

let test_bundle_rejects_unknown_schema () =
  let o = run_drop drop_seed in
  let b = B.make o in
  let j = B.to_json b in
  let bump = function
    | Tcjson.Obj fields ->
      Tcjson.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Tcjson.Int 999)
             | kv -> kv)
           fields)
    | j -> j
  in
  (match B.of_json (bump j) with
  | Ok _ -> Alcotest.fail "schema_version 999 accepted"
  | Error e ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the version" true (contains e "999"));
  match B.of_json (Tcjson.Obj [ ("kind", Tcjson.String "something-else") ]) with
  | Ok _ -> Alcotest.fail "foreign kind accepted"
  | Error _ -> ()

(* ---- replay ---- *)

let test_replay_clean_bit_identical () =
  let o = run_drop clean_seed in
  Alcotest.(check bool) "fixture is clean" true (T.verdict o = T.Clean);
  let b = B.make o in
  match Forensics.Replay.check b with
  | Forensics.Replay.Reproduced o2 ->
    Alcotest.(check bool) "verdict" true (T.verdict o2 = T.Clean);
    Alcotest.(check int) "ops" o.T.ops o2.T.ops;
    Alcotest.(check int) "events" o.T.events o2.T.events;
    Alcotest.(check bool) "runtime" true (o.T.runtime = o2.T.runtime)
  | Forensics.Replay.Diverged _ -> Alcotest.fail "clean replay diverged"

let test_replay_failing_bit_identical () =
  List.iter
    (fun (label, b) ->
      match Forensics.Replay.check b with
      | Forensics.Replay.Reproduced _ -> ()
      | Forensics.Replay.Diverged { expected; got; _ } ->
        Alcotest.failf "%s diverged: recorded %s, got %s" label
          (Format.asprintf "%a" B.pp_digest expected)
          (Format.asprintf "%a" B.pp_digest got))
    [
      (* liveness: unrecoverable token drop starves the system into the
         watchdog's deadlock report *)
      ("token drop + deadlock", B.make (run_drop drop_seed));
      (* invariant: a minted duplicate breaks token conservation *)
      ( "invariant violation",
        (let spec =
           { Fault.Spec.default with Fault.Spec.dup_prob = 0.3; duplicate_tokens = true }
         in
         B.make (T.run T.default_params drop_target ~spec ~seed:1)) );
      ("partition livelock", B.make (run_livelock ()));
    ]

let test_replay_detects_divergence () =
  let o = run_drop drop_seed in
  let b = B.make o in
  let forged = { b with B.seed = b.B.seed + 1 } in
  match Forensics.Replay.check forged with
  | Forensics.Replay.Diverged _ -> ()
  | Forensics.Replay.Reproduced _ -> Alcotest.fail "forged seed still 'reproduced'"

(* Scripted mode is the replay bedrock: feeding a run's own
   materialized schedule back through a scripted plan must reproduce
   the run bit-identically — every offer index lines up, every action
   re-applies to the same message. *)
let test_scripted_full_schedule_identity () =
  let o = run_drop drop_seed in
  let scripted =
    T.run
      { drop_params with T.p_script = Some o.T.plan_events }
      drop_target ~spec:drop_spec ~seed:drop_seed
  in
  Alcotest.(check bool) "verdict" true (T.verdict scripted = T.verdict o);
  Alcotest.(check int) "ops" o.T.ops scripted.T.ops;
  Alcotest.(check int) "events" o.T.events scripted.T.events;
  Alcotest.(check bool) "runtime" true (o.T.runtime = scripted.T.runtime);
  Alcotest.(check int) "misses" o.T.misses scripted.T.misses;
  Alcotest.(check int) "offers" o.T.plan_offers scripted.T.plan_offers

(* ---- blame ---- *)

(* Token-minting duplicates trip the conservation invariant; the
   resulting report must blame the destructive plan event that minted
   the extra token, and the blamed index must exist in the materialized
   schedule. *)
let test_blame_attached () =
  let spec =
    { Fault.Spec.default with Fault.Spec.dup_prob = 0.3; duplicate_tokens = true }
  in
  let hits = ref 0 in
  for seed = 1 to 6 do
    let o = T.run T.default_params drop_target ~spec ~seed in
    let blamed =
      List.filter_map
        (fun r ->
          match r.Fault.Report.kind with
          | Fault.Report.Invariant _ -> Fault.Report.blame r
          | _ -> None)
        o.T.reports
    in
    if blamed <> [] then begin
      incr hits;
      List.iter
        (fun bl ->
          Alcotest.(check bool) "blamed event is destructive" true bl.P.ev_destructive;
          Alcotest.(check bool) "blamed event is in the materialized schedule" true
            (List.mem bl o.T.plan_events))
        blamed
    end
  done;
  Alcotest.(check bool) "some invariant report carries blame" true (!hits > 0)

(* ---- shrink ---- *)

let shrink ?(jobs = 1) b =
  match Forensics.Shrink.run ~jobs b with
  | Ok r -> r
  | Error e -> Alcotest.failf "shrink failed: %s" e

let test_shrink_drop_case () =
  let o = run_drop drop_seed in
  let b = B.make o in
  let r = shrink b in
  let n = List.length r.Forensics.Shrink.r_schedule in
  Alcotest.(check bool)
    (Printf.sprintf "planted drop shrinks to <=5 events (got %d of %d)" n
       r.Forensics.Shrink.r_original_events)
    true (n <= 5);
  Alcotest.(check bool) "minimal run still fails" true
    (T.verdict r.Forensics.Shrink.r_outcome = T.Detected);
  (* The minimal bundle must itself replay bit-identically. *)
  (match Forensics.Replay.check r.Forensics.Shrink.r_bundle with
  | Forensics.Replay.Reproduced _ -> ()
  | Forensics.Replay.Diverged _ -> Alcotest.fail "minimal bundle diverged");
  (* 1-minimality: dropping any single surviving event loses the failure. *)
  let sched = r.Forensics.Shrink.r_schedule in
  let params = r.Forensics.Shrink.r_bundle.B.params in
  let target = r.Forensics.Shrink.r_bundle.B.target in
  let seed = r.Forensics.Shrink.r_bundle.B.seed in
  let spec = r.Forensics.Shrink.r_bundle.B.spec in
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) sched in
      let o' =
        T.run { params with T.p_script = Some without } target ~spec ~seed
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping surviving event %d loses the failure" i)
        false
        (T.verdict o' = T.Detected))
    sched;
  (* Blame must point inside the minimal run's schedule (when present). *)
  let blamed =
    List.filter_map
      (fun rep -> Fault.Report.blame rep)
      r.Forensics.Shrink.r_outcome.T.reports
  in
  List.iter
    (fun bl ->
      Alcotest.(check bool) "blame survives shrinking" true
        (List.exists (fun e -> e.P.ev_index = bl.P.ev_index) sched))
    blamed

let test_shrink_livelock_case () =
  let o = run_livelock () in
  let b = B.make o in
  Alcotest.(check bool)
    "livelock schedule is rich (>=100 events)" true
    (List.length o.T.plan_events >= 100);
  let r = shrink b in
  Alcotest.(check bool)
    (Printf.sprintf "planted livelock shrinks to <=5 events (got %d of %d)"
       (List.length r.Forensics.Shrink.r_schedule)
       r.Forensics.Shrink.r_original_events)
    true
    (List.length r.Forensics.Shrink.r_schedule <= 5);
  (match T.verdict r.Forensics.Shrink.r_outcome with
  | T.Failed _ -> ()
  | v -> Alcotest.failf "minimal livelock run got %a" T.pp_verdict v);
  match Forensics.Replay.check r.Forensics.Shrink.r_bundle with
  | Forensics.Replay.Reproduced _ -> ()
  | Forensics.Replay.Diverged _ -> Alcotest.fail "minimal livelock bundle diverged"

let test_shrink_deterministic_across_jobs () =
  let o = run_drop drop_seed in
  let b = B.make o in
  let r1 = shrink ~jobs:1 b in
  let r4 = shrink ~jobs:4 b in
  Alcotest.(check string) "minimal bundles are byte-identical"
    (Tcjson.to_string (B.to_json r1.Forensics.Shrink.r_bundle))
    (Tcjson.to_string (B.to_json r4.Forensics.Shrink.r_bundle));
  Alcotest.(check int) "same candidate count"
    r1.Forensics.Shrink.r_stats.Forensics.Shrink.s_candidates
    r4.Forensics.Shrink.r_stats.Forensics.Shrink.s_candidates

let test_shrink_rejects_passing_bundle () =
  let o = run_drop clean_seed in
  let b = B.make o in
  match Forensics.Shrink.run b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrink accepted a passing bundle"

(* One classification of failed verdicts: a real clean outcome, edited
   into the two safety failures that carry no invariant report and into
   a liveness failure, exits with the same code from a campaign and from
   replay. *)
let test_exit_codes_agree () =
  let o = run_drop clean_seed in
  Alcotest.(check bool) "fixture is clean" true (T.verdict o = T.Clean);
  let cases =
    [
      ( "token-minting duplicate was injected but no invariant violation reported",
        1,
        { o with
          T.spec = { o.T.spec with Fault.Spec.duplicate_tokens = true };
          stats = { o.T.stats with P.token_dups = 1 };
          reports = [] } );
      ( "unrecoverable drop silently absorbed",
        1,
        { o with T.stats = { o.T.stats with P.drops_unrecoverable = 1 }; reports = [] } );
      ("run did not complete", 2, { o with T.completed = false });
    ]
  in
  Alcotest.(check int) "clean: campaign" 0 (T.exit_code [ o ]);
  Alcotest.(check int) "clean: replay" 0 (Forensics.Replay.exit_code o);
  List.iter
    (fun (why, code, o) ->
      Alcotest.(check bool) why true (T.verdict o = T.Failed why);
      Alcotest.(check int) (why ^ ": campaign") code (T.exit_code [ o ]);
      Alcotest.(check int) (why ^ ": replay") code (Forensics.Replay.exit_code o))
    cases

let tests =
  [
    Alcotest.test_case "bundle JSON round-trip" `Slow test_bundle_roundtrip;
    Alcotest.test_case "bundle file round-trip (livelock)" `Slow
      test_bundle_file_roundtrip;
    Alcotest.test_case "stacked chaos causes round-trip" `Quick
      test_bundle_chaos_causes_roundtrip;
    Alcotest.test_case "unknown schema version rejected" `Slow
      test_bundle_rejects_unknown_schema;
    Alcotest.test_case "clean replay is bit-identical" `Slow
      test_replay_clean_bit_identical;
    Alcotest.test_case "failing replays are bit-identical" `Slow
      test_replay_failing_bit_identical;
    Alcotest.test_case "replay flags divergence" `Slow test_replay_detects_divergence;
    Alcotest.test_case "scripted full-schedule replay is identity" `Slow
      test_scripted_full_schedule_identity;
    Alcotest.test_case "reports carry plan-event blame" `Slow test_blame_attached;
    Alcotest.test_case "planted drop shrinks to <=5, 1-minimal" `Slow
      test_shrink_drop_case;
    Alcotest.test_case "planted livelock shrinks to <=5" `Slow
      test_shrink_livelock_case;
    Alcotest.test_case "shrink deterministic at -j 1 and -j 4" `Slow
      test_shrink_deterministic_across_jobs;
    Alcotest.test_case "shrink rejects passing bundles" `Slow
      test_shrink_rejects_passing_bundle;
    Alcotest.test_case "campaign and replay exit codes agree" `Slow test_exit_codes_agree;
  ]
