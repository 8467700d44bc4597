(* Fault-injection torture harness: spec/plan units, the runtime
   invariant monitor and liveness watchdog end to end, and the
   acceptance campaigns — a fixed-seed randomized campaign over every
   protocol variant must stay clean, while deliberately unsurvivable
   faults (token-carrying drops, token-minting duplicates) must be
   detected and reported with seed and trace. *)

let ns = Sim.Time.ns

(* ---- Spec ---- *)

let test_spec_modes () =
  let d = Fault.Spec.default in
  Alcotest.(check bool) "default injects delays" true (d.Fault.Spec.delay_prob > 0.);
  Alcotest.(check bool) "default never drops" true (d.Fault.Spec.drop_prob = 0.);
  Alcotest.(check bool) "default is not corrupting" false
    (d.Fault.Spec.drop_tokens || d.Fault.Spec.duplicate_tokens);
  let w = Fault.Spec.with_drops ~tokens:true ~prob:0.02 d in
  Alcotest.(check bool) "with_drops sets prob" true (w.Fault.Spec.drop_prob = 0.02);
  Alcotest.(check bool) "with_drops tokens" true w.Fault.Spec.drop_tokens;
  let o = Fault.Spec.delay_only w in
  Alcotest.(check bool) "delay_only keeps delays" true (o.Fault.Spec.delay_prob > 0.);
  Alcotest.(check (float 0.)) "delay_only clears dup" 0. o.Fault.Spec.dup_prob;
  Alcotest.(check (float 0.)) "delay_only clears drop" 0. o.Fault.Spec.drop_prob;
  Alcotest.(check bool) "delay_only clears corruption" false
    (o.Fault.Spec.drop_tokens || o.Fault.Spec.duplicate_tokens);
  let rng = Sim.Rng.create 7 in
  let r = Fault.Spec.random rng in
  Alcotest.(check bool) "random never drops" true (r.Fault.Spec.drop_prob = 0.);
  Alcotest.(check bool) "specs print" true
    (String.length (Format.asprintf "%a" Fault.Spec.pp r) > 0)

(* ---- Plan ---- *)

let decide_all plan ~cls ~tokens n =
  List.init n (fun i ->
      Fault.Plan.decide plan ~now:(ns (i * 10)) ~src:(i mod 4) ~dst:((i + 1) mod 4) ~cls
        ~tokens_carried:tokens ~label:(fun () -> "msg"))

let test_plan_deterministic () =
  let mk () = Fault.Plan.create ~seed:11 ~nodes:8 Fault.Spec.default in
  let a = decide_all (mk ()) ~cls:Interconnect.Msg_class.Request ~tokens:0 200 in
  let b = decide_all (mk ()) ~cls:Interconnect.Msg_class.Request ~tokens:0 200 in
  Alcotest.(check bool) "same seed, same fault sequence" true (a = b);
  let none = Fault.Plan.create ~seed:11 ~nodes:8 Fault.Spec.none in
  List.iter
    (fun act -> Alcotest.(check bool) "empty spec passes" true (act = Interconnect.Fabric.Pass))
    (decide_all none ~cls:Interconnect.Msg_class.Response_data ~tokens:4 50)

let test_plan_class_gating () =
  (* Saturated drop/dup probabilities: Persistent must still pass
     untouched (lossless-network assumption of the liveness layer). *)
  let hot =
    {
      Fault.Spec.none with
      Fault.Spec.dup_prob = 1.0;
      drop_prob = 1.0;
      drop_tokens = true;
      duplicate_tokens = true;
    }
  in
  let plan = Fault.Plan.create ~seed:3 ~nodes:8 hot in
  List.iter
    (fun act ->
      Alcotest.(check bool) "persistent untouched" true (act = Interconnect.Fabric.Pass))
    (decide_all plan ~cls:Interconnect.Msg_class.Persistent ~tokens:0 50);
  (* Requests at drop_prob 1.0 are recoverable drops, and recorded. *)
  let plan = Fault.Plan.create ~seed:3 ~nodes:8 hot in
  List.iter
    (fun act -> Alcotest.(check bool) "requests drop" true (act = Interconnect.Fabric.Drop))
    (decide_all plan ~cls:Interconnect.Msg_class.Request ~tokens:0 20);
  Alcotest.(check int) "recoverable drops recorded" 20
    (Fault.Plan.stats plan).Fault.Plan.drops_recoverable;
  Alcotest.(check int) "no unrecoverable drops" 0
    (List.length (Fault.Plan.unrecoverable_drops plan));
  (* Token-carrying messages under drop_tokens: unrecoverable, and the
     duplicate_tokens corruption takes precedence at dup_prob 1.0. *)
  let drop_only = { hot with Fault.Spec.dup_prob = 0.; duplicate_tokens = false } in
  let plan = Fault.Plan.create ~seed:3 ~nodes:8 drop_only in
  List.iter
    (fun act -> Alcotest.(check bool) "token drops" true (act = Interconnect.Fabric.Drop))
    (decide_all plan ~cls:Interconnect.Msg_class.Response_data ~tokens:2 10);
  let recs = Fault.Plan.unrecoverable_drops plan in
  Alcotest.(check int) "unrecoverable recorded" 10 (List.length recs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "flagged destructive" true e.Fault.Plan.ev_destructive;
      Alcotest.(check bool) "logged drop prints" true
        (String.length (Format.asprintf "%a" Fault.Plan.pp_event e) > 0))
    recs

(* The two plan modes are one rule: whatever a stochastic plan
   decides for an offer stream, a scripted plan built from its log
   decides too, and logs the same events. The counters agree, except
   that a script does not record which knob drew a delay, so its
   delays are the stochastic delays, reorders and stall holds. *)
let prop_plan_modes_one_rule =
  let open QCheck.Gen in
  let gen_spec =
    map
      (fun ((spec_seed, drop_prob, dup_prob), (drop_tokens, duplicate_tokens)) ->
        {
          (Fault.Spec.random (Sim.Rng.create spec_seed)) with
          Fault.Spec.drop_prob;
          dup_prob;
          drop_tokens;
          duplicate_tokens;
        })
      (pair (triple nat (float_range 0. 1.) (float_range 0. 1.)) (pair bool bool))
  in
  let gen_offer =
    quad (oneofl Interconnect.Msg_class.all) (int_range 0 3)
      (pair (int_range 0 7) (int_range 0 7))
      (int_range 0 2_000)
  in
  let gen = quad gen_spec bool nat (list_size (int_range 0 300) gen_offer) in
  let print (spec, recovery, seed, offers) =
    Format.asprintf "%a recovery=%b seed=%d offers=%d" Fault.Spec.pp spec recovery seed
      (List.length offers)
  in
  QCheck.Test.make ~name:"stochastic and scripted plans apply one rule" ~count:300
    (QCheck.make ~print gen)
    (fun (spec, recovery, seed, offers) ->
      let run plan =
        let now = ref 0 in
        List.map
          (fun (cls, tokens_carried, (src, dst), dt) ->
            now := !now + ns dt;
            Fault.Plan.decide plan ~now:!now ~src ~dst ~cls ~tokens_carried
              ~label:(fun () -> Interconnect.Msg_class.to_string cls))
          offers
      in
      let stochastic = Fault.Plan.create ~recovery ~seed ~nodes:8 spec in
      let verdicts = run stochastic in
      let scripted =
        Fault.Plan.create ~recovery ~script:(Fault.Plan.events stochastic) ~seed ~nodes:8 spec
      in
      let replayed = run scripted in
      let a = Fault.Plan.stats stochastic and b = Fault.Plan.stats scripted in
      verdicts = replayed
      && Fault.Plan.events stochastic = Fault.Plan.events scripted
      && a.Fault.Plan.drops_recoverable = b.Fault.Plan.drops_recoverable
      && a.Fault.Plan.drops_unrecoverable = b.Fault.Plan.drops_unrecoverable
      && a.Fault.Plan.dups = b.Fault.Plan.dups
      && a.Fault.Plan.token_dups = b.Fault.Plan.token_dups
      && b.Fault.Plan.delays
         = a.Fault.Plan.delays + a.Fault.Plan.reorders + a.Fault.Plan.stall_holds)

(* ---- Violation / Report ---- *)

let test_violation_fields () =
  let v =
    Mcmp.Violation.make ~kind:"token-conservation" ~addr:0x40 ~node:3 ~time:(ns 1200)
      "held 15 + inflight 0 <> 16"
  in
  Alcotest.(check string) "kind" "token-conservation" v.Mcmp.Violation.kind;
  Alcotest.(check (option int)) "addr" (Some 0x40) v.Mcmp.Violation.addr;
  Alcotest.(check (option int)) "node" (Some 3) v.Mcmp.Violation.node;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "to_string mentions kind" true
    (contains (Mcmp.Violation.to_string v) "token-conservation");
  match Mcmp.Violation.raise_it ~kind:"k" ~time:Sim.Time.zero "detail" with
  | exception Mcmp.Violation.Invariant_violation v' ->
    Alcotest.(check string) "raise_it carries kind" "k" v'.Mcmp.Violation.kind
  | _ -> Alcotest.fail "raise_it did not raise"

let test_report_severity () =
  let at = ns 100 in
  let dr =
    {
      Fault.Plan.ev_index = 0;
      ev_time = at;
      ev_src = 0;
      ev_dst = 1;
      ev_cls = Interconnect.Msg_class.Response_data;
      ev_label = "Tokens";
      ev_action = Fault.Plan.Drop_copy;
      ev_destructive = true;
    }
  in
  let sev k = Fault.Report.severity { Fault.Report.at; kind = k } in
  Alcotest.(check bool) "unrecoverable drop is expected" true
    (sev (Fault.Report.Unrecoverable_drop dr) = `Expected);
  Alcotest.(check bool) "invariant is fatal" true
    (sev
       (Fault.Report.Invariant
          { violation = Mcmp.Violation.make ~kind:"k" ~time:at "d"; blame = None })
    = `Fatal);
  Alcotest.(check bool) "no-progress is fatal" true
    (sev (Fault.Report.No_progress { window = ns 1000; mode = `Deadlock }) = `Fatal)

(* ---- Torture runs ---- *)

let plain = Fault.Torture.default_params
let recovering = { Fault.Torture.default_params with Fault.Torture.p_recover = true }

let check_clean o =
  match Fault.Torture.verdict o with
  | Fault.Torture.Clean -> ()
  | v ->
    Alcotest.failf "%s seed=%d expected clean, got %a (%d reports)"
      (Fault.Torture.target_name o.Fault.Torture.target)
      o.Fault.Torture.seed Fault.Torture.pp_verdict v
      (List.length o.Fault.Torture.reports)

(* Acceptance: a fixed-seed randomized campaign — both protocols, every
   token policy, delay/duplication/reorder/stall faults — is violation-
   and hang-free. *)
let test_campaign_clean () =
  let outcomes =
    Fault.Torture.campaign ~params:plain ~runs:100 ~targets:Fault.Torture.default_targets
      ~seed:2026 ()
  in
  Alcotest.(check int) "ran all 100" 100 (List.length outcomes);
  List.iter check_clean outcomes

(* Acceptance: a deliberately dropped token-carrying message must be
   detected and reported, with the seed and a bounded trace attached. *)
let test_token_drop_detected () =
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.05 Fault.Spec.default in
  let hits = ref 0 in
  for seed = 1 to 6 do
    let o = Fault.Torture.run plain (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed in
    if o.Fault.Torture.stats.Fault.Plan.drops_unrecoverable > 0 then begin
      incr hits;
      (match Fault.Torture.verdict o with
      | Fault.Torture.Detected -> ()
      | v -> Alcotest.failf "seed %d: expected detected, got %a" seed Fault.Torture.pp_verdict v);
      Alcotest.(check bool) "reported" true (o.Fault.Torture.reports <> []);
      Alcotest.(check bool) "reports the drop" true
        (List.exists
           (fun r ->
             match r.Fault.Report.kind with
             | Fault.Report.Unrecoverable_drop _ -> true
             | _ -> false)
           o.Fault.Torture.reports);
      Alcotest.(check int) "seed preserved for reproduction" seed o.Fault.Torture.seed;
      Alcotest.(check bool) "trace captured" true
        (o.Fault.Torture.trace <> Tcjson.Null);
      Alcotest.(check bool) "trace validates" true
        (Obs.Perfetto.validate o.Fault.Torture.trace = Ok ());
      Alcotest.(check bool) "gauges read at end of run" true
        (List.mem_assoc "counters.l1_misses" o.Fault.Torture.gauges)
    end
  done;
  Alcotest.(check bool) "at least one unrecoverable drop injected" true (!hits > 0)

(* The invariant monitor must catch token-minting duplicates: a
   duplicated token-carrying message breaks global conservation. *)
let test_token_mint_caught () =
  let spec =
    { Fault.Spec.default with Fault.Spec.dup_prob = 0.3; duplicate_tokens = true }
  in
  let hits = ref 0 in
  for seed = 1 to 6 do
    let o = Fault.Torture.run plain (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed in
    if o.Fault.Torture.stats.Fault.Plan.token_dups > 0 then begin
      incr hits;
      (match Fault.Torture.verdict o with
      | Fault.Torture.Detected -> ()
      | v -> Alcotest.failf "seed %d: expected detected, got %a" seed Fault.Torture.pp_verdict v);
      Alcotest.(check bool) "invariant violation reported" true
        (List.exists
           (fun r ->
             match r.Fault.Report.kind with Fault.Report.Invariant _ -> true | _ -> false)
           o.Fault.Torture.reports)
    end
  done;
  Alcotest.(check bool) "at least one duplicate minted" true (!hits > 0)

let delay_spikes =
  {
    Fault.Spec.none with
    Fault.Spec.delay_prob = 0.05;
    delay_min = ns 300;
    delay_max = ns 1500;
    reorder_prob = 0.05;
    reorder_max = ns 60;
  }

(* dst1-mcast predicts a destination set; delay spikes force timeouts,
   whose reissue falls back to the full broadcast before escalating to
   a persistent request. The run must stay clean throughout. *)
let test_mcast_fallback_under_spikes () =
  for seed = 1 to 3 do
    check_clean
      (Fault.Torture.run plain (Fault.Torture.Token Token.Policy.dst1_mcast)
         ~spec:delay_spikes ~seed)
  done

(* timeout_all_responses arms the retry timer from the all-responses
   latency average instead of the memory-response average, so delay
   spikes trigger much earlier reissues; survivability must not depend
   on the timer flavor. *)
let test_timeout_all_responses_under_spikes () =
  let policy =
    { Token.Policy.dst1 with Token.Policy.name = "TokenCMP-dst1-toall";
      timeout_all_responses = true }
  in
  for seed = 1 to 3 do
    check_clean
      (Fault.Torture.run plain (Fault.Torture.Token policy) ~spec:delay_spikes ~seed)
  done

(* ---- Recovery mode ---- *)

(* Satellite determinism guarantee: the recovery flag changes drop
   *bookkeeping* only — the plan's RNG stream is identical, so one
   (seed, spec) pair fires the exact same fault schedule with recovery
   on or off. *)
let test_plan_rng_identical_with_recovery () =
  let spec =
    Fault.Spec.with_drops ~tokens:true ~prob:0.5
      { Fault.Spec.default with Fault.Spec.dup_prob = 0.2 }
  in
  let seq recovery =
    let plan = Fault.Plan.create ~recovery ~seed:23 ~nodes:8 spec in
    let a = decide_all plan ~cls:Interconnect.Msg_class.Response_data ~tokens:2 150 in
    let b = decide_all plan ~cls:Interconnect.Msg_class.Request ~tokens:0 150 in
    (a @ b, Fault.Plan.stats plan, Fault.Plan.unrecoverable_drops plan)
  in
  let acts_off, stats_off, unrec_off = seq false in
  let acts_on, stats_on, unrec_on = seq true in
  Alcotest.(check bool) "identical fault schedule" true (acts_off = acts_on);
  Alcotest.(check bool) "off mode records unrecoverable drops" true
    (stats_off.Fault.Plan.drops_unrecoverable > 0);
  Alcotest.(check int) "recovery mode records none as unrecoverable" 0
    stats_on.Fault.Plan.drops_unrecoverable;
  Alcotest.(check int) "same total drops either way"
    (stats_off.Fault.Plan.drops_recoverable + stats_off.Fault.Plan.drops_unrecoverable)
    (stats_on.Fault.Plan.drops_recoverable + stats_on.Fault.Plan.drops_unrecoverable);
  Alcotest.(check bool) "unrecoverable record list flips" true
    (unrec_off <> [] && unrec_on = [])

(* Satellite margin audit: the recovery-mode watchdog default (2.5 x
   the 200 us starvation bound) must clear the recreation layer's
   worst-case end-to-end latency, or legitimate recoveries would be
   misreported as starvation/livelock. *)
let test_watchdog_margin_covers_recreation () =
  let worst = Token.Recovery.worst_case_latency in
  let scaled_starvation = Sim.Time.ns (int_of_float (2.5 *. 200_000.)) in
  Alcotest.(check bool) "margin-scaled starvation bound clears worst-case recovery" true
    (scaled_starvation > worst);
  (* no-progress: 5 windows x 20 us, scaled by 2.5 -> 260 us > worst *)
  let scaled_window = Sim.Time.ns (int_of_float (ceil (5. *. 2.5)) * 20_000) in
  Alcotest.(check bool) "margin-scaled no-progress window clears worst-case recovery" true
    (scaled_window > worst)

(* Acceptance (tentpole): a token-drop storm that is *detected* without
   the recovery layer is *survived* with it — reliable transport
   retransmits the dropped frames, and any residual loss is healed by
   token recreation. Zero violations, every request retires. *)
let test_recovery_survives_token_drops () =
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.05 Fault.Spec.default in
  let survived = ref 0 and retrans = ref 0 in
  for seed = 1 to 6 do
    let o =
      Fault.Torture.run recovering (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed
    in
    if o.Fault.Torture.stats.Fault.Plan.drops_recoverable > 0 then begin
      incr survived;
      (match Fault.Torture.verdict o with
      | Fault.Torture.Clean -> ()
      | v ->
        Alcotest.failf "seed %d: expected survival, got %a" seed Fault.Torture.pp_verdict v);
      Alcotest.(check bool) "completed" true o.Fault.Torture.completed;
      Alcotest.(check bool) "no fatal report" true
        (not (List.exists (fun r -> Fault.Report.severity r = `Fatal) o.Fault.Torture.reports));
      retrans := !retrans + o.Fault.Torture.retransmits;
      match o.Fault.Torture.recovered with
      | None -> Alcotest.fail "recovery stats missing on a recovery run"
      | Some _ -> ()
    end
  done;
  Alcotest.(check bool) "storm actually dropped frames" true (!survived > 0);
  Alcotest.(check bool) "transport retransmitted" true (!retrans > 0)

(* Acceptance (tentpole): crash/restart campaign — caches power-cycled
   mid-run lose all volatile state (tokens included); epoch-stamped
   recreation restores the lost tokens and every request still
   retires. The same seeds without --recover are the detection
   baseline exercised by test_token_drop_detected. *)
let test_recovery_crash_restart_retires () =
  let spec =
    Fault.Spec.with_crashes ~count:3
      (Fault.Spec.with_drops ~tokens:true ~prob:0.02 Fault.Spec.default)
  in
  let crashes = ref 0 and recreations = ref 0 in
  for seed = 1 to 5 do
    let o =
      Fault.Torture.run recovering (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed
    in
    (match Fault.Torture.verdict o with
    | Fault.Torture.Clean -> ()
    | v ->
      Alcotest.failf "seed %d: expected survival, got %a" seed Fault.Torture.pp_verdict v);
    Alcotest.(check bool) "all requests retired" true o.Fault.Torture.completed;
    match o.Fault.Torture.recovered with
    | None -> Alcotest.fail "recovery stats missing"
    | Some rs ->
      crashes := !crashes + rs.Token.Protocol.rs_crashes;
      recreations := !recreations + rs.Token.Protocol.rs_recreations
  done;
  Alcotest.(check bool) "crashes actually fired" true (!crashes > 0);
  Alcotest.(check bool) "lost tokens were recreated" true (!recreations > 0)

(* A miss that waited out a crash or a token recreation must not feed
   the miss-latency average the transient-request timeout doubles.
   Averaged in, it took the memory-miss average from 200 ns to 29-48 us
   in these four dst4 runs, so an L1 MSHR two retries in waited roughly
   100-270 us for its next reissue, and each run ended LIVELOCK. *)
let test_recovery_delayed_misses_keep_timeout () =
  let spec =
    Fault.Spec.with_crashes ~count:2
      (Fault.Spec.with_drops ~tokens:true ~prob:0.01 Fault.Spec.default)
  in
  List.iter
    (fun seed ->
      let o =
        Fault.Torture.run recovering (Fault.Torture.Token Token.Policy.dst4) ~spec ~seed
      in
      match Fault.Torture.verdict o with
      | Fault.Torture.Clean -> ()
      | v -> Alcotest.failf "seed %d: expected clean, got %a" seed Fault.Torture.pp_verdict v)
    [ 1; 207; 219; 240 ]

(* Profiler satellite: span accounting must stay exact under the full
   recovery torture (drops + retransmissions + crash/restart). With a
   wrap-proof ring, every miss-latency sample has a span or is counted
   in dropped_spans, and crash-interrupted transactions show up as
   incomplete spans — never as silently lost samples. *)
let test_span_reconciliation_under_faults () =
  let spec =
    Fault.Spec.with_crashes ~count:2
      (Fault.Spec.with_drops ~tokens:true ~prob:0.03 Fault.Spec.default)
  in
  for seed = 1 to 4 do
    let o =
      Fault.Torture.run
        { recovering with Fault.Torture.p_trace_capacity = 2_000_000 }
        (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed
    in
    (match Fault.Torture.verdict o with
    | Fault.Torture.Clean -> ()
    | v ->
      Alcotest.failf "seed %d: expected survival, got %a" seed Fault.Torture.pp_verdict v);
    let s = o.Fault.Torture.spans in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every latency sample has a span" seed)
      o.Fault.Torture.misses
      (s.Obs.Span.spans + s.Obs.Span.dropped_spans);
    (* A wrap-proof ring re-announces every restart, so nothing should
       be dropped at all; interrupted transactions are incomplete. *)
    Alcotest.(check int)
      (Printf.sprintf "seed %d: wrap-proof ring drops nothing" seed)
      0 s.Obs.Span.dropped_spans
  done;
  (* With a tiny ring the same run wraps: most samples fall outside
     the retained window, and the accounting must say so (spans plus
     counted drops short of the miss total) rather than pretend the
     window was complete. *)
  let o =
    Fault.Torture.run
      { recovering with Fault.Torture.p_trace_capacity = 64 }
      (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed:1
  in
  let s = o.Fault.Torture.spans in
  Alcotest.(check bool) "wrapped ring accounts for fewer samples" true
    (s.Obs.Span.spans + s.Obs.Span.dropped_spans < o.Fault.Torture.misses)

(* Retransmit-cap exhaustion must surface as a structured report, never
   an exception: at drop probability 1.0 no frame ever gets through, the
   transport gives up after its cap and the run fails cleanly. *)
let test_retransmit_exhaustion_structured () =
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:1.0 Fault.Spec.none in
  let o =
    Fault.Torture.run
      { recovering with
        Fault.Torture.p_no_progress_windows = 1_000;
        p_starvation_bound = ns 50_000_000
      }
      (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed:5
  in
  Alcotest.(check bool) "did not complete" false o.Fault.Torture.completed;
  Alcotest.(check bool) "exhaustion reported" true
    (List.exists
       (fun r ->
         match r.Fault.Report.kind with
         | Fault.Report.Retransmit_exhausted _ -> true
         | _ -> false)
       o.Fault.Torture.reports);
  match Fault.Torture.verdict o with
  | Fault.Torture.Failed _ -> ()
  | v -> Alcotest.failf "expected a failed verdict, got %a" Fault.Torture.pp_verdict v

(* Recovery campaign smoke: every token policy survives a randomized
   drop+crash storm. *)
let test_recovery_campaign () =
  let outcomes =
    Fault.Torture.campaign ~params:recovering ~runs:16 ~targets:Fault.Torture.token_targets
      ~seed:4711 ()
  in
  Alcotest.(check int) "ran all 16" 16 (List.length outcomes);
  List.iter check_clean outcomes;
  Alcotest.(check bool) "directory targets rejected" true
    (match
       Fault.Torture.campaign ~params:recovering ~runs:1
         ~targets:[ Fault.Torture.Directory { dram_directory = true } ]
         ~seed:1 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A fault-free torture run is the runner's run plus monitor and
   watchdog ticks: same machine, workload and seed, so the same ops,
   finish time and retired misses. Only the event count differs. *)
let test_torture_runs_the_runner_machine () =
  let nprocs = Mcmp.Config.nprocs Mcmp.Config.tiny in
  let lcfg =
    { (Workload.Locking.default ~nlocks:4) with
      Workload.Locking.acquires = 30;
      warmup_acquires = 5 }
  in
  List.iter
    (fun (target, builder) ->
      List.iter
        (fun seed ->
          let o = Fault.Torture.run plain target ~spec:Fault.Spec.none ~seed in
          let r =
            Mcmp.Runner.run ~config:Mcmp.Config.tiny builder
              ~programs:(Workload.Locking.programs lcfg ~seed ~nprocs)
              ~seed
          in
          let label what =
            Printf.sprintf "%s seed %d %s" (Fault.Torture.target_name target) seed what
          in
          Alcotest.(check int) (label "ops") r.Mcmp.Runner.ops o.Fault.Torture.ops;
          Alcotest.(check int) (label "finish time") r.Mcmp.Runner.total_runtime
            o.Fault.Torture.runtime;
          Alcotest.(check int) (label "retired misses")
            (Sim.Stat.Welford.count r.Mcmp.Runner.counters.Mcmp.Counters.miss_latency)
            o.Fault.Torture.misses;
          Alcotest.(check bool) (label "monitor and watchdog ticks") true
            (o.Fault.Torture.events > r.Mcmp.Runner.events))
        [ 1; 5; 9 ])
    [
      (Fault.Torture.Token Token.Policy.dst1, Token.Protocol.builder Token.Policy.dst1);
      (Fault.Torture.Token Token.Policy.arb0, Token.Protocol.builder Token.Policy.arb0);
      ( Fault.Torture.Directory { dram_directory = true },
        Directory.Protocol.builder ~dram_directory:true () );
    ]

(* Both protocols register their outstanding-miss gauge from their one
   constructor, so torture gauges carry it for either. *)
let test_outstanding_misses_gauge () =
  List.iter
    (fun (target, gauge) ->
      let o = Fault.Torture.run plain target ~spec:Fault.Spec.none ~seed:1 in
      Alcotest.(check bool)
        (Fault.Torture.target_name target ^ " gauges carry " ^ gauge)
        true
        (List.mem_assoc gauge o.Fault.Torture.gauges))
    [
      (Fault.Torture.Token Token.Policy.dst1, "token.outstanding_misses");
      (Fault.Torture.Directory { dram_directory = true }, "directory.outstanding_misses");
    ]

(* The recovery stack's exact outputs: four seed-1 runs covering the
   transport with duplicate absorption and crashes, the transport
   through flaps around a cut and through a lossy burst, and
   retransmit exhaustion in a 400 us cut. *)
let test_recovery_stack_pinned () =
  let us = Sim.Time.us and dst1 = Fault.Torture.Token Token.Policy.dst1 in
  let run ?chaos target spec =
    Fault.Torture.run { recovering with Fault.Torture.p_chaos = chaos } target ~spec ~seed:1
  in
  let pinned name o ~verdict ~ops ~events ~runtime ~retransmits gauges =
    let check what = Alcotest.(check int) (name ^ ": " ^ what) in
    Alcotest.(check string) (name ^ ": verdict") verdict
      (Format.asprintf "%a" Fault.Torture.pp_verdict (Fault.Torture.verdict o));
    check "ops" ops o.Fault.Torture.ops;
    check "events" events o.Fault.Torture.events;
    check "runtime (ps)" runtime o.Fault.Torture.runtime;
    check "retransmits" retransmits o.Fault.Torture.retransmits;
    List.iter
      (fun (k, v) ->
        let got =
          match List.assoc_opt k o.Fault.Torture.gauges with
          | Some f -> f
          | None -> Alcotest.failf "%s: no gauge %s" name k
        in
        Alcotest.(check (float 1e-9)) (name ^ ": " ^ k) v got)
      gauges
  in
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.02 Fault.Spec.default in
  pinned "drops and crashes"
    (run dst1 (Fault.Spec.with_crashes ~count:2 spec))
    ~verdict:"clean" ~ops:420 ~events:4588 ~runtime:17_329_893 ~retransmits:17
    [ ("fabric.dups_absorbed", 19.) ];
  pinned "flaps around a cut"
    (run ~chaos:(Fault.Chaos.flaky () @ Fault.Chaos.split ~duration:(us 25) ()) dst1
       Fault.Spec.default)
    ~verdict:"survived-partition" ~ops:420 ~events:4748 ~runtime:39_586_620 ~retransmits:812
    [ ("fabric.dups_absorbed", 17.) ];
  pinned "lossy burst"
    (run ~chaos:(Fault.Chaos.burst_loss ()) (Fault.Torture.Token Token.Policy.arb0)
       (Fault.Spec.with_drops ~tokens:false ~prob:0.05 Fault.Spec.default))
    ~verdict:"clean" ~ops:420 ~events:7228 ~runtime:17_702_903 ~retransmits:84
    [ ("fabric.dropped", 84.) ];
  pinned "400 us cut"
    (run ~chaos:(Fault.Chaos.split ~duration:(us 400) ()) dst1 Fault.Spec.none)
    ~verdict:"FAILED: transport gave up inside the partition" ~ops:319 ~events:16423
    ~runtime:312_405_365 ~retransmits:12615
    [ ("fabric.retrans_exhausted", 1.); ("fabric.dropped", 12616.) ]

let tests =
  [
    Alcotest.test_case "spec modes" `Quick test_spec_modes;
    Alcotest.test_case "plans are seed-deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "plan class gating" `Quick test_plan_class_gating;
    QCheck_alcotest.to_alcotest prop_plan_modes_one_rule;
    Alcotest.test_case "violation fields" `Quick test_violation_fields;
    Alcotest.test_case "report severity" `Quick test_report_severity;
    Alcotest.test_case "clean fixed-seed campaign, all targets" `Slow test_campaign_clean;
    Alcotest.test_case "token drop detected with seed and trace" `Slow
      test_token_drop_detected;
    Alcotest.test_case "token-minting duplicate caught by monitor" `Slow
      test_token_mint_caught;
    Alcotest.test_case "dst1-mcast fallback under delay spikes" `Slow
      test_mcast_fallback_under_spikes;
    Alcotest.test_case "timeout_all_responses under delay spikes" `Slow
      test_timeout_all_responses_under_spikes;
    Alcotest.test_case "recovery flag leaves plan rng untouched" `Quick
      test_plan_rng_identical_with_recovery;
    Alcotest.test_case "watchdog margin covers worst-case recovery" `Quick
      test_watchdog_margin_covers_recreation;
    Alcotest.test_case "recovery survives token drops" `Slow
      test_recovery_survives_token_drops;
    Alcotest.test_case "crash/restart retires all requests" `Slow
      test_recovery_crash_restart_retires;
    Alcotest.test_case "recovery-delayed misses keep the reissue timeout" `Slow
      test_recovery_delayed_misses_keep_timeout;
    Alcotest.test_case "span reconciliation under recovery torture" `Slow
      test_span_reconciliation_under_faults;
    Alcotest.test_case "retransmit exhaustion is a structured report" `Slow
      test_retransmit_exhaustion_structured;
    Alcotest.test_case "recovery stack outputs are pinned" `Slow test_recovery_stack_pinned;
    Alcotest.test_case "recovery campaign, all token targets" `Slow
      test_recovery_campaign;
    Alcotest.test_case "torture runs the runner's machine" `Quick
      test_torture_runs_the_runner_machine;
    Alcotest.test_case "outstanding-miss gauge on both protocols" `Quick
      test_outstanding_misses_gauge;
  ]
