(* The TokenCMP protocol: completion, safety invariants, persistent
   request behaviour and the policy/predictor building blocks. *)

let tiny = Mcmp.Config.tiny

let lock_cfg ~nlocks ~acquires =
  { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires; warmup_acquires = 5 }

let run_locking ?(config = tiny) policy ~nlocks ~acquires ~seed =
  let cfg = lock_cfg ~nlocks ~acquires in
  let programs = Workload.Locking.programs cfg ~seed ~nprocs:(Mcmp.Config.nprocs config) in
  Mcmp.Runner.run ~config (Token.Protocol.builder policy) ~programs ~seed

let test_policies_complete () =
  List.iter
    (fun policy ->
      let r = run_locking policy ~nlocks:4 ~acquires:15 ~seed:1 in
      Alcotest.(check bool) (policy.Token.Policy.name ^ " completes") true
        r.Mcmp.Runner.completed;
      Alcotest.(check bool) "did work" true (r.Mcmp.Runner.ops > 0))
    Token.Policy.all

let test_persistent_only_variants () =
  List.iter
    (fun policy ->
      let r = run_locking policy ~nlocks:4 ~acquires:10 ~seed:2 in
      let c = r.Mcmp.Runner.counters in
      Alcotest.(check int)
        (policy.Token.Policy.name ^ " persistent = misses")
        c.Mcmp.Counters.l1_misses c.Mcmp.Counters.persistent_requests;
      Alcotest.(check int) "no transient retries" 0 c.Mcmp.Counters.transient_retries)
    [ Token.Policy.arb0; Token.Policy.dst0 ]

let test_dst1_rarely_persistent_uncontended () =
  let r = run_locking Token.Policy.dst1 ~nlocks:64 ~acquires:20 ~seed:3 in
  let c = r.Mcmp.Runner.counters in
  Alcotest.(check bool) "persistent fraction small" true
    (Mcmp.Counters.persistent_fraction c < 0.2)

(* Token conservation checked during and after a contended run. *)
let test_token_conservation () =
  let config = tiny in
  let cfg = lock_cfg ~nlocks:2 ~acquires:20 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let counters = Mcmp.Counters.create () in
  let { Token.Protocol.i_handle = handle; i_debug = debug; _ } =
    Token.Protocol.create_instrumented Token.Policy.dst1 engine config traffic
      (Sim.Rng.create 7) counters
  in
  let values = Mcmp.Values.create () in
  let nprocs = Mcmp.Config.nprocs config in
  let remaining = ref nprocs in
  let on_done ~proc:_ = decr remaining in
  let programs = Workload.Locking.programs cfg ~seed:7 ~nprocs in
  let cores =
    List.init nprocs (fun proc ->
        Mcmp.Core.create engine values handle counters ~proc ~program:(programs ~proc) ~on_done)
  in
  List.iter Mcmp.Core.start cores;
  let violations = ref 0 in
  let check_now () =
    for i = 0 to 1 do
      let a = Workload.Locking.lock_block cfg i in
      let total = debug.Token.Protocol.token_count a + debug.Token.Protocol.inflight_count a in
      if total <> debug.Token.Protocol.total_tokens then incr violations
    done
  in
  let rec periodic () =
    check_now ();
    if !remaining > 0 then Sim.Engine.schedule_in engine (Sim.Time.ns 100) periodic
  in
  Sim.Engine.schedule_in engine (Sim.Time.ns 100) periodic;
  Sim.Engine.run ~max_events:50_000_000 engine;
  check_now ();
  Alcotest.(check int) "all procs finished" 0 !remaining;
  Alcotest.(check int) "conservation violations" 0 !violations;
  Alcotest.(check int) "no tokens in flight at quiescence" 0
    (debug.Token.Protocol.inflight_count (Workload.Locking.lock_block cfg 0));
  Alcotest.(check int) "persistent tables drained" 0 (debug.Token.Protocol.persistent_entries ())

let test_single_owner () =
  (* After a quiescent run, each touched block has exactly one owner. *)
  let config = tiny in
  let cfg = lock_cfg ~nlocks:4 ~acquires:10 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let counters = Mcmp.Counters.create () in
  let { Token.Protocol.i_handle = handle; i_debug = debug; _ } =
    Token.Protocol.create_instrumented Token.Policy.dst4 engine config traffic
      (Sim.Rng.create 9) counters
  in
  let values = Mcmp.Values.create () in
  let nprocs = Mcmp.Config.nprocs config in
  let remaining = ref nprocs in
  let programs = Workload.Locking.programs cfg ~seed:9 ~nprocs in
  let cores =
    List.init nprocs (fun proc ->
        Mcmp.Core.create engine values handle counters ~proc ~program:(programs ~proc)
          ~on_done:(fun ~proc:_ -> decr remaining))
  in
  List.iter Mcmp.Core.start cores;
  Sim.Engine.run ~max_events:50_000_000 engine;
  let layout = Mcmp.Config.layout config in
  for l = 0 to 3 do
    let a = Workload.Locking.lock_block cfg l in
    let owners =
      List.fold_left
        (fun acc id -> if debug.Token.Protocol.node_owner id a then acc + 1 else acc)
        0
        (Interconnect.Layout.all_nodes layout)
    in
    Alcotest.(check int) "one owner" 1 owners
  done

let test_values_correct_under_contention () =
  (* The release store must always observe its own lock value: after
     the run all locks read 0 (released). *)
  let config = tiny in
  let cfg = lock_cfg ~nlocks:2 ~acquires:25 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let counters = Mcmp.Counters.create () in
  let handle =
    Token.Protocol.builder Token.Policy.dst1 engine config traffic (Sim.Rng.create 4) counters
  in
  let values = Mcmp.Values.create () in
  let nprocs = Mcmp.Config.nprocs config in
  let remaining = ref nprocs in
  let programs = Workload.Locking.programs cfg ~seed:4 ~nprocs in
  let cores =
    List.init nprocs (fun proc ->
        Mcmp.Core.create engine values handle counters ~proc ~program:(programs ~proc)
          ~on_done:(fun ~proc:_ -> decr remaining))
  in
  List.iter Mcmp.Core.start cores;
  Sim.Engine.run ~max_events:50_000_000 engine;
  Alcotest.(check int) "completed" 0 !remaining;
  for l = 0 to 1 do
    Alcotest.(check int) "lock released" 0
      (Mcmp.Values.get values (Workload.Locking.lock_block cfg l))
  done

let test_policy_table () =
  Alcotest.(check int) "six variants" 6 (List.length Token.Policy.all);
  Alcotest.(check bool) "lookup" true (Token.Policy.by_name "TokenCMP-dst1" <> None);
  Alcotest.(check bool) "lookup case-insensitive" true
    (Token.Policy.by_name "tokencmp-DST4" <> None);
  Alcotest.(check bool) "flat ablation hidden from Table 1" true
    (not (List.mem Token.Policy.dst1_flat Token.Policy.all));
  match Token.Policy.by_name "TokenCMP-arb0" with
  | Some p ->
    Alcotest.(check int) "arb0 transients" 0 p.Token.Policy.transient_requests;
    Alcotest.(check bool) "arbiter activation" true (p.Token.Policy.activation = Token.Policy.Arbiter)
  | None -> Alcotest.fail "arb0 missing"

let test_predictor () =
  let p = Token.Predictor.create ~sets:4 ~ways:2 (Sim.Rng.create 1) in
  Alcotest.(check bool) "cold" false (Token.Predictor.predicts_contended p 100);
  Token.Predictor.record_retry p 100;
  Alcotest.(check bool) "one retry not enough" false (Token.Predictor.predicts_contended p 100);
  Token.Predictor.record_retry p 100;
  Alcotest.(check bool) "two retries predict" true (Token.Predictor.predicts_contended p 100);
  (* different block unaffected *)
  Alcotest.(check bool) "other block cold" false (Token.Predictor.predicts_contended p 101)

let test_mcast_extension () =
  (* the destination-set-prediction extension must stay correct, and on
     the stable producer-consumer pattern (perfectly predictable
     holders) it must cut external request traffic *)
  let wl =
    { Workload.Producer_consumer.default with
      Workload.Producer_consumer.rounds = 20;
      warmup_rounds = 3 }
  in
  let nprocs = Mcmp.Config.nprocs tiny in
  let run policy =
    let programs ~proc = Workload.Producer_consumer.programs wl ~seed:12 ~nprocs ~proc in
    Mcmp.Runner.run ~config:tiny (Token.Protocol.builder policy) ~programs ~seed:12
  in
  let r = run Token.Policy.dst1_mcast in
  Alcotest.(check bool) "mcast completes" true r.Mcmp.Runner.completed;
  let r_b = run Token.Policy.dst1 in
  let inter r = Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic in
  Alcotest.(check bool) "mcast lowers total inter-CMP bytes" true (inter r < inter r_b);
  Alcotest.(check bool) "mcast is no slower on stable sharing" true
    (r.Mcmp.Runner.runtime <= r_b.Mcmp.Runner.runtime)

let test_flat_ablation_completes () =
  let r = run_locking Token.Policy.dst1_flat ~nlocks:4 ~acquires:10 ~seed:5 in
  Alcotest.(check bool) "flat broadcast completes" true r.Mcmp.Runner.completed

let test_migratory_off_completes () =
  let config = { tiny with Mcmp.Config.migratory = false } in
  let r = run_locking ~config Token.Policy.dst1 ~nlocks:4 ~acquires:10 ~seed:6 in
  Alcotest.(check bool) "no-migratory completes" true r.Mcmp.Runner.completed

let test_filter_reduces_intra_fanout () =
  (* dst1-filt must deliver external requests to fewer L1s; measured as
     lower intra request traffic on a sharing-heavy workload. *)
  let profile =
    { Workload.Commercial.oltp with Workload.Commercial.ops = 400; warmup_ops = 100 }
  in
  let run policy seed =
    let programs ~proc = Workload.Commercial.program profile ~seed ~proc in
    Mcmp.Runner.run ~config:tiny (Token.Protocol.builder policy) ~programs ~seed
  in
  let plain = run Token.Policy.dst1 3 in
  let filt = run Token.Policy.dst1_filt 3 in
  let req t = Interconnect.Traffic.intra_bytes t.Mcmp.Runner.traffic Interconnect.Msg_class.Request in
  Alcotest.(check bool) "filter lowers intra request bytes" true (req filt <= req plain)

let tests =
  [
    Alcotest.test_case "all six policies complete" `Quick test_policies_complete;
    Alcotest.test_case "arb0/dst0 use only persistent requests" `Quick
      test_persistent_only_variants;
    Alcotest.test_case "dst1 rarely persistent uncontended" `Quick
      test_dst1_rarely_persistent_uncontended;
    Alcotest.test_case "token conservation" `Quick test_token_conservation;
    Alcotest.test_case "single owner token at quiescence" `Quick test_single_owner;
    Alcotest.test_case "lock values correct under contention" `Quick
      test_values_correct_under_contention;
    Alcotest.test_case "policy table (Table 1)" `Quick test_policy_table;
    Alcotest.test_case "contention predictor" `Quick test_predictor;
    Alcotest.test_case "flat-broadcast ablation" `Quick test_flat_ablation_completes;
    Alcotest.test_case "destination-set multicast extension" `Quick test_mcast_extension;
    Alcotest.test_case "migratory optimization off" `Quick test_migratory_off_completes;
    Alcotest.test_case "sharer filter reduces intra fan-out" `Slow
      test_filter_reduces_intra_fanout;
  ]
