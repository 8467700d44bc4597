(* Mcmp.Runner, the one run loop: how a run stops, what propagates out
   of it, and when [on_start] runs. *)

let tiny = Mcmp.Config.tiny

let programs ~seed =
  let lcfg =
    { (Workload.Locking.default ~nlocks:4) with
      Workload.Locking.acquires = 30;
      warmup_acquires = 5 }
  in
  Workload.Locking.programs lcfg ~seed ~nprocs:(Mcmp.Config.nprocs tiny)

(* A protocol whose every access raises [exn]. *)
let raising exn : Mcmp.Protocol.builder =
 fun _ _ _ _ _ ->
  { Mcmp.Protocol.name = "raising"; access = (fun ~proc:_ ~kind:_ _ ~commit:_ -> raise exn) }

let run ?(config = tiny) ?on_start builder =
  Mcmp.Runner.run ~config ?on_start builder ~programs:(programs ~seed:1) ~seed:1

let dst1 = Token.Protocol.builder Token.Policy.dst1

let test_failure_propagates () =
  match run (raising (Failure "boom")) with
  | exception Failure msg -> Alcotest.(check string) "the handler's failure" "boom" msg
  | _ -> Alcotest.fail "a handler's Failure must propagate out of Runner.run"

let test_event_cap_is_a_stop () =
  let r = run ~config:{ tiny with Mcmp.Config.max_events = 500 } dst1 in
  Alcotest.(check bool) "stop = Event_cap" true (r.Mcmp.Runner.stop = Mcmp.Runner.Event_cap);
  Alcotest.(check bool) "not completed" false r.Mcmp.Runner.completed;
  Alcotest.(check int) "cut on the first event past the cap" 501 r.Mcmp.Runner.events

(* Where runs are averaged into a figure the cap is still a failure: a
   cut-off run's clock is not a runtime. *)
let test_cap_fails_averaged_runs () =
  let capped = { tiny with Mcmp.Config.max_events = 500 } in
  (match Mcmp.Runner.uncapped (run ~config:capped dst1) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "uncapped must raise on an Event_cap stop");
  let r = run dst1 in
  Alcotest.(check bool) "a finished run passes through" true (Mcmp.Runner.uncapped r == r);
  match
    Tokencmp.Experiments.locking ~config:capped ~seeds:[ 1 ]
      ~protocols:[ Tokencmp.Protocols.token Token.Policy.dst1 ] ~nlocks:4 ()
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a locking sweep must not average a capped run"

let test_invariant_violation_propagates () =
  let v = Mcmp.Violation.make ~kind:"test" ~time:Sim.Time.zero "planted" in
  match run (raising (Mcmp.Violation.Invariant_violation v)) with
  | exception Mcmp.Violation.Invariant_violation got ->
    Alcotest.(check string) "the planted violation" "test" got.Mcmp.Violation.kind
  | _ -> Alcotest.fail "Invariant_violation must propagate out of Runner.run"

(* A protocol that never commits leaves the cores waiting on a drained
   queue: the run ends, unfinished, without raising. *)
let test_drained_queue_is_unfinished () =
  let silent : Mcmp.Protocol.builder =
   fun _ _ _ _ _ ->
    { Mcmp.Protocol.name = "silent"; access = (fun ~proc:_ ~kind:_ _ ~commit:_ -> ()) }
  in
  let r = run silent in
  Alcotest.(check bool) "stop = Unfinished" true (r.Mcmp.Runner.stop = Mcmp.Runner.Unfinished);
  Alcotest.(check int) "no op committed" 0 r.Mcmp.Runner.ops

(* [on_start] sees a built machine before any core has started, and its
   [running] predicate follows the cores to the end of the run. *)
let test_on_start () =
  let calls = ref 0 and running = ref (fun () -> false) in
  let on_start engine ~running:is_running =
    incr calls;
    Alcotest.(check int) "no event run yet" 0 (Sim.Engine.events_processed engine);
    Alcotest.(check bool) "running before the start" true (is_running ());
    running := is_running
  in
  let r = run ~on_start dst1 in
  Alcotest.(check int) "called once" 1 !calls;
  Alcotest.(check bool) "finished" true (r.Mcmp.Runner.stop = Mcmp.Runner.Finished);
  Alcotest.(check bool) "not running after the last core" false (!running ());
  let plain = run dst1 in
  Alcotest.(check int) "an idle on_start changes nothing" plain.Mcmp.Runner.events
    r.Mcmp.Runner.events

let tests =
  [
    Alcotest.test_case "a handler's Failure propagates" `Quick test_failure_propagates;
    Alcotest.test_case "the event cap is a stop, not an exception" `Quick
      test_event_cap_is_a_stop;
    Alcotest.test_case "averaged runs still fail on the cap" `Quick
      test_cap_fails_averaged_runs;
    Alcotest.test_case "Invariant_violation propagates" `Quick
      test_invariant_violation_propagates;
    Alcotest.test_case "a drained queue is an unfinished stop" `Quick
      test_drained_queue_is_unfinished;
    Alcotest.test_case "on_start runs once, before the cores" `Quick test_on_start;
  ]
