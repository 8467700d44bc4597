(* Cross-protocol integration: every protocol must run every workload
   to completion with correct synchronization semantics. *)

let tiny = Mcmp.Config.tiny

let protocols =
  [
    Tokencmp.Protocols.directory;
    Tokencmp.Protocols.directory_zero;
    Tokencmp.Protocols.token Token.Policy.dst1;
    Tokencmp.Protocols.token Token.Policy.dst4;
    Tokencmp.Protocols.token Token.Policy.arb0;
    Tokencmp.Protocols.perfect;
  ]

(* Mutual-exclusion monitor: inside the critical section each processor
   writes its id into a shared variable, re-reads it after a delay and
   flags a violation if someone else got in. *)
let mutex_program ~violation ~proc ~iters =
  let lock = Workload.Program.block_loc 4096 in
  let owner_loc = Workload.Program.{ block = 4097; var = 999 } in
  let phase = ref `Start in
  let remaining = ref iters in
  let next ~last =
    match !phase with
    | `Start ->
      if !remaining = 0 then Workload.Program.Done
      else begin
        decr remaining;
        phase := `Acq (Workload.Program.Tts.start_acquire lock);
        Workload.Program.Think (Sim.Time.ns 5)
      end
    | `Acq tts -> (
      match Workload.Program.Tts.step ~spin_gap:(Sim.Time.ns 3) tts ~last with
      | Ok (op, tts') ->
        phase := `Acq tts';
        op
      | Error () ->
        phase := `Claim;
        Workload.Program.Load owner_loc)
    | `Claim ->
      if last <> 0 then violation := true;
      phase := `Wrote;
      Workload.Program.Store (owner_loc, proc + 1)
    | `Wrote ->
      phase := `Check;
      Workload.Program.Think (Sim.Time.ns 8)
    | `Check ->
      phase := `Verify;
      Workload.Program.Load owner_loc
    | `Verify ->
      if last <> proc + 1 then violation := true;
      phase := `Clear;
      Workload.Program.Store (owner_loc, 0)
    | `Clear ->
      phase := `Start;
      Workload.Program.Tts.release lock
  in
  Workload.Program.of_fun next

let test_mutual_exclusion () =
  List.iter
    (fun p ->
      let violation = ref false in
      let programs ~proc = mutex_program ~violation ~proc ~iters:15 in
      let r = Mcmp.Runner.run ~config:tiny p.Tokencmp.Protocols.builder ~programs ~seed:1 in
      Alcotest.(check bool) (p.Tokencmp.Protocols.name ^ " completes") true
        r.Mcmp.Runner.completed;
      Alcotest.(check bool)
        (p.Tokencmp.Protocols.name ^ " preserves mutual exclusion")
        false !violation)
    protocols

let test_barrier_all_protocols () =
  let nprocs = Mcmp.Config.nprocs tiny in
  let wl =
    { (Workload.Barrier.default ~nprocs) with
      Workload.Barrier.episodes = 8;
      warmup_episodes = 1 }
  in
  List.iter
    (fun p ->
      let programs ~proc = Workload.Barrier.program wl ~seed:2 ~proc in
      let r = Mcmp.Runner.run ~config:tiny p.Tokencmp.Protocols.builder ~programs ~seed:2 in
      Alcotest.(check bool) (p.Tokencmp.Protocols.name ^ " barrier completes") true
        r.Mcmp.Runner.completed)
    protocols

let test_commercial_all_protocols () =
  let profile =
    { Workload.Commercial.apache with Workload.Commercial.ops = 300; warmup_ops = 60 }
  in
  List.iter
    (fun p ->
      let programs ~proc = Workload.Commercial.program profile ~seed:3 ~proc in
      let r = Mcmp.Runner.run ~config:tiny p.Tokencmp.Protocols.builder ~programs ~seed:3 in
      Alcotest.(check bool) (p.Tokencmp.Protocols.name ^ " commercial completes") true
        r.Mcmp.Runner.completed;
      Alcotest.(check bool) "produced traffic or is perfect" true
        (p.Tokencmp.Protocols.name = "PerfectL2"
        || Interconnect.Traffic.intra_total r.Mcmp.Runner.traffic > 0))
    protocols

let test_producer_consumer_all_protocols () =
  let nprocs = Mcmp.Config.nprocs tiny in
  let wl =
    { Workload.Producer_consumer.default with
      Workload.Producer_consumer.rounds = 10;
      warmup_rounds = 1 }
  in
  List.iter
    (fun p ->
      let programs ~proc = Workload.Producer_consumer.programs wl ~seed:6 ~nprocs ~proc in
      let r = Mcmp.Runner.run ~config:tiny p.Tokencmp.Protocols.builder ~programs ~seed:6 in
      Alcotest.(check bool) (p.Tokencmp.Protocols.name ^ " prodcons completes") true
        r.Mcmp.Runner.completed)
    (Tokencmp.Protocols.token Token.Policy.dst1_mcast :: protocols)

let test_determinism () =
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 15 } in
  let nprocs = Mcmp.Config.nprocs tiny in
  let run () =
    let programs = Workload.Locking.programs wl ~seed:5 ~nprocs in
    let r =
      Mcmp.Runner.run ~config:tiny (Token.Protocol.builder Token.Policy.dst1) ~programs ~seed:5
    in
    (r.Mcmp.Runner.runtime, r.Mcmp.Runner.events, r.Mcmp.Runner.ops)
  in
  Alcotest.(check bool) "bit-identical reruns" true (run () = run ())

let test_seeds_perturb () =
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 15 } in
  let nprocs = Mcmp.Config.nprocs tiny in
  let run seed =
    let programs = Workload.Locking.programs wl ~seed ~nprocs in
    (Mcmp.Runner.run ~config:tiny (Token.Protocol.builder Token.Policy.dst1) ~programs ~seed)
      .Mcmp.Runner.runtime
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_perfect_is_lower_bound () =
  let profile =
    { Workload.Commercial.oltp with Workload.Commercial.ops = 300; warmup_ops = 60 }
  in
  let run p =
    let programs ~proc = Workload.Commercial.program profile ~seed:4 ~proc in
    (Mcmp.Runner.run ~config:tiny p.Tokencmp.Protocols.builder ~programs ~seed:4)
      .Mcmp.Runner.runtime
  in
  let perfect = run Tokencmp.Protocols.perfect in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("PerfectL2 <= " ^ p.Tokencmp.Protocols.name)
        true
        (perfect <= run p))
    [ Tokencmp.Protocols.directory; Tokencmp.Protocols.token Token.Policy.dst1 ]

let test_runner_summaries () =
  let runs =
    Tokencmp.Experiments.locking ~config:tiny ~seeds:[ 1; 2; 3 ] ~acquires:10
      ~protocols:[ Tokencmp.Protocols.token Token.Policy.dst1 ]
      ~nlocks:8 ()
  in
  let run = Tokencmp.Experiments.find runs "TokenCMP-dst1" in
  let summary = run.Tokencmp.Experiments.runtime_ns in
  Alcotest.(check bool) "every seed completed" true run.Tokencmp.Experiments.completed;
  Alcotest.(check int) "summary n" 3 summary.Sim.Stat.Summary.n;
  Alcotest.(check bool) "positive mean" true (summary.Sim.Stat.Summary.mean > 0.)

let test_experiments_api () =
  let runs =
    Tokencmp.Experiments.locking ~config:tiny ~seeds:[ 1 ] ~acquires:8
      ~protocols:[ Tokencmp.Protocols.directory; Tokencmp.Protocols.token Token.Policy.dst1 ]
      ~nlocks:4 ()
  in
  Alcotest.(check int) "two runs" 2 (List.length runs);
  let dir = Tokencmp.Experiments.find runs "DirectoryCMP" in
  Alcotest.(check bool) "completed" true dir.Tokencmp.Experiments.completed;
  let norm = Tokencmp.Experiments.normalize ~baseline:dir dir in
  Alcotest.(check (float 1e-9)) "self-normalization" 1.0 norm;
  Alcotest.(check bool) "protocol lookup" true (Tokencmp.Protocols.by_name "perfectl2" <> None);
  Alcotest.(check int) "zoo size" 9 (List.length Tokencmp.Protocols.all)

let test_config_validation () =
  (match Mcmp.Config.validate Mcmp.Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bad = { Mcmp.Config.default with Mcmp.Config.tokens = 4 } in
  Alcotest.(check bool) "too few tokens rejected" true (Mcmp.Config.validate bad <> Ok ())

(* Messages are values: a record a protocol sends never changes after
   the send, so the trace label taken when it was sent still describes
   it after the run. A buffer is attached so the fabric takes labels. *)
let test_records_are_values () =
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 10 } in
  let programs = Workload.Locking.programs wl ~seed:1 ~nprocs:(Mcmp.Config.nprocs tiny) in
  let check name label create =
    let kept = ref [] in
    let builder engine cfg traffic rng counters =
      let handle, fabric = create engine cfg traffic rng counters in
      Interconnect.Fabric.set_msg_label fabric (fun m ->
          let l = label m in
          kept := (m, l) :: !kept;
          l);
      handle
    in
    let r =
      Mcmp.Runner.run ~config:tiny ~buffer:(Obs.Buffer.create ~capacity:16 ()) builder
        ~programs ~seed:1
    in
    Alcotest.(check bool) (name ^ " completed") true r.Mcmp.Runner.completed;
    Alcotest.(check bool) (name ^ " labels taken") true (!kept <> []);
    let changed = List.filter (fun (m, l) -> label m <> l) !kept in
    Alcotest.(check int) (name ^ " records changed after send") 0 (List.length changed)
  in
  check "TokenCMP-dst1" Token.Msg.label (fun engine cfg traffic rng counters ->
      let i = Token.Protocol.create_instrumented Token.Policy.dst1 engine cfg traffic rng counters in
      (i.Token.Protocol.i_handle, i.Token.Protocol.i_fabric));
  check "DirectoryCMP" Directory.Msg.label (fun engine cfg traffic rng counters ->
      let i =
        Directory.Protocol.create_instrumented ~dram_directory:true () engine cfg traffic rng
          counters
      in
      (i.Directory.Protocol.i_handle, i.Directory.Protocol.i_fabric))

let tests =
  [
    Alcotest.test_case "mutual exclusion on all protocols" `Slow test_mutual_exclusion;
    Alcotest.test_case "barrier on all protocols" `Slow test_barrier_all_protocols;
    Alcotest.test_case "commercial on all protocols" `Slow test_commercial_all_protocols;
    Alcotest.test_case "producer-consumer on all protocols" `Slow
      test_producer_consumer_all_protocols;
    Alcotest.test_case "bit-identical reruns" `Quick test_determinism;
    Alcotest.test_case "seed perturbation" `Quick test_seeds_perturb;
    Alcotest.test_case "PerfectL2 is a lower bound" `Slow test_perfect_is_lower_bound;
    Alcotest.test_case "multi-seed summaries" `Quick test_runner_summaries;
    Alcotest.test_case "experiments facade" `Quick test_experiments_api;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "message records are values" `Quick test_records_are_values;
  ]
