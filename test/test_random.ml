(* Property tests driving randomly generated programs through the full
   protocols: every run must complete, and the token substrate must
   conserve tokens at quiescence. *)

let tiny = Mcmp.Config.tiny

(* A random straight-line program over a small address space, ending
   with Done. Values are ignored (no control dependence), so any
   interleaving is fine. *)
let random_program ops_list =
  let remaining = ref ops_list in
  Workload.Program.of_fun (fun ~last:_ ->
      match !remaining with
      | [] -> Workload.Program.Done
      | op :: rest ->
        remaining := rest;
        op)

let gen_ops =
  let open QCheck.Gen in
  let addr = map (fun a -> 9000 + a) (int_range 0 15) in
  let op =
    frequency
      [
        (4, map (fun a -> Workload.Program.Load (Workload.Program.block_loc a)) addr);
        (3, map (fun a -> Workload.Program.Store (Workload.Program.block_loc a, 1)) addr);
        (2, map (fun a -> Workload.Program.Rmw (Workload.Program.block_loc a, fun v -> v + 1)) addr);
        (1, map (fun a -> Workload.Program.Ifetch a) addr);
        (1, map (fun d -> Workload.Program.Think (Sim.Time.ns d)) (int_range 0 20));
      ]
  in
  list_size (int_range 1 60) op

let arb_ops = QCheck.make gen_ops

let run_programs_values builder per_proc_ops ~seed =
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let counters = Mcmp.Counters.create () in
  let values = Mcmp.Values.create () in
  let handle = builder engine tiny traffic (Sim.Rng.create seed) counters in
  let nprocs = Mcmp.Config.nprocs tiny in
  let remaining = ref nprocs in
  let cores =
    List.init nprocs (fun proc ->
        Mcmp.Core.create engine values handle counters ~proc
          ~program:(random_program per_proc_ops)
          ~on_done:(fun ~proc:_ -> decr remaining))
  in
  List.iter Mcmp.Core.start cores;
  Sim.Engine.run ~max_events:20_000_000 engine;
  (!remaining, engine, values)

let run_programs builder per_proc_ops ~seed =
  let remaining, engine, _ = run_programs_values builder per_proc_ops ~seed in
  (remaining, engine)

let prop_token_random =
  QCheck.Test.make ~name:"random programs complete on TokenCMP with conservation" ~count:25
    arb_ops
    (fun ops ->
      let engine = Sim.Engine.create () in
      let traffic = Interconnect.Traffic.create () in
      let counters = Mcmp.Counters.create () in
      let values = Mcmp.Values.create () in
      let { Token.Protocol.i_handle = handle; i_debug = debug; _ } =
        Token.Protocol.create_instrumented Token.Policy.dst1 engine tiny traffic
          (Sim.Rng.create 17) counters
      in
      let nprocs = Mcmp.Config.nprocs tiny in
      let remaining = ref nprocs in
      let cores =
        List.init nprocs (fun proc ->
            Mcmp.Core.create engine values handle counters ~proc
              ~program:(random_program ops)
              ~on_done:(fun ~proc:_ -> decr remaining))
      in
      List.iter Mcmp.Core.start cores;
      Sim.Engine.run ~max_events:20_000_000 engine;
      !remaining = 0
      && List.for_all
           (fun a ->
             debug.Token.Protocol.token_count a + debug.Token.Protocol.inflight_count a
             = debug.Token.Protocol.total_tokens
             && debug.Token.Protocol.inflight_count a = 0)
           (List.init 16 (fun i -> 9000 + i)))

let prop_directory_random =
  QCheck.Test.make ~name:"random programs complete on DirectoryCMP" ~count:25 arb_ops
    (fun ops ->
      let remaining, _ =
        run_programs (Directory.Protocol.builder ~dram_directory:true ()) ops ~seed:23
      in
      remaining = 0)

let prop_arb0_random =
  QCheck.Test.make ~name:"random programs complete on TokenCMP-arb0" ~count:15 arb_ops
    (fun ops ->
      let remaining, _ = run_programs (Token.Protocol.builder Token.Policy.arb0) ops ~seed:29 in
      remaining = 0)

let prop_mcast_random =
  QCheck.Test.make ~name:"random programs complete on TokenCMP-dst1-mcast" ~count:15 arb_ops
    (fun ops ->
      let remaining, _ =
        run_programs (Token.Protocol.builder Token.Policy.dst1_mcast) ops ~seed:31
      in
      remaining = 0)

(* Differential oracle: the same program under PerfectL2, token dst1
   and DirectoryCMP must leave identical final memory values. The
   generated updates are commutative (Rmw increments only, no plain
   stores), so the final value per variable is independent of how a
   protocol's timing interleaves the cores: every deviation is a lost
   or double-applied update, not a legal reordering. Since each of the
   [nprocs] cores runs the same op list, the expected final value is
   also known in closed form: nprocs * (rmw ops on that variable). *)
let oracle_addrs = List.init 16 (fun i -> 9000 + i)

let gen_commutative_ops =
  let open QCheck.Gen in
  let addr = map (fun a -> 9000 + a) (int_range 0 15) in
  let op =
    frequency
      [
        (4, map (fun a -> Workload.Program.Load (Workload.Program.block_loc a)) addr);
        (4, map (fun a -> Workload.Program.Rmw (Workload.Program.block_loc a, fun v -> v + 1)) addr);
        (1, map (fun a -> Workload.Program.Ifetch a) addr);
        (1, map (fun d -> Workload.Program.Think (Sim.Time.ns d)) (int_range 0 20));
      ]
  in
  list_size (int_range 1 60) op

let prop_differential_values =
  QCheck.Test.make ~name:"perfect/token/directory agree on final memory values" ~count:10
    (QCheck.make gen_commutative_ops)
    (fun ops ->
      let rmws addr =
        List.length
          (List.filter
             (function
               | Workload.Program.Rmw (loc, _) -> loc.Workload.Program.var = addr
               | _ -> false)
             ops)
      in
      let nprocs = Mcmp.Config.nprocs tiny in
      let run builder seed =
        let remaining, _, values = run_programs_values builder ops ~seed in
        if remaining <> 0 then None else Some values
      in
      match
        ( run Perfect.Protocol.builder 41,
          run (Token.Protocol.builder Token.Policy.dst1) 43,
          run (Directory.Protocol.builder ~dram_directory:true ()) 47 )
      with
      | Some perfect, Some token, Some directory ->
        List.for_all
          (fun addr ->
            let expected = nprocs * rmws addr in
            Mcmp.Values.get perfect addr = expected
            && Mcmp.Values.get token addr = expected
            && Mcmp.Values.get directory addr = expected)
          oracle_addrs
      | _ -> false)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_token_random;
    QCheck_alcotest.to_alcotest prop_directory_random;
    QCheck_alcotest.to_alcotest prop_arb0_random;
    QCheck_alcotest.to_alcotest prop_mcast_random;
    QCheck_alcotest.to_alcotest prop_differential_values;
  ]
