(* DirectoryCMP: completion, correctness, hierarchy behaviour. *)

let tiny = Mcmp.Config.tiny

let lock_cfg ~nlocks ~acquires =
  { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires; warmup_acquires = 5 }

let mig_off = { tiny with Mcmp.Config.migratory = false }

let run_locking ?(config = tiny) ?(dram = true) ~nlocks ~acquires ~seed () =
  let cfg = lock_cfg ~nlocks ~acquires in
  let programs = Workload.Locking.programs cfg ~seed ~nprocs:(Mcmp.Config.nprocs config) in
  let builder = Directory.Protocol.builder ~dram_directory:dram () in
  (Mcmp.Runner.run ~config builder ~programs ~seed, cfg)

let test_completes () =
  let r, _ = run_locking ~nlocks:4 ~acquires:20 ~seed:1 () in
  Alcotest.(check bool) "completes" true r.Mcmp.Runner.completed;
  Alcotest.(check int) "no persistent machinery" 0
    r.Mcmp.Runner.counters.Mcmp.Counters.persistent_requests

let test_zero_directory_not_slower () =
  let r_dram, _ = run_locking ~dram:true ~nlocks:8 ~acquires:25 ~seed:2 () in
  let r_zero, _ = run_locking ~dram:false ~nlocks:8 ~acquires:25 ~seed:2 () in
  Alcotest.(check bool) "zero-cycle directory is faster" true
    (r_zero.Mcmp.Runner.runtime <= r_dram.Mcmp.Runner.runtime)

let test_indirections_counted () =
  (* Random lock handoffs across chips force 3-hop transactions. *)
  let r, _ = run_locking ~nlocks:16 ~acquires:25 ~seed:3 () in
  Alcotest.(check bool) "indirections observed" true
    (r.Mcmp.Runner.counters.Mcmp.Counters.dir_indirections > 0)

let test_migratory_off_completes () =
  let r, _ = run_locking ~config:mig_off ~nlocks:4 ~acquires:15 ~seed:4 () in
  Alcotest.(check bool) "completes" true r.Mcmp.Runner.completed

let test_migratory_reduces_misses () =
  (* With migratory sharing, the read->t&s pair costs one miss instead
     of two, so the migratory run misses less. *)
  let r_mig, _ = run_locking ~nlocks:32 ~acquires:25 ~seed:5 () in
  let r_no, _ = run_locking ~config:mig_off ~nlocks:32 ~acquires:25 ~seed:5 () in
  Alcotest.(check bool) "fewer misses with migratory" true
    (r_mig.Mcmp.Runner.counters.Mcmp.Counters.l1_misses
    <= r_no.Mcmp.Runner.counters.Mcmp.Counters.l1_misses)

let test_lock_values () =
  let config = tiny in
  let cfg = lock_cfg ~nlocks:2 ~acquires:25 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let counters = Mcmp.Counters.create () in
  let handle =
    Directory.Protocol.builder ~dram_directory:true () engine config traffic
      (Sim.Rng.create 6) counters
  in
  let values = Mcmp.Values.create () in
  let nprocs = Mcmp.Config.nprocs config in
  let remaining = ref nprocs in
  let programs = Workload.Locking.programs cfg ~seed:6 ~nprocs in
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

let test_unblock_traffic_exists () =
  let r, _ = run_locking ~nlocks:8 ~acquires:20 ~seed:7 () in
  let t = r.Mcmp.Runner.traffic in
  Alcotest.(check bool) "unblock messages counted" true
    (Interconnect.Traffic.intra_bytes t Interconnect.Msg_class.Unblock > 0);
  Alcotest.(check bool) "inter requests counted" true
    (Interconnect.Traffic.inter_bytes t Interconnect.Msg_class.Request > 0)

let test_writebacks_on_capacity () =
  (* A working set much larger than the tiny L1 forces evictions of
     dirty blocks, exercising the three-phase writeback path. *)
  let profile =
    { Workload.Commercial.oltp with
      Workload.Commercial.ops = 600;
      warmup_ops = 100;
      private_blocks = 4096;
      p_shared = 0.2;
      p_write = 0.8 }
  in
  let programs ~proc = Workload.Commercial.program profile ~seed:8 ~proc in
  let r =
    Mcmp.Runner.run ~config:tiny (Directory.Protocol.builder ~dram_directory:true ()) ~programs
      ~seed:8
  in
  Alcotest.(check bool) "completes" true r.Mcmp.Runner.completed;
  Alcotest.(check bool) "writebacks happened" true
    (r.Mcmp.Runner.counters.Mcmp.Counters.writebacks > 0);
  Alcotest.(check bool) "writeback data bytes counted" true
    (Interconnect.Traffic.intra_bytes r.Mcmp.Runner.traffic
       Interconnect.Msg_class.Writeback_data
    > 0)

let test_names () =
  Alcotest.(check string) "dram name" "DirectoryCMP" (Directory.Protocol.name ~dram_directory:true);
  Alcotest.(check string) "zero name" "DirectoryCMP-zero"
    (Directory.Protocol.name ~dram_directory:false)

let tests =
  [
    Alcotest.test_case "locking completes" `Quick test_completes;
    Alcotest.test_case "zero-cycle directory is faster" `Quick test_zero_directory_not_slower;
    Alcotest.test_case "3-hop indirections counted" `Quick test_indirections_counted;
    Alcotest.test_case "migratory off completes" `Quick test_migratory_off_completes;
    Alcotest.test_case "migratory reduces misses" `Quick test_migratory_reduces_misses;
    Alcotest.test_case "lock values correct" `Quick test_lock_values;
    Alcotest.test_case "unblock/request traffic classes" `Quick test_unblock_traffic_exists;
    Alcotest.test_case "three-phase writebacks under capacity pressure" `Slow
      test_writebacks_on_capacity;
    Alcotest.test_case "variant names" `Quick test_names;
  ]
