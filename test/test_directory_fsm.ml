(* Transaction-level tests of DirectoryCMP: drive individual accesses
   through the protocol and check the observable outcomes (hit/miss
   counts, fill origins, indirections) for the canonical MOESI flows. *)

let tiny = Mcmp.Config.tiny

type rig = {
  engine : Sim.Engine.t;
  counters : Mcmp.Counters.t;
  handle : Mcmp.Protocol.handle;
  dump : Format.formatter -> unit -> unit;
}

let make_rig ?(config = tiny) () =
  let engine = Sim.Engine.create () in
  let counters = Mcmp.Counters.create () in
  let { Directory.Protocol.i_handle = handle; i_dump = dump; _ } =
    Directory.Protocol.create_instrumented ~dram_directory:true () engine config
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 99) counters
  in
  { engine; counters; handle; dump }

let mig_off = { tiny with Mcmp.Config.migratory = false }

(* Run one access to completion; returns simulated latency in ns. *)
let access rig ~proc ~kind addr =
  let t0 = Sim.Engine.now rig.engine in
  let done_ = ref false in
  rig.handle.Mcmp.Protocol.access ~proc ~kind addr ~commit:(fun () -> done_ := true);
  Sim.Engine.run ~max_events:1_000_000 rig.engine;
  if not !done_ then begin
    rig.dump Format.str_formatter ();
    Alcotest.failf "access did not complete; state:\n%s" (Format.flush_str_formatter ())
  end;
  Sim.Time.to_ns (Sim.Engine.now rig.engine - t0)

(* In the tiny config: procs 0,1 on chip 0; procs 2,3 on chip 1. *)
let block = 5000

let test_cold_read_from_memory () =
  let rig = make_rig () in
  let lat = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check int) "one miss" 1 rig.counters.Mcmp.Counters.l1_misses;
  Alcotest.(check int) "filled from memory" 1 rig.counters.Mcmp.Counters.mem_fills;
  (* request rides to the home and back with a DRAM access in between *)
  Alcotest.(check bool) "cold latency >= DRAM" true (lat >= 80.)

let test_read_then_read_hits () =
  let rig = make_rig () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  let lat = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check int) "second read hits" 1 rig.counters.Mcmp.Counters.l1_hits;
  Alcotest.(check (float 0.01)) "L1 hit latency" 2. lat

let test_cold_read_grants_exclusive () =
  (* E grant on an uncached read: the following write hits silently *)
  let rig = make_rig () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  Alcotest.(check int) "write hit after E grant" 1 rig.counters.Mcmp.Counters.l1_hits;
  Alcotest.(check int) "single miss total" 1 rig.counters.Mcmp.Counters.l1_misses

let test_remote_dirty_read_indirects () =
  let rig = make_rig () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  let before = rig.counters.Mcmp.Counters.dir_indirections in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check int) "3-hop through the owner chip" (before + 1)
    rig.counters.Mcmp.Counters.dir_indirections;
  Alcotest.(check int) "filled from the remote chip" 1
    rig.counters.Mcmp.Counters.remote_fills

let test_migratory_read_takes_ownership () =
  (* with migratory sharing, the reader of modified data gets M and can
     write without another miss *)
  let rig = make_rig () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Read block in
  let misses = rig.counters.Mcmp.Counters.l1_misses in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Write block in
  Alcotest.(check int) "migratory write hits" misses rig.counters.Mcmp.Counters.l1_misses

let test_nonmigratory_read_shares () =
  let rig = make_rig ~config:mig_off () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Read block in
  let misses = rig.counters.Mcmp.Counters.l1_misses in
  (* the writer kept ownership (O); the reader's upgrade must miss *)
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Write block in
  Alcotest.(check int) "upgrade misses without migratory" (misses + 1)
    rig.counters.Mcmp.Counters.l1_misses

let test_write_invalidates_sharers () =
  let rig = make_rig ~config:mig_off () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  let _ = access rig ~proc:1 ~kind:Mcmp.Protocol.Read block in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Read block in
  let _ = access rig ~proc:3 ~kind:Mcmp.Protocol.Write block in
  let misses = rig.counters.Mcmp.Counters.l1_misses in
  (* all readers lost their copies *)
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  let _ = access rig ~proc:1 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check int) "both re-miss" (misses + 2) rig.counters.Mcmp.Counters.l1_misses

let test_sibling_read_through_l2 () =
  (* chip-internal sharing never leaves the chip *)
  let rig = make_rig ~config:mig_off () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  let indirections = rig.counters.Mcmp.Counters.dir_indirections in
  let _ = access rig ~proc:1 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check int) "no home involvement" indirections
    rig.counters.Mcmp.Counters.dir_indirections;
  Alcotest.(check int) "local fill" 1 rig.counters.Mcmp.Counters.l2_local_fills

let test_capacity_eviction_roundtrip () =
  (* write a block, push it out of the 16-set x 2-way tiny L1 with
     conflicting blocks, then read it back: the dirty data must survive
     the three-phase writeback through the L2 *)
  let rig = make_rig () in
  let conflict i = block + (i * 16) (* same set *) in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write block in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write (conflict 1) in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Write (conflict 2) in
  Alcotest.(check bool) "writeback happened" true
    (rig.counters.Mcmp.Counters.writebacks >= 1);
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Read block in
  Alcotest.(check bool) "refilled locally (L2 has the dirty data)" true
    (rig.counters.Mcmp.Counters.l2_local_fills >= 1)

let test_ifetch_shares_code () =
  let rig = make_rig () in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Ifetch block in
  let _ = access rig ~proc:2 ~kind:Mcmp.Protocol.Ifetch block in
  let _ = access rig ~proc:0 ~kind:Mcmp.Protocol.Ifetch block in
  Alcotest.(check int) "instruction block shared read-only" 1
    rig.counters.Mcmp.Counters.l1_hits

(* The home must not stall behind a deferred writeback request that
   turns into a cancel. Messages go straight to the home controller:
   chip 1's GetM makes it busy, chip 0's stale WbReq and then its GetS
   queue behind it, and chip 1's unblock frees it. The WbReq is
   cancelled (chip 1 owns the block now), which leaves the home idle,
   so the GetS must start at once and be forwarded to chip 1. *)
let test_home_drains_past_cancelled_writeback () =
  let engine = Sim.Engine.create () in
  let i =
    Directory.Protocol.create_instrumented ~dram_directory:true () engine tiny
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 99) (Mcmp.Counters.create ())
  in
  let fabric = i.Directory.Protocol.i_fabric in
  let layout = Mcmp.Config.layout tiny in
  let module L = Interconnect.Layout in
  let l2 cmp = L.l2 layout ~cmp ~bank:(Cache.Addr.l2_bank ~nbanks:tiny.Mcmp.Config.l2_banks block) in
  let home = L.mem layout ~cmp:(Cache.Addr.home_cmp ~ncmp:tiny.Mcmp.Config.ncmp block) in
  let forwarded = ref false in
  Interconnect.Fabric.set_fault_injector fabric (fun ~now:_ ~src:_ ~dst ~cls:_ ~arrive:_ msg ->
      (match msg with
      | Directory.Msg.C_fwd_gets { requester_l2; _ } when dst = l2 1 && requester_l2 = l2 0 ->
        forwarded := true
      | _ -> ());
      Interconnect.Fabric.Pass);
  let to_home ~src msg =
    Interconnect.Fabric.send_one fabric ~src ~dst:home ~cls:Interconnect.Msg_class.Request
      ~bytes:8 msg;
    Sim.Engine.run ~max_events:100_000 engine
  in
  let addr = block in
  to_home ~src:(l2 1) (Directory.Msg.C_getm { addr; l2 = l2 1 });
  to_home ~src:(l2 0)
    (Directory.Msg.C_wb_req { addr; cmp = 0; l2 = l2 0; dirty = true; still_shared = false });
  to_home ~src:(l2 0) (Directory.Msg.C_gets { addr; l2 = l2 0 });
  to_home ~src:(l2 1) (Directory.Msg.C_unblock { addr; cmp = 1; excl = true; shared = false });
  if not !forwarded then begin
    i.Directory.Protocol.i_dump Format.str_formatter ();
    Alcotest.failf "GetS not forwarded to the owner chip; state:\n%s"
      (Format.flush_str_formatter ())
  end

let tests =
  [
    Alcotest.test_case "cold read fills from memory" `Quick test_cold_read_from_memory;
    Alcotest.test_case "read-after-read hits" `Quick test_read_then_read_hits;
    Alcotest.test_case "uncached read grants E" `Quick test_cold_read_grants_exclusive;
    Alcotest.test_case "remote dirty read is 3-hop" `Quick test_remote_dirty_read_indirects;
    Alcotest.test_case "migratory read takes ownership" `Quick
      test_migratory_read_takes_ownership;
    Alcotest.test_case "non-migratory read shares (O state)" `Quick
      test_nonmigratory_read_shares;
    Alcotest.test_case "write invalidates all sharers" `Quick test_write_invalidates_sharers;
    Alcotest.test_case "sibling read stays on chip" `Quick test_sibling_read_through_l2;
    Alcotest.test_case "dirty data survives eviction" `Quick test_capacity_eviction_roundtrip;
    Alcotest.test_case "instruction fetches share" `Quick test_ifetch_shares_code;
    Alcotest.test_case "home drains past a cancelled writeback" `Quick
      test_home_drains_past_cancelled_writeback;
  ]
