(* Golden regression snapshots: every protocol runs the same tiny
   fixed-seed locking workload, and the observable behavior — runtime,
   event/op counts, miss traffic, persistent escalations, byte totals —
   must match the committed values exactly. The simulator is
   deterministic for a fixed seed, so any drift here means a perf
   refactor silently changed *simulated behavior*, not just host time.

   To refresh after an intentional behavior change:
     GOLDEN_REGEN=1 dune exec test/test_main.exe -- test golden
   and paste the printed list over [expected] below. *)

type golden = {
  g_protocol : string;
  g_runtime_ps : int;  (* measured runtime, integer picoseconds *)
  g_events : int;
  g_ops : int;
  g_l1_misses : int;
  g_retries : int;  (* transient retries *)
  g_persistent : int;  (* persistent requests *)
  g_miss_ns : string;  (* mean miss latency, printed to 3 decimals *)
  g_intra_bytes : int;
  g_inter_bytes : int;
}

let workload_seed = 1
let nlocks = 4
let acquires = 10

(* Protocols.all plus the flat-broadcast and multicast dst1 variants:
   every protocol the torture campaign and the bench exercise. *)
let protocols =
  Tokencmp.Protocols.all
  @ [
      Tokencmp.Protocols.token Token.Policy.dst1_flat;
      Tokencmp.Protocols.token Token.Policy.dst1_mcast;
    ]

let config = Mcmp.Config.tiny

let programs () =
  let wl =
    { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires }
  in
  Workload.Locking.programs wl ~seed:workload_seed ~nprocs:(Mcmp.Config.nprocs config)

let golden_of (p : Tokencmp.Protocols.t) (r : Mcmp.Runner.result) =
  let c = r.Mcmp.Runner.counters in
  {
    g_protocol = p.Tokencmp.Protocols.name;
    g_runtime_ps = r.Mcmp.Runner.runtime;
    g_events = r.Mcmp.Runner.events;
    g_ops = r.Mcmp.Runner.ops;
    g_l1_misses = c.Mcmp.Counters.l1_misses;
    g_retries = c.Mcmp.Counters.transient_retries;
    g_persistent = c.Mcmp.Counters.persistent_requests;
    g_miss_ns =
      Printf.sprintf "%.3f" (Sim.Stat.Welford.mean c.Mcmp.Counters.miss_latency);
    g_intra_bytes = Interconnect.Traffic.intra_total r.Mcmp.Runner.traffic;
    g_inter_bytes = Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic;
  }

let run_protocol (p : Tokencmp.Protocols.t) =
  golden_of p
    (Mcmp.Runner.run ~config p.Tokencmp.Protocols.builder ~programs:(programs ())
       ~seed:workload_seed)

let print_literal g =
  Printf.printf
    "  { g_protocol = %S; g_runtime_ps = %d; g_events = %d; g_ops = %d;\n\
    \    g_l1_misses = %d; g_retries = %d; g_persistent = %d; g_miss_ns = %S;\n\
    \    g_intra_bytes = %d; g_inter_bytes = %d };\n"
    g.g_protocol g.g_runtime_ps g.g_events g.g_ops g.g_l1_misses g.g_retries g.g_persistent
    g.g_miss_ns g.g_intra_bytes g.g_inter_bytes

(* Committed snapshot: Mcmp.Config.tiny, locking nlocks=4 acquires=10,
   seed 1, every protocol in [protocols]. *)
let expected : golden list = [
  { g_protocol = "DirectoryCMP"; g_runtime_ps = 2101325; g_events = 2088; g_ops = 360;
    g_l1_misses = 101; g_retries = 0; g_persistent = 0; g_miss_ns = "172.475";
    g_intra_bytes = 25760; g_inter_bytes = 5272 };
  { g_protocol = "DirectoryCMP-zero"; g_runtime_ps = 1738552; g_events = 2227; g_ops = 360;
    g_l1_misses = 110; g_retries = 0; g_persistent = 0; g_miss_ns = "126.291";
    g_intra_bytes = 28232; g_inter_bytes = 5824 };
  { g_protocol = "TokenCMP-arb0"; g_runtime_ps = 3031618; g_events = 7128; g_ops = 360;
    g_l1_misses = 210; g_retries = 0; g_persistent = 210; g_miss_ns = "157.751";
    g_intra_bytes = 67200; g_inter_bytes = 17232 };
  { g_protocol = "TokenCMP-dst0"; g_runtime_ps = 987413; g_events = 6648; g_ops = 360;
    g_l1_misses = 210; g_retries = 0; g_persistent = 210; g_miss_ns = "49.855";
    g_intra_bytes = 63648; g_inter_bytes = 14808 };
  { g_protocol = "TokenCMP-dst4"; g_runtime_ps = 4680051; g_events = 1499; g_ops = 360;
    g_l1_misses = 64; g_retries = 23; g_persistent = 0; g_miss_ns = "180.474";
    g_intra_bytes = 13056; g_inter_bytes = 3520 };
  { g_protocol = "TokenCMP-dst1"; g_runtime_ps = 1776154; g_events = 2574; g_ops = 360;
    g_l1_misses = 99; g_retries = 0; g_persistent = 31; g_miss_ns = "155.207";
    g_intra_bytes = 24640; g_inter_bytes = 6400 };
  { g_protocol = "TokenCMP-dst1-pred"; g_runtime_ps = 1210043; g_events = 3545; g_ops = 360;
    g_l1_misses = 129; g_retries = 0; g_persistent = 76; g_miss_ns = "112.908";
    g_intra_bytes = 35304; g_inter_bytes = 9144 };
  { g_protocol = "TokenCMP-dst1-filt"; g_runtime_ps = 1115794; g_events = 2989; g_ops = 360;
    g_l1_misses = 115; g_retries = 0; g_persistent = 42; g_miss_ns = "175.571";
    g_intra_bytes = 27504; g_inter_bytes = 7336 };
  { g_protocol = "PerfectL2"; g_runtime_ps = 587000; g_events = 1389; g_ops = 543;
    g_l1_misses = 328; g_retries = 0; g_persistent = 0; g_miss_ns = "11.000";
    g_intra_bytes = 0; g_inter_bytes = 0 };
  { g_protocol = "TokenCMP-dst1-flat"; g_runtime_ps = 1266022; g_events = 3027; g_ops = 360;
    g_l1_misses = 97; g_retries = 0; g_persistent = 29; g_miss_ns = "153.650";
    g_intra_bytes = 26216; g_inter_bytes = 6392 };
  { g_protocol = "TokenCMP-dst1-mcast"; g_runtime_ps = 4802736; g_events = 1602; g_ops = 360;
    g_l1_misses = 71; g_retries = 18; g_persistent = 3; g_miss_ns = "163.516";
    g_intra_bytes = 14592; g_inter_bytes = 4032 };
]

let check_one (p : Tokencmp.Protocols.t) () =
  let actual = run_protocol p in
  match List.find_opt (fun g -> g.g_protocol = actual.g_protocol) expected with
  | None ->
    Alcotest.failf "no golden entry for %s — run with GOLDEN_REGEN=1 to generate"
      actual.g_protocol
  | Some exp ->
    let ck name a b = Alcotest.(check int) (actual.g_protocol ^ " " ^ name) a b in
    ck "runtime_ps" exp.g_runtime_ps actual.g_runtime_ps;
    ck "events" exp.g_events actual.g_events;
    ck "ops" exp.g_ops actual.g_ops;
    ck "l1_misses" exp.g_l1_misses actual.g_l1_misses;
    ck "transient_retries" exp.g_retries actual.g_retries;
    ck "persistent_requests" exp.g_persistent actual.g_persistent;
    Alcotest.(check string)
      (actual.g_protocol ^ " miss_latency_ns") exp.g_miss_ns actual.g_miss_ns;
    ck "intra_bytes" exp.g_intra_bytes actual.g_intra_bytes;
    ck "inter_bytes" exp.g_inter_bytes actual.g_inter_bytes

(* Mirrors Mcmp.Runner.run (same RNG derivation, construction order
   and stop rule) but drives the engine through [Sim.Engine.run ~until]
   in irregular slices of simulated time, 1 ps to 2 ns wide, the way the
   benchmark's timing loop does. *)
let run_sliced (p : Tokencmp.Protocols.t) =
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let rng = Sim.Rng.create (workload_seed + 7_919) in
  let counters = Mcmp.Counters.create () in
  let protocol = p.Tokencmp.Protocols.builder engine config traffic rng counters in
  let values = Mcmp.Values.create () in
  let programs = programs () in
  let nprocs = Mcmp.Config.nprocs config in
  let remaining = ref nprocs and finish = ref Sim.Time.zero in
  let on_done ~proc:_ =
    decr remaining;
    if !remaining = 0 then begin
      finish := Sim.Engine.now engine;
      Sim.Engine.stop engine
    end
  in
  let cores =
    List.init nprocs (fun proc ->
        Mcmp.Core.create engine values protocol counters ~proc ~program:(programs ~proc) ~on_done)
  in
  List.iter Mcmp.Core.start cores;
  (* The widths come from a generator of their own, so slicing draws
     nothing from the simulation's streams. *)
  let widths = Sim.Rng.create 99 in
  let bound = ref Sim.Time.zero and horizon = Sim.Time.us 1_000 in
  while !remaining > 0 && !bound < horizon do
    bound := !bound + Sim.Time.ps (1 + Sim.Rng.int widths 2_000);
    Sim.Engine.run ~until:!bound ~max_events:config.Mcmp.Config.max_events engine
  done;
  let marks = List.map Mcmp.Core.mark_time cores in
  let start =
    if List.for_all Option.is_some marks then
      List.fold_left (fun acc m -> max acc (Option.get m)) 0 marks
    else 0
  in
  {
    Mcmp.Runner.seed = workload_seed;
    runtime = max 0 (!finish - start);
    total_runtime = !finish;
    completed = !remaining = 0;
    traffic;
    counters;
    events = Sim.Engine.events_processed engine;
    ops = List.fold_left (fun acc c -> acc + Mcmp.Core.ops_committed c) 0 cores;
    stop = (if !remaining = 0 then Mcmp.Runner.Finished else Mcmp.Runner.Unfinished);
  }

(* Sliced differential: every protocol, run in slices, must reproduce
   the one-shot results bit-for-bit — runtime, event count, traffic,
   everything. A slice bound is inclusive and leaves the queue intact,
   so the events run in exactly the order of one uninterrupted run;
   nothing in the machine may depend on where a [run] call ends. *)
let check_sliced (p : Tokencmp.Protocols.t) () =
  let one_shot =
    Mcmp.Runner.run ~config p.Tokencmp.Protocols.builder ~programs:(programs ())
      ~seed:workload_seed
  in
  let sliced = run_sliced p in
  let name = p.Tokencmp.Protocols.name in
  Alcotest.(check bool) (name ^ " completed") true sliced.Mcmp.Runner.completed;
  Alcotest.(check int) (name ^ " finish time") one_shot.Mcmp.Runner.total_runtime
    sliced.Mcmp.Runner.total_runtime;
  Alcotest.(check bool)
    (name ^ " identical in slices")
    true
    (golden_of p one_shot = golden_of p sliced)

let regen () =
  print_endline "let expected : golden list = [";
  List.iter (fun p -> print_literal (run_protocol p)) protocols;
  print_endline "]"

let tests =
  if Sys.getenv_opt "GOLDEN_REGEN" <> None then
    [ Alcotest.test_case "regenerate golden values" `Quick regen ]
  else
    List.map
      (fun p ->
        Alcotest.test_case
          ("golden: " ^ p.Tokencmp.Protocols.name)
          `Quick (check_one p))
      protocols
    @ List.map
        (fun p ->
          Alcotest.test_case
            ("sliced differential: " ^ p.Tokencmp.Protocols.name)
            `Quick (check_sliced p))
        protocols
