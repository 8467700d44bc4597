(* Repository benchmark for the tokencmp simulator.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload is a batch job: one complete simulation of a fixed
   machine and program mix. The driver simulates a fixed set of inputs
   (sub-seeds derived from --seed) round-robin until S seconds of host
   time have passed, starting each simulation from a collected heap,
   checks every simulation, and prints one JSON object as the last line
   of standard output. Every input runs at least once. Set-up time is
   the median over all simulations of the invocation; throughput is the
   inputs' ops over the sum of each input's median loop time.

   --trace 0 reports what a user of the simulator sees: simulated
   memory operations retired per second of the run loop, and set-up
   time (machine construction plus workload programs), both in the
   reference seconds of module [Reference]; the raw host figures are
   printed on the line before the result. Nothing is attached to the
   engine in these runs.

   --trace 1 is the per-layer ledger. Each simulation runs twice with
   the same sub-seed: once untraced (for the allocation rate, heap
   size, untraced event rate and tracing overhead) and once with spans
   recorded at the boundaries this driver can see — the core's calls
   into the workload program and its commit callbacks (core layer), the
   core's calls into the protocol's access entry (cache arrays and miss
   issue), and the fabric's delivery events (message handlers, by
   message class). Host time and minor words between two boundaries are
   charged to the layer that was open; a delivery's share runs until
   the next boundary, so it also carries the engine's pop of the next
   event and any timer event that runs before a boundary. Simulated-time
   statistics of the modelled machine come from the same traced runs:
   the traffic mix (share of delivered messages per class), the miss
   mix (share of misses per cause), and the L1 hit rate over the whole
   run and over the part after every core passed its warm-up mark. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let clock () = Int64.to_int (now_ns ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type proto = Token of Token.Policy.t | Directory

type workload = {
  name : string;
  proto : proto;
  config : Mcmp.Config.t;
  programs : seed:int -> nprocs:int -> proc:int -> Workload.Program.t;
  inputs : int;
      (** distinct sub-seeds per invocation, simulated round-robin; an
          input that runs again must repeat exactly *)
}

let commercial profile ~seed ~nprocs:_ ~proc = Workload.Commercial.program profile ~seed ~proc

(* OLTP stand-in on the default 4-CMP x 4-core machine (48 caches),
   shortened so one simulation is a fraction of a second of host time.
   The private footprint (40960 blocks per processor) is many times the
   caches, so private accesses miss at every run length; what a short
   run cuts is the warming of the code and hot shared blocks. The
   traced runs report the hit rate after the warm-up mark next to the
   whole-run one, so the cold-start share stays visible. *)
let oltp = { Workload.Commercial.oltp with Workload.Commercial.warmup_ops = 300; ops = 500 }

(* Server-scale machine as in the repository's scale bench: [ncmp]
   CMPs x 6 cores with 4 L2 banks, 16 caches per CMP. OLTP's shared,
   hot, migratory and lock footprints are calibrated for about 32
   processors and are scaled with the processor count, so per-block
   contention stays comparable to the default machine instead of
   collapsing into token-request storms. *)
let server_config ncmp =
  { Mcmp.Config.default with
    Mcmp.Config.ncmp; procs_per_cmp = 6; l2_banks = 4; tokens = 4 * ncmp * ((2 * 6) + 4) }

let weak_scale ~nprocs p =
  let f = max 1 ((nprocs + 31) / 32) in
  { p with
    Workload.Commercial.shared_blocks = f * p.Workload.Commercial.shared_blocks;
    hot_blocks = f * p.Workload.Commercial.hot_blocks;
    migratory_blocks = f * p.Workload.Commercial.migratory_blocks;
    nlocks = f * p.Workload.Commercial.nlocks }

(* 16 CMPs: 256 caches and 272 coherence nodes, so a destination set
   spans five bitset words. 8 CMPs: 128 caches and 136 nodes, three
   words. The token workload uses the 8-CMP machine: its inputs differ
   by up to a third in host cost at equal event counts, so a steady
   figure needs many inputs per run, and one 256-cache token
   simulation takes about two seconds. *)
let wide_config = server_config 16
let mid_config = server_config 8

let wide_oltp config =
  weak_scale ~nprocs:(Mcmp.Config.nprocs config)
    { Workload.Commercial.oltp with Workload.Commercial.warmup_ops = 10; ops = 30 }

(* The paper's locking micro-benchmark at high contention: 16
   processors on 4 locks, so racing misses escalate to persistent
   requests. *)
let locks = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 40 }

let workloads =
  [
    { name = "oltp_token"; proto = Token Token.Policy.dst1; config = Mcmp.Config.default;
      programs = commercial oltp; inputs = 8 };
    { name = "oltp_directory"; proto = Directory; config = Mcmp.Config.default;
      programs = commercial oltp; inputs = 8 };
    { name = "locks_token"; proto = Token Token.Policy.dst1; config = Mcmp.Config.default;
      programs = Workload.Locking.programs locks; inputs = 16 };
    { name = "wide_token"; proto = Token Token.Policy.dst1; config = mid_config;
      programs = commercial (wide_oltp mid_config); inputs = 16 };
    { name = "wide_directory"; proto = Directory; config = wide_config;
      programs = commercial (wide_oltp wide_config); inputs = 8 };
  ]

(* ------------------------------------------------------------------ *)
(* The per-layer ledger of a traced simulation                         *)

module Ledger = struct
  let core = 0
  let access = 1
  let deliver = 2

  let classes = Interconnect.Msg_class.all
  let class_index name =
    let rec go i = function
      | [] -> invalid_arg ("Ledger: unknown message class " ^ name)
      | c :: rest -> if Interconnect.Msg_class.to_string c = name then i else go (i + 1) rest
    in
    go 0 classes

  type t = {
    ns : int array;
    words : float array;
    calls : int array;
    cls_ns : int array;
    cls_msgs : int array;
    mutable cur : int;
    mutable cur_cls : int;
    mutable stack : int list;
    mutable t_last : int;
    mutable w_last : float;
    mutable sink_events : int;
    mutable hops : int;
    mutable queue_ns : float;
  }

  let create () =
    let n = List.length classes in
    { ns = Array.make 3 0; words = Array.make 3 0.; calls = Array.make 3 0;
      cls_ns = Array.make n 0; cls_msgs = Array.make n 0; cur = core; cur_cls = 0;
      stack = []; t_last = 0; w_last = 0.; sink_events = 0; hops = 0; queue_ns = 0. }

  (* Close the open interval: charge it to the layer that was current. *)
  let charge l =
    let t = clock () and w = Gc.minor_words () in
    let dt = t - l.t_last in
    l.ns.(l.cur) <- l.ns.(l.cur) + dt;
    l.words.(l.cur) <- l.words.(l.cur) +. (w -. l.w_last);
    if l.cur = deliver then l.cls_ns.(l.cur_cls) <- l.cls_ns.(l.cur_cls) + dt;
    l.t_last <- t;
    l.w_last <- w

  let start l =
    l.t_last <- clock ();
    l.w_last <- Gc.minor_words ();
    l.cur <- core;
    l.stack <- []

  let enter l c =
    charge l;
    l.calls.(c) <- l.calls.(c) + 1;
    l.stack <- l.cur :: l.stack;
    l.cur <- c

  let leave l =
    charge l;
    match l.stack with
    | c :: rest ->
      l.cur <- c;
      l.stack <- rest
    | [] -> ()

  let sink l _at ev =
    l.sink_events <- l.sink_events + 1;
    match ev with
    | Obs.Event.Msg_deliver { cls; _ } ->
      charge l;
      let i = class_index cls in
      l.calls.(deliver) <- l.calls.(deliver) + 1;
      l.cls_msgs.(i) <- l.cls_msgs.(i) + 1;
      l.cur <- deliver;
      l.cur_cls <- i
    | Obs.Event.Net_hop { queue_ns; _ } ->
      l.hops <- l.hops + 1;
      l.queue_ns <- l.queue_ns +. queue_ns
    | _ -> ()

  let wrap_program l ~on_mark (p : Workload.Program.t) =
    Workload.Program.of_fun (fun ~last ->
        enter l core;
        let op = p.Workload.Program.next ~last in
        leave l;
        (match op with Workload.Program.Mark -> on_mark () | _ -> ());
        op)

  let wrap_handle l (h : Mcmp.Protocol.handle) =
    { h with
      Mcmp.Protocol.access =
        (fun ~proc ~kind addr ~commit ->
          enter l access;
          h.Mcmp.Protocol.access ~proc ~kind addr ~commit:(fun () ->
              enter l core;
              commit ();
              leave l);
          leave l) }
end

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                *)

(* A shared host changes speed by tens of percent within seconds
   (neighbours contend for caches, memory and the sibling
   hyperthread), and a simulation's wall time moves with it. The
   driver therefore times small kernels owned by this file — integer
   arithmetic, random read-modify-writes over 256 KB and over 32 MB off
   the OCaml heap, a sequential sweep, short-lived allocation, and a
   hash table — so no change to the simulator can move them. Their
   data either stays in the core's own caches or never fits the shared
   one, so what a simulation leaves in the caches barely moves them
   either. None of them keeps anything alive past its own run, so they
   can run between slices of a simulation without adding to its
   garbage. A slice's host time divided by the geometric mean of the
   kernel times taken just before and just after it, times
   [nominal_ns], is the slice's time in reference nanoseconds: the time
   it would take on a host where the kernels run in [nominal_ns] (about
   their time on an x86-64 server core). The raw times and the kernel
   times are printed next to the result, and the traced runs report
   them as per-layer metrics. *)
module Reference = struct
  let nominal_ns = 1.5e5
  let words = 1 lsl 15
  let table = Array.make words 1
  let dram_words = 1 lsl 22
  let dram_table = Bigarray.Array1.init Bigarray.int Bigarray.c_layout dram_words (fun _ -> 1)
  let hash_table = Hashtbl.create 4096
  let sink = ref 0
  let lcg x = (x * 25_214_903_917) + 11

  let alu () =
    let x = ref 1 and y = ref 3 in
    for _ = 1 to 150_000 do
      x := lcg !x;
      y := !y lxor (!x lsr 7) + (!y lsl 3)
    done;
    sink := !sink + !y

  let rmw () =
    let x = ref 1 in
    for _ = 1 to 100_000 do
      x := lcg !x;
      let k = (!x lsr 20) land (words - 1) in
      Array.unsafe_set table k (Array.unsafe_get table k + !x)
    done

  let dram () =
    let x = ref 1 in
    for _ = 1 to 10_000 do
      x := lcg !x;
      let k = (!x lsr 20) land (dram_words - 1) in
      Bigarray.Array1.unsafe_set dram_table k (Bigarray.Array1.unsafe_get dram_table k + !x)
    done

  let sweep () =
    for pass = 1 to 8 do
      for k = 0 to words - 1 do
        Array.unsafe_set table k (Array.unsafe_get table k + pass)
      done
    done

  let alloc () =
    for i = 1 to 15_000 do
      sink := !sink + List.length [ i; i + 1; i + 2 ]
    done

  let hash () =
    let x = ref 1 in
    Hashtbl.clear hash_table;
    for _ = 1 to 1_500 do
      x := lcg !x;
      Hashtbl.replace hash_table ((!x lsr 16) land 0xfffff) !x
    done;
    for _ = 1 to 1_500 do
      x := lcg !x;
      match Hashtbl.find_opt hash_table ((!x lsr 16) land 0xfffff) with
      | Some v -> sink := !sink + v
      | None -> ()
    done

  let kernels = [ alu; rmw; dram; sweep; alloc; hash ]

  (* Geometric mean of the kernels' host nanoseconds. *)
  let sample () =
    let log_sum =
      List.fold_left
        (fun acc f ->
          let t0 = clock () in
          f ();
          acc +. log (float_of_int (clock () - t0)))
        0. kernels
    in
    exp (log_sum /. float_of_int (List.length kernels))

  (* Host nanoseconds [dt] measured between kernel samples [k0] and
     [k1], in reference nanoseconds. *)
  let scale dt k0 k1 = float_of_int dt *. 2. *. nominal_ns /. (k0 +. k1)
end

(* Runs the engine until [finished ()] in slices of about [slice_ns] of
   host time, sampling the reference kernels between slices. A slice is
   a bound on simulated time ([Sim.Engine.run ~until]), so the events
   run in exactly the order of one uninterrupted run; the repeat and
   Mcmp.Runner checks hold the driver to that. The bound adapts to the
   host time the last slice took. [k_start] is a kernel sample taken
   just before the call. Returns the loop's host and reference
   nanoseconds and the mean kernel time. *)
let slice_ns = 20_000_000

let run_sliced engine ~k_start ~max_events ~finished =
  let host = ref 0 and reference = ref 0. in
  let k_sum = ref k_start and k_n = ref 1 in
  let k_before = ref k_start in
  let quantum = ref (Sim.Time.ns 100) and stalled = ref false in
  while not (finished () || !stalled) do
    let events = Sim.Engine.events_processed engine in
    let t0 = clock () in
    Sim.Engine.run ~until:(Sim.Engine.now engine + !quantum) ~max_events engine;
    let dt = clock () - t0 in
    let k_after = Reference.sample () in
    host := !host + dt;
    reference := !reference +. Reference.scale dt !k_before k_after;
    k_before := k_after;
    k_sum := !k_sum +. k_after;
    incr k_n;
    if Sim.Engine.events_processed engine = events then begin
      (* Nothing was due: widen the window; an empty queue ends here. *)
      quantum := 2 * !quantum;
      stalled := !quantum > Sim.Time.us 1_000_000
    end
    else
      let ratio = float_of_int slice_ns /. float_of_int (max dt 1) in
      quantum := max 1 (Sim.Time.mul_f !quantum (Float.min 2. (Float.max 0.5 ratio)))
  done;
  (!host, !reference, !k_sum /. float_of_int !k_n)

(* ------------------------------------------------------------------ *)
(* One simulation                                                      *)

type instance = {
  handle : Mcmp.Protocol.handle;
  probe : Mcmp.Probe.t;
  delivered : unit -> int;
}

(* The instrumented constructors run the same protocol code as the
   plain builders and also hand back the invariant probe and the
   fabric. The fabric's message labels are reset to the empty string:
   the instrumented ones pretty-print every message, which would make
   traced runs measure the formatter. *)
let instantiate proto engine config traffic rng counters =
  match proto with
  | Token policy ->
    let i = Token.Protocol.create_instrumented policy engine config traffic rng counters in
    let fabric = i.Token.Protocol.i_fabric in
    Interconnect.Fabric.set_msg_label fabric (fun _ -> "");
    { handle = i.Token.Protocol.i_handle; probe = i.Token.Protocol.i_probe;
      delivered = (fun () -> Interconnect.Fabric.delivered fabric) }
  | Directory ->
    let i =
      Directory.Protocol.create_instrumented ~dram_directory:true () engine config traffic rng
        counters
    in
    let fabric = i.Directory.Protocol.i_fabric in
    Interconnect.Fabric.set_msg_label fabric (fun _ -> "");
    { handle = i.Directory.Protocol.i_handle; probe = i.Directory.Protocol.i_probe;
      delivered = (fun () -> Interconnect.Fabric.delivered fabric) }

let builder = function
  | Token policy -> Token.Protocol.builder policy
  | Directory -> Directory.Protocol.builder ~dram_directory:true ()

type sim = {
  setup_ns : int;  (** host: engine, protocol, programs and cores *)
  loop_ns : int;  (** host: the engine run until the last core is done *)
  ref_setup_ns : float;  (** reference ns of set-up (sliced runs only) *)
  ref_loop_ns : float;  (** reference ns of the run loop (sliced runs only) *)
  kernel_ns : float;  (** mean reference-kernel time (sliced runs only) *)
  words : float;  (** minor words allocated by the run loop *)
  heap_words : int;  (** major heap size when the last core finished *)
  events : int;
  ops : int;
  delivered : int;
  runtime : Sim.Time.t;  (** simulated, from the last warm-up mark *)
  finish : Sim.Time.t;  (** simulated, whole run *)
  counters : Mcmp.Counters.t;
  traffic : Interconnect.Traffic.t;
  warm_hits : int;  (** L1 hits after every core passed its mark (traced runs only) *)
  warm_misses : int;
}

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* Mirrors Mcmp.Runner.run (same RNG derivation, construction order and
   stop rule) with the set-up and the run loop timed apart. The first
   simulation of every invocation is cross-checked against the library
   runner. [sliced] runs the loop through [run_sliced] and reports
   reference times as well; its set-up is scaled by kernel samples
   taken just before and just after it. *)
let simulate ?ledger ?(sliced = false) w ~seed =
  (* Every simulation starts from a collected heap, so none pays for the
     garbage of the one before it. *)
  Gc.full_major ();
  let k0 = if sliced then Reference.sample () else nan in
  let t0 = clock () in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let rng = Sim.Rng.create (seed + 7_919) in
  let counters = Mcmp.Counters.create () in
  let inst = instantiate w.proto engine w.config traffic rng counters in
  let handle =
    match ledger with Some l -> Ledger.wrap_handle l inst.handle | None -> inst.handle
  in
  let values = Mcmp.Values.create () in
  let nprocs = Mcmp.Config.nprocs w.config in
  let programs = w.programs ~seed ~nprocs in
  let remaining = ref nprocs in
  let finish = ref Sim.Time.zero in
  let on_done ~proc:_ =
    decr remaining;
    if !remaining = 0 then begin
      finish := Sim.Engine.now engine;
      Sim.Engine.stop engine
    end
  in
  (* L1 hit and miss totals when the last core passed its warm-up mark. *)
  let marks = ref 0 and at_mark = ref None in
  let on_mark () =
    incr marks;
    if !marks = nprocs then
      at_mark := Some (counters.Mcmp.Counters.l1_hits, counters.Mcmp.Counters.l1_misses)
  in
  let cores =
    List.init nprocs (fun proc ->
        let program = programs ~proc in
        let program =
          match ledger with Some l -> Ledger.wrap_program l ~on_mark program | None -> program
        in
        Mcmp.Core.create engine values handle counters ~proc ~program ~on_done)
  in
  let t1 = clock () in
  let k1 = if sliced then Reference.sample () else nan in
  Option.iter
    (fun l ->
      Sim.Engine.set_sink engine (Ledger.sink l);
      Ledger.start l)
    ledger;
  let w0 = Gc.minor_words () in
  List.iter Mcmp.Core.start cores;
  let max_events = w.config.Mcmp.Config.max_events in
  let loop_ns, ref_loop_ns, kernel_ns =
    if sliced then run_sliced engine ~k_start:k1 ~max_events ~finished:(fun () -> !remaining = 0)
    else begin
      Sim.Engine.run ~max_events engine;
      (clock () - t1, nan, nan)
    end
  in
  let words = Gc.minor_words () -. w0 in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  Option.iter (fun l -> Ledger.charge l) ledger;
  Sim.Engine.clear_sink engine;
  let events = Sim.Engine.events_processed engine in
  let ops = List.fold_left (fun acc c -> acc + Mcmp.Core.ops_committed c) 0 cores in
  let mark_times = List.map Mcmp.Core.mark_time cores in
  let start =
    if List.for_all Option.is_some mark_times then
      List.fold_left (fun acc m -> max acc (Option.get m)) 0 mark_times
    else 0
  in
  (* Correctness, outside the timed window. *)
  check (!remaining = 0) "%d of %d cores did not finish" !remaining nprocs;
  let c = counters in
  check
    (c.Mcmp.Counters.loads + c.stores + c.atomics + c.ifetches = ops)
    "per-kind op counters do not sum to the %d committed ops" ops;
  check
    (Array.fold_left ( + ) 0 c.cause_counts = Sim.Stat.Welford.count c.miss_latency)
    "miss classes do not reconcile with the miss-latency samples";
  let delivered = inst.delivered () in
  (* Counters and traffic as the last core finished, which is where
     Mcmp.Runner reads them; the drain below keeps adding to both. *)
  let at_finish_counters = Mcmp.Counters.create () in
  Mcmp.Counters.merge ~into:at_finish_counters counters;
  let at_finish_traffic = Interconnect.Traffic.create () in
  Interconnect.Traffic.merge ~into:at_finish_traffic traffic;
  let warm_hits, warm_misses =
    match !at_mark with Some (h, m) -> (c.l1_hits - h, c.l1_misses - m) | None -> (0, 0)
  in
  (* Drain to quiescence (writebacks, acks and cancelled timers still
     queued when the last core finished), then audit global state. *)
  Sim.Engine.run ~max_events:(events + 50_000_000) engine;
  (match inst.probe.Mcmp.Probe.check () with
  | [] -> ()
  | v :: _ -> raise (Check_failed ("invariant: " ^ Mcmp.Violation.to_string v)));
  check (inst.probe.Mcmp.Probe.outstanding () = []) "misses still outstanding at quiescence";
  { setup_ns = t1 - t0; loop_ns; ref_setup_ns = Reference.scale (t1 - t0) k0 k1;
    ref_loop_ns; kernel_ns; words; heap_words; events; ops; delivered;
    runtime = max 0 (!finish - start); finish = !finish; counters = at_finish_counters;
    traffic = at_finish_traffic; warm_hits;
    warm_misses }

(* What must come out the same whenever one input is simulated again. *)
let signature s =
  ( s.ops, s.events, s.delivered, s.finish, s.runtime, s.counters.Mcmp.Counters.l1_misses,
    Interconnect.Traffic.inter_total s.traffic )

(* The driver's own loop must agree with the library's runner on every
   simulated statistic. *)
let check_against_runner w ~seed s =
  let r =
    Mcmp.Runner.run ~config:w.config (builder w.proto)
      ~programs:(w.programs ~seed ~nprocs:(Mcmp.Config.nprocs w.config))
      ~seed
  in
  check r.Mcmp.Runner.completed "library runner did not complete seed %d" seed;
  check (r.Mcmp.Runner.events = s.events) "events differ from Mcmp.Runner (%d vs %d)"
    s.events r.Mcmp.Runner.events;
  check (r.Mcmp.Runner.ops = s.ops) "ops differ from Mcmp.Runner";
  check (r.Mcmp.Runner.runtime = s.runtime) "runtime differs from Mcmp.Runner";
  check (r.Mcmp.Runner.total_runtime = s.finish) "finish time differs from Mcmp.Runner";
  check
    (r.Mcmp.Runner.counters.Mcmp.Counters.l1_misses = s.counters.Mcmp.Counters.l1_misses)
    "L1 misses differ from Mcmp.Runner";
  check
    (Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic
     = Interconnect.Traffic.inter_total s.traffic)
    "inter-chip traffic differs from Mcmp.Runner"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

type tally = { mutable attempted : int; mutable failed : int }

(* Runs [f i] for i = 0, 1, ... until [seconds] of host time have
   passed and at least [min_iterations] ran; a failed check is counted,
   not fatal. *)
let repeat tally ~seconds ~min_iterations f =
  let deadline = clock () + (seconds * 1_000_000_000) in
  let i = ref 0 in
  while !i < min_iterations || clock () < deadline do
    tally.attempted <- tally.attempted + 1;
    (try f !i with
    | Check_failed msg ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "check failed (iteration %d): %s\n%!" !i msg
    | e ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "simulation raised (iteration %d): %s\n%!" !i (Printexc.to_string e));
    incr i
  done

let metric name unit v = (name, unit, v)

(* Throughput over a round of the inputs: every input's ops over the
   median of its loop times. Inputs differ in host cost, by up to a
   third at equal event counts, so a plain median over simulations
   would follow whichever inputs ran most often; this weighs each input
   once. *)
let round_rate ops times =
  let total_ops = ref 0 and total_ns = ref 0. in
  Array.iteri
    (fun j ts ->
      if ts <> [] then begin
        total_ops := !total_ops + ops.(j);
        total_ns := !total_ns +. median ts
      end)
    times;
  fdiv (float_of_int !total_ops) !total_ns *. 1e9

let end_to_end w ~seed ~seconds tally =
  let ops = Array.make w.inputs 0 in
  let loops = Array.make w.inputs [] and raw_loops = Array.make w.inputs [] in
  let setups = ref [] and raw_setups = ref [] and kernels = ref [] in
  let seen = Array.make w.inputs None in
  repeat tally ~seconds ~min_iterations:w.inputs (fun i ->
      let j = i mod w.inputs in
      let s = simulate ~sliced:true w ~seed:(seed + j) in
      let sg = signature s in
      check (Option.fold ~none:true ~some:(( = ) sg) seen.(j)) "input %d did not repeat" j;
      seen.(j) <- Some sg;
      ops.(j) <- s.ops;
      raw_loops.(j) <- float_of_int s.loop_ns :: raw_loops.(j);
      loops.(j) <- s.ref_loop_ns :: loops.(j);
      raw_setups := float_of_int s.setup_ns /. 1e9 :: !raw_setups;
      setups := s.ref_setup_ns /. 1e9 :: !setups;
      kernels := s.kernel_ns :: !kernels);
  Printf.printf
    "%s: %d simulations of %d inputs; raw host figures %.1f ops/s, set-up %.4f s; reference \
     kernels %.3f ms (nominal %.3f ms)\n"
    w.name tally.attempted w.inputs (round_rate ops raw_loops) (median !raw_setups)
    (median !kernels /. 1e6) (Reference.nominal_ns /. 1e6);
  [ metric "ops_per_ref_s" "1/ref_s" (round_rate ops loops); metric "setup_s" "s" (median !setups) ]

(* "Inv/Fwd/Acks/Tokens" -> "inv_fwd_acks_tokens" *)
let metric_suffix s =
  String.map (fun ch -> if ch = ' ' || ch = '/' then '_' else Char.lowercase_ascii ch) s

let per_layer w ~seed ~seconds tally =
  let l = Ledger.create () in
  let plain_walls = ref [] and traced_walls = ref [] in
  let plain_events = ref 0 and plain_loop = ref 0 and plain_words = ref 0. in
  let heaps = ref [] and plain_setups = ref [] in
  let events = ref 0 and ops = ref 0 and loop = ref 0 and delivered = ref 0 in
  let warm_hits = ref 0 and warm_misses = ref 0 in
  let counters = Mcmp.Counters.create () and traffic = Interconnect.Traffic.create () in
  let finish_ns = ref 0. and plain_ops = ref 0 in
  let ref_before = Reference.sample () in
  repeat tally ~seconds ~min_iterations:1 (fun i ->
      let j = i mod w.inputs in
      let p = simulate w ~seed:(seed + j) in
      let s = simulate ~ledger:l w ~seed:(seed + j) in
      check (signature p = signature s) "tracing changed the simulation";
      plain_walls := float_of_int p.loop_ns :: !plain_walls;
      plain_setups := float_of_int p.setup_ns /. 1e9 :: !plain_setups;
      traced_walls := float_of_int s.loop_ns :: !traced_walls;
      plain_events := !plain_events + p.events;
      plain_loop := !plain_loop + p.loop_ns;
      plain_words := !plain_words +. p.words;
      plain_ops := !plain_ops + p.ops;
      heaps := float_of_int (p.heap_words * (Sys.word_size / 8)) /. 1048576. :: !heaps;
      events := !events + s.events;
      ops := !ops + s.ops;
      loop := !loop + s.loop_ns;
      delivered := !delivered + s.delivered;
      warm_hits := !warm_hits + s.warm_hits;
      warm_misses := !warm_misses + s.warm_misses;
      finish_ns := !finish_ns +. Sim.Time.to_ns s.finish;
      Mcmp.Counters.merge ~into:counters s.counters;
      Interconnect.Traffic.merge ~into:traffic s.traffic);
  let ref_ns = median [ ref_before; Reference.sample () ] in
  let c = counters in
  let nprocs = Mcmp.Config.nprocs w.config in
  let ns k = float_of_int l.Ledger.ns.(k) in
  let traced = float_of_int !loop in
  let deliveries = l.Ledger.calls.(Ledger.deliver) in
  let cls_metrics =
    List.concat
      (List.mapi
         (fun i cls ->
           let name = metric_suffix (Interconnect.Msg_class.to_string cls) in
           [ metric ("deliver_ns." ^ name) "ns" (idiv l.Ledger.cls_ns.(i) l.Ledger.cls_msgs.(i));
             metric ("msg_share." ^ name) "ratio" (idiv l.Ledger.cls_msgs.(i) deliveries) ])
         Ledger.classes)
  in
  let classified = Array.fold_left ( + ) 0 c.Mcmp.Counters.cause_counts in
  let cause_metrics =
    List.map
      (fun cause ->
        metric
          ("miss_share." ^ Obs.Event.cause_to_string cause)
          "ratio"
          (idiv (Mcmp.Counters.cause_count c cause) classified))
      Obs.Event.all_causes
  in
  let accesses = c.Mcmp.Counters.l1_hits + c.l1_misses in
  Printf.printf "%s: %d traced simulations of %d inputs\n" w.name (List.length !traced_walls)
    w.inputs;
  [
    metric "loop_ns_per_event" "ns" (fdiv traced (float_of_int !events));
    metric "core_ns_per_op" "ns" (fdiv (ns Ledger.core) (float_of_int !ops));
    metric "access_ns_per_call" "ns" (idiv l.Ledger.ns.(Ledger.access) l.Ledger.calls.(Ledger.access));
    metric "deliver_ns_per_msg" "ns" (idiv l.Ledger.ns.(Ledger.deliver) deliveries);
    metric "core_share" "ratio" (fdiv (ns Ledger.core) traced);
    metric "access_share" "ratio" (fdiv (ns Ledger.access) traced);
    metric "deliver_share" "ratio" (fdiv (ns Ledger.deliver) traced);
  ]
  @ cls_metrics
  @ [
      metric "core_words_per_op" "words" (fdiv l.Ledger.words.(Ledger.core) (float_of_int !ops));
      metric "access_words_per_call" "words"
        (fdiv l.Ledger.words.(Ledger.access) (float_of_int l.Ledger.calls.(Ledger.access)));
      metric "deliver_words_per_msg" "words"
        (fdiv l.Ledger.words.(Ledger.deliver) (float_of_int deliveries));
      metric "minor_words_per_event" "words" (fdiv !plain_words (float_of_int !plain_events));
      metric "heap_mb" "MB" (median !heaps);
      metric "events_per_s" "1/s" (idiv !plain_events !plain_loop *. 1e9);
      metric "raw_ops_per_s" "1/s" (idiv !plain_ops !plain_loop *. 1e9);
      metric "raw_setup_s" "s" (median !plain_setups);
      metric "ref_kernel_ms" "ms" (ref_ns /. 1e6);
      metric "trace_overhead_x" "ratio" (fdiv (median !traced_walls) (median !plain_walls));
      metric "sink_events_per_event" "count" (idiv l.Ledger.sink_events !events);
      metric "events_per_op" "count" (idiv !events !ops);
      metric "msgs_per_op" "count" (idiv !delivered !ops);
      metric "bytes_per_op" "B"
        (idiv
           (Interconnect.Traffic.inter_total traffic + Interconnect.Traffic.intra_total traffic)
           !ops);
      metric "misses_per_op" "count" (idiv c.l1_misses !ops);
      metric "l1_hit_rate" "ratio" (idiv c.l1_hits accesses);
      metric "warm_l1_hit_rate" "ratio" (idiv !warm_hits (!warm_hits + !warm_misses));
      metric "retries_per_miss" "count" (idiv c.transient_retries c.l1_misses);
      metric "persistent_per_miss" "count" (idiv c.persistent_requests c.l1_misses);
      metric "indirections_per_miss" "count" (idiv c.dir_indirections c.l1_misses);
      metric "miss_latency_ns" "ns" (Sim.Stat.Welford.mean c.miss_latency);
      metric "fabric_wait_ns_per_msg" "ns" (fdiv l.Ledger.queue_ns (float_of_int l.Ledger.hops));
      metric "sim_ns_per_op" "ns" (fdiv (!finish_ns *. float_of_int nprocs) (float_of_int !ops));
    ]
  @ cause_metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  (* Sub-seeds of different --seed values never overlap. *)
  let base = !seed * 1_000_000 in
  let tally = { attempted = 0; failed = 0 } in
  let agrees =
    match check_against_runner w ~seed:base (simulate w ~seed:base) with
    | () -> true
    | exception (Check_failed msg) ->
      Printf.eprintf "check failed: %s\n%!" msg;
      false
  in
  let metrics =
    if !trace = 0 then end_to_end w ~seed:base ~seconds:!seconds tally
    else per_layer w ~seed:base ~seconds:!seconds tally
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.4f %s\n" n v u) metrics;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = agrees && finite && tally.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_number (if Float.is_finite v then v else 0.))
              u)
          metrics))
