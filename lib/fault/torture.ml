module E = Sim.Engine
module F = Interconnect.Fabric

type target = Token of Token.Policy.t | Directory of { dram_directory : bool }

let target_name = function
  | Token p -> "token:" ^ p.Token.Policy.name
  | Directory { dram_directory } -> Directory.Protocol.name ~dram_directory

(* The complete run recipe minus (target, spec, seed): everything a
   repro bundle must capture for a replay to be bit-identical. *)
type run_params = {
  p_config : Mcmp.Config.t;
  p_trace_capacity : int;
  p_no_progress_windows : int;
  p_starvation_bound : Sim.Time.t;
  p_recover : bool;
  p_chaos : Chaos.spec option;
  p_script : Plan.event list option;
}

let default_params =
  {
    p_config = { Mcmp.Config.tiny with max_events = 20_000_000 };
    p_trace_capacity = 512;
    p_no_progress_windows = 5;
    p_starvation_bound = Sim.Time.ns 200_000;
    p_recover = false;
    p_chaos = None;
    p_script = None;
  }

(* The locking workload every run drives, and the cadences of its
   invariant monitor and liveness watchdog. *)
let nlocks = 4
let acquires = 30
let monitor_interval = Sim.Time.ns 500
let watchdog_interval = Sim.Time.ns 20_000

type outcome = {
  seed : int;
  spec : Spec.t;
  target : target;
  params : run_params;
  completed : bool;
  reports : Report.t list;
  stats : Plan.stats;
  trace : Tcjson.t;
  gauges : (string * float) list;
  dump : string;
  ops : int;
  runtime : Sim.Time.t;
  events : int;
  misses : int;
  spans : Obs.Span.summary;
  recovered : Token.Protocol.recovery_stats option;
  retransmits : int;
  chaos : Chaos.stats option;
  link_downtime : Sim.Time.t;
  link_degraded : Sim.Time.t;
  plan_events : Plan.event list;
  plan_offers : int;
}

(* What the rest of a run needs from the machine its builder made. *)
type machine = {
  m_engine : E.t;
  m_counters : Mcmp.Counters.t;
  m_probe : Mcmp.Probe.t;
  m_dump : Format.formatter -> unit -> unit;
  m_crash : int -> unit;
  m_restart : int -> unit;
  m_recovery : unit -> Token.Protocol.recovery_stats option;
  m_retransmits : unit -> int;
  m_chaos : (Chaos.stats * Chaos.links) option;
}

(* The margin a run widens its watchdog bounds by: the base widened,
   if needed, to out-wait the longest legitimate stall, a full chaos
   outage followed by worst-case recovery. *)
let effective_margin ~base ~recover ?chaos ~watchdog_interval ~no_progress_windows
    ~starvation_bound () =
  let longest_stall =
    let outage = match chaos with Some c -> Chaos.max_outage c | None -> Sim.Time.zero in
    outage + if recover then Token.Recovery.worst_case_latency else Sim.Time.zero
  in
  if longest_stall = Sim.Time.zero then base
  else begin
    let np_total = Sim.Time.to_ns watchdog_interval *. float_of_int no_progress_windows in
    let tightest = Float.min np_total (Sim.Time.to_ns starvation_bound) in
    Float.max base (1.25 *. Sim.Time.to_ns longest_stall /. tightest)
  end

let run p target ~spec ~seed =
  let recover = p.p_recover and chaos = p.p_chaos in
  (match target with
  | Directory _ when recover ->
    invalid_arg "Torture.run: recovery mode is a token-protocol feature"
  | _ -> ());
  (match (target, chaos) with
  | Token _, Some c when Chaos.lossy c && not recover ->
    invalid_arg "Torture.run: lossy chaos on a token target requires recovery mode"
  | _ -> ());
  let config = p.p_config in
  let layout = Mcmp.Config.layout config in
  let buf = Obs.Buffer.create ~capacity:p.p_trace_capacity () in
  let registry = Obs.Registry.create () in
  let plan =
    Plan.create ~recovery:recover ?script:p.p_script ~seed
      ~nodes:(Interconnect.Layout.node_count layout)
      spec
  in
  let reports = ref [] in
  let report engine r =
    reports := r :: !reports;
    (* First genuine failure established: stop so the trace tail stays
       focused on it (expected reports let the run play out). *)
    match Report.severity r with `Fatal -> E.stop engine | `Expected -> ()
  in
  (* The plan's injector, wrapped by the chaos link table when the run
     has causes. The table stays out of the outcome, which is plain
     data; its link times are read when the run ends. *)
  let with_chaos fab inject chaos =
    match chaos with
    | Some (_ :: _ as c) ->
      let stats, links, inject = Chaos.install ~seed ~spec:c fab inject in
      (Some (stats, links), inject)
    | _ -> (None, inject)
  in
  let give_up engine ~src ~dst ~cls ~attempts _msg =
    report engine
      {
        Report.at = E.now engine;
        kind =
          Report.Retransmit_exhausted
            { src; dst; cls; attempts; blame = Plan.last_drop_on plan ~src ~dst };
      }
  in
  (* The protocol and its one fault injector (plan, then chaos, then
     reliable transport) are built inside the runner's builder;
     everything else reads them from here. *)
  let machine = ref None in
  let builder engine config traffic rng counters =
    let handle, m =
      match target with
      | Token policy ->
        let i =
          Token.Protocol.create_instrumented ~recovery:recover policy engine config traffic rng
            counters
        in
        let fab = i.Token.Protocol.i_fabric in
        F.set_msg_label fab Token.Msg.label;
        let chaos, inject = with_chaos fab (Plan.token_injector plan) chaos in
        let transport, inject =
          if recover then begin
            (* The transport draws its retransmit jitter from its own
               split stream; the plan's schedule is untouched. *)
            let tr, inject =
              Transport.wrap ~rng:(Sim.Rng.split rng) ~give_up:(give_up engine) fab inject
            in
            (Some tr, inject)
          end
          else (None, inject)
        in
        F.set_fault_injector fab inject;
        ( i.Token.Protocol.i_handle,
          {
            m_engine = engine;
            m_counters = counters;
            m_probe = i.Token.Protocol.i_probe;
            m_dump = i.Token.Protocol.i_dump;
            m_crash = i.Token.Protocol.i_crash;
            m_restart = i.Token.Protocol.i_restart;
            m_recovery =
              (fun () -> if recover then Some (i.Token.Protocol.i_recovery ()) else None);
            m_retransmits =
              (fun () -> match transport with Some tr -> Transport.retransmits tr | None -> 0);
            m_chaos = chaos;
          } )
      | Directory { dram_directory } ->
        let i =
          Directory.Protocol.create_instrumented ~dram_directory () engine config traffic
            rng counters
        in
        let fab = i.Directory.Protocol.i_fabric in
        F.set_msg_label fab Directory.Msg.label;
        (* Directory messages cannot be lost, so its chaos is the
           loss-free brownout rendition — the same discipline as
           Spec.delay_only for per-copy faults. *)
        let chaos, inject =
          with_chaos fab (Plan.directory_injector plan) (Option.map Chaos.brownout_of chaos)
        in
        F.set_fault_injector fab inject;
        ( i.Directory.Protocol.i_handle,
          {
            m_engine = engine;
            m_counters = counters;
            m_probe = i.Directory.Protocol.i_probe;
            m_dump = i.Directory.Protocol.i_dump;
            m_crash = (fun _ -> ());
            m_restart = (fun _ -> ());
            m_recovery = (fun () -> None);
            m_retransmits = (fun () -> 0);
            m_chaos = chaos;
          } )
    in
    machine := Some m;
    handle
  in
  let the_machine () = match !machine with Some m -> m | None -> assert false in
  (* The margin widens both liveness bounds uniformly: a legitimate
     token recreation (starvation timeout + bump collect + lease
     expiry, see Token.Recovery.worst_case_latency) can stall one
     request far beyond the plain-fault starvation bound without being
     a protocol failure. *)
  let margin =
    effective_margin
      ~base:(if recover then 2.5 else 1.0)
      ~recover ?chaos ~watchdog_interval
      ~no_progress_windows:p.p_no_progress_windows ~starvation_bound:p.p_starvation_bound ()
  in
  let no_progress_windows =
    int_of_float (ceil (float_of_int p.p_no_progress_windows *. margin))
  in
  let starvation_bound =
    Sim.Time.ns (int_of_float (ceil (Sim.Time.to_ns p.p_starvation_bound *. margin)))
  in
  let running = ref (fun () -> true) and monitor = ref None in
  let on_start engine ~running:is_running =
    let m = the_machine () in
    running := is_running;
    (* Crash/restart campaign: scheduled from a dedicated rng stream
       (not the plan's, not the protocol's) so neither the
       message-level fault sequence nor protocol randomness shifts when
       crashes are added. *)
    if recover && spec.Spec.crashes > 0 then begin
      let crng = Sim.Rng.create ((seed * 69_069) + 12_345) in
      let caches = Interconnect.Layout.all_caches layout in
      let ncaches = List.length caches in
      for k = 0 to spec.Spec.crashes - 1 do
        let victim = List.nth caches (Sim.Rng.int crng ncaches) in
        (* Early enough to land inside the locking run (a few to a few
           tens of us); later crashes hit the recovery-extended tail
           and are skipped if the run already finished. *)
        let at = Sim.Time.ns (2_000 + (k * 12_000) + Sim.Rng.int crng 8_000) in
        E.schedule_at engine at (fun () -> if is_running () then m.m_crash victim);
        E.schedule_at engine (at + spec.Spec.crash_down) (fun () -> m.m_restart victim)
      done
    end;
    monitor :=
      Some
        (Monitor.attach engine ~probe:m.m_probe ~plan ~interval:monitor_interval
           ~running:is_running ~report:(report engine));
    Watchdog.attach engine ~probe:m.m_probe ~counters:m.m_counters
      ~interval:watchdog_interval ~no_progress_windows ~starvation_bound ~running:is_running
      ~report:(report engine)
      ~on_stall:(fun () -> E.stop engine)
  in
  let lcfg =
    { (Workload.Locking.default ~nlocks) with
      acquires;
      warmup_acquires = 5
    }
  in
  let programs = Workload.Locking.programs lcfg ~seed ~nprocs:(Mcmp.Config.nprocs config) in
  (match Mcmp.Runner.run ~config ~registry ~buffer:buf ~on_start builder ~programs ~seed with
  | (_ : Mcmp.Runner.result) -> ()
  | exception Mcmp.Violation.Invariant_violation v ->
    let engine = (the_machine ()).m_engine in
    report engine
      {
        Report.at = E.now engine;
        kind = Report.Invariant { violation = v; blame = Plan.last_destructive plan };
      });
  let m = the_machine () in
  Option.iter Monitor.check !monitor;
  (* A violation leaves no runner result, so every total is read off
     the engine and counters the builder received, however the run
     ended. The engine's clock stays where the run stopped: the last
     processor's finish, or the instant it was cut. *)
  let completed = not (!running ()) in
  let reports = List.rev !reports in
  let keep_evidence = reports <> [] || not completed in
  let span_list, dropped_spans = Obs.Span.assemble_full buf in
  let spans = Obs.Span.summarize ~dropped_spans span_list in
  let link_time f = match m.m_chaos with Some (_, links) -> f links | None -> Sim.Time.zero in
  {
    seed;
    spec;
    target;
    params = p;
    completed;
    reports;
    stats = Plan.stats plan;
    trace =
      (if keep_evidence then
         Obs.Perfetto.export
           ~marks:(List.map (fun r -> (r.Report.at, Report.to_string r)) reports)
           buf
       else Tcjson.Null);
    gauges = Obs.Registry.gauges registry;
    dump = (if keep_evidence then Format.asprintf "%a" m.m_dump () else "");
    ops = Mcmp.Counters.ops m.m_counters;
    runtime = E.now m.m_engine;
    events = E.events_processed m.m_engine;
    misses = Sim.Stat.Welford.count m.m_counters.Mcmp.Counters.miss_latency;
    spans;
    recovered = m.m_recovery ();
    retransmits = m.m_retransmits ();
    chaos = Option.map fst m.m_chaos;
    link_downtime = link_time Chaos.link_downtime;
    link_degraded = link_time Chaos.link_degraded_time;
    (* The materialized fault schedule rides along only when the run is
       worth dissecting — same gate as the trace/dump evidence, and it
       covers every non-clean verdict (each implies a report or an
       incomplete run). *)
    plan_events = (if keep_evidence then Plan.events plan else []);
    plan_offers = Plan.offers plan;
  }

type verdict = Clean | Survived_partition | Detected | Failed of string

let has_invariant o =
  List.exists (fun r -> match r.Report.kind with Report.Invariant _ -> true | _ -> false) o.reports

let corrupted o = o.spec.Spec.duplicate_tokens && o.stats.Plan.token_dups > 0
let unrecoverable o = o.stats.Plan.drops_unrecoverable > 0

(* Why a run whose cut held a copy failed to finish. A run stops at its
   first fatal report, so a transport that gave up did so while a link
   was still down. Otherwise the run failed either after a link came
   back up, when convergence was owed, or before anything healed. *)
let partition_failure o =
  let gave_up =
    List.exists
      (fun r -> match r.Report.kind with Report.Retransmit_exhausted _ -> true | _ -> false)
      o.reports
  in
  let healed = match o.chaos with Some s -> s.Chaos.heals > 0 | None -> false in
  if gave_up then "transport gave up inside the partition"
  else if healed then "livelock: did not converge after partition heal"
  else "run stopped inside the partition, before it healed"

let verdict o =
  let fatal = List.exists (fun r -> Report.severity r = `Fatal) o.reports in
  (* A partitioned run that completes violation-free, during or after
     its cut, survived the partition; one that fails to finish says why
     ([partition_failure]). A cut that dropped or delayed no copy
     partitioned nothing. *)
  let partitioned = match o.chaos with Some s -> s.Chaos.cut_copies > 0 | None -> false in
  if corrupted o then
    if has_invariant o then Detected
    else Failed "token-minting duplicate was injected but no invariant violation reported"
  else if has_invariant o then Failed "invariant violation"
  else if unrecoverable o then
    if o.reports = [] then Failed "unrecoverable drop silently absorbed"
    else Detected
  else if partitioned && (fatal || not o.completed) then Failed (partition_failure o)
  else if fatal then Failed "liveness failure without an unsurvivable fault"
  else if not o.completed then Failed "run did not complete"
  else if partitioned then Survived_partition
  else Clean

(* Every [Failed] verdict that an invariant report, a token-minting
   duplicate or an unrecoverable drop decided is a safety failure; the
   rest are liveness failures. *)
let exit_code outcomes =
  let failed = List.filter (fun o -> match verdict o with Failed _ -> true | _ -> false) outcomes in
  if List.exists (fun o -> has_invariant o || corrupted o || unrecoverable o) failed then 1
  else if failed <> [] then 2
  else 0

let pp_verdict fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Survived_partition -> Format.pp_print_string fmt "survived-partition"
  | Detected -> Format.pp_print_string fmt "detected"
  | Failed msg -> Format.fprintf fmt "FAILED: %s" msg

let pp_outcome fmt o =
  Format.fprintf fmt "%-22s seed=%-6d %a  ops=%d runtime=%a events=%d [%a]@,  plan: %a"
    (target_name o.target) o.seed pp_verdict (verdict o) o.ops Sim.Time.pp o.runtime
    o.events Plan.pp_stats o.stats Spec.pp o.spec;
  (match o.recovered with
  | Some rs ->
    Format.fprintf fmt "@,  recovery: recreations=%d epoch-bumps=%d stale-discards=%d crashes=%d retransmits=%d"
      rs.Token.Protocol.rs_recreations rs.Token.Protocol.rs_epoch_bumps
      rs.Token.Protocol.rs_stale_discards rs.Token.Protocol.rs_crashes o.retransmits
  | None -> ());
  match o.chaos with
  | Some cs ->
    Format.fprintf fmt "@,  chaos: %a downtime=%a degraded=%a" Chaos.pp_stats cs Sim.Time.pp
      o.link_downtime Sim.Time.pp o.link_degraded
  | None -> ()

(* Per-run spec derivation must not depend on list evaluation order.
   Recovery-mode post-processing (drops + crashes) draws no randomness,
   so the serial spec stream is identical with and without it. *)
let spec_for rng ~drop_mode ~drop_tokens ~recover target =
  let spec = Spec.random rng in
  match target with
  | Directory _ -> Spec.delay_only spec
  | Token _ ->
    if recover then
      Spec.with_crashes ~count:2 (Spec.with_drops ~tokens:true ~prob:0.01 spec)
    else if drop_mode then Spec.with_drops ~tokens:drop_tokens ~prob:0.01 spec
    else spec

let campaign ~params ?(runs = 100) ?(jobs = 1) ?(drop_mode = false) ?(drop_tokens = false)
    ~targets ~seed ?on_outcome () =
  if targets = [] then invalid_arg "Torture.campaign: no targets";
  let recover = params.p_recover in
  if recover && List.exists (function Directory _ -> true | Token _ -> false) targets then
    invalid_arg "Torture.campaign: recovery campaigns take token targets only";
  let rng = Sim.Rng.create ((seed * 31) + 17) in
  let ntargets = List.length targets in
  (* Spec derivation consumes the campaign rng in run order and stays
     serial; only the (independent, per-run-seeded) simulations fan
     out, so a parallel campaign replays the exact serial fault
     sequence. *)
  let tasks =
    List.init runs (fun i ->
        let target = List.nth targets (i mod ntargets) in
        let spec = spec_for rng ~drop_mode ~drop_tokens ~recover target in
        (i, target, spec))
  in
  let run_task (i, target, spec) = run params target ~spec ~seed:(seed + i) in
  if jobs <= 1 then
    List.map
      (fun ((i, _, _) as task) ->
        let o = run_task task in
        (match on_outcome with Some f -> f i o | None -> ());
        o)
      tasks
  else begin
    let outcomes =
      Par.Pool.map ~jobs
        ~label:(fun _ (i, target, _) ->
          Printf.sprintf "torture run %d: %s seed=%d" i (target_name target) (seed + i))
        run_task tasks
    in
    (match on_outcome with Some f -> List.iteri f outcomes | None -> ());
    outcomes
  end

let default_targets =
  Token Token.Policy.arb0 :: Token Token.Policy.dst0 :: Token Token.Policy.dst4
  :: Token Token.Policy.dst1 :: Token Token.Policy.dst1_pred
  :: Token Token.Policy.dst1_filt :: Token Token.Policy.dst1_flat
  :: Token Token.Policy.dst1_mcast
  :: [ Directory { dram_directory = true }; Directory { dram_directory = false } ]

let token_targets =
  List.filter (function Token _ -> true | Directory _ -> false) default_targets
