(* Command-line driver for the TokenCMP simulator.

   Subcommands:
     list            protocols, policies, workload profiles
     run             one simulation (protocol x workload), full statistics
     sweep           locking contention sweep across protocols
     torture         randomized fault-injection campaigns (--recover for the recovery stack)
     chaos           link-outage campaigns: flapping links, region partitions, brownouts
     faultrate       recovery-mode cost vs token-drop probability
     profile         instrumented run: miss classes, hop attribution, Perfetto export
     check           model-check the substrate and the flat directory
     replay          re-run a *.repro.json bundle, verify bit-identical reproduction
     shrink          ddmin a failing bundle to a 1-minimal fault schedule *)

open Cmdliner

let protocol_conv =
  let parse s =
    match Tokencmp.Protocols.by_name s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol %S (try: %s)" s
             (String.concat ", " (Tokencmp.Protocols.names ()))))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Tokencmp.Protocols.name)

let protocol_arg =
  let doc = "Coherence protocol (see `tokencmp list`)." in
  Arg.(
    value
    & opt protocol_conv (Tokencmp.Protocols.token Token.Policy.dst1)
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let seeds_arg =
  Arg.(
    value & opt (list int) [ 1; 2; 3 ]
    & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Seeds for mean +/- CI runs.")

let tiny_arg =
  Arg.(
    value & flag
    & info [ "tiny" ] ~doc:"Use a 2-CMP x 2-processor machine instead of the paper's 4x4.")

let jobs_arg =
  Arg.(
    value & opt int (-1)
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (0 = all cores). Defaults to \
           $(b,TOKENCMP_JOBS) if set, else 1 (serial). Results are bit-identical for any \
           value.")

(* -1 = flag absent: defer to TOKENCMP_JOBS / serial. *)
let resolve_jobs j = Par.Pool.resolve_jobs ?requested:(if j < 0 then None else Some j) ()

let config_of_tiny tiny = if tiny then Mcmp.Config.tiny else Mcmp.Config.default

(* The torture recipe on the chosen machine, under torture's own event
   cap whichever machine that is. *)
let torture_params tiny =
  let d = Fault.Torture.default_params in
  { d with
    p_config =
      { (config_of_tiny tiny) with max_events = d.p_config.Mcmp.Config.max_events } }

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "Protocols:";
    List.iter (fun n -> Printf.printf "  %s\n" n) (Tokencmp.Protocols.names ());
    print_endline "TokenCMP variants (Table 1):";
    List.iter (fun p -> Format.printf "  %a@." Token.Policy.pp p) Token.Policy.all;
    print_endline "Workloads:";
    Printf.printf "  locking:N      test-and-test-and-set over N locks\n";
    Printf.printf "  barrier        sense-reversing barrier\n";
    Printf.printf "  prodcons       cross-chip producer-consumer pairs\n";
    List.iter
      (fun p -> Printf.printf "  %-14s synthetic commercial stream\n"
          (String.lowercase_ascii p.Workload.Commercial.name))
      Workload.Commercial.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List protocols, policies and workloads.")
    Term.(const run $ const ())

(* ---- run ---- *)

let workload_programs ~config ~seed spec =
  let nprocs = Mcmp.Config.nprocs config in
  match String.split_on_char ':' spec with
  | [ "locking"; n ] | [ "lock"; n ] ->
    let nlocks = int_of_string n in
    Ok (Workload.Locking.programs (Workload.Locking.default ~nlocks) ~seed ~nprocs)
  | [ "barrier" ] ->
    let cfg = Workload.Barrier.default ~nprocs in
    Ok (fun ~proc -> Workload.Barrier.program cfg ~seed ~proc)
  | [ "prodcons" ] | [ "producer-consumer" ] ->
    let cfg = Workload.Producer_consumer.default in
    Ok (fun ~proc -> Workload.Producer_consumer.programs cfg ~seed ~nprocs ~proc)
  | [ name ] -> (
    match Workload.Commercial.by_name name with
    | Some profile -> Ok (fun ~proc -> Workload.Commercial.program profile ~seed ~proc)
    | None -> Error (Printf.sprintf "unknown workload %S" spec))
  | _ -> Error (Printf.sprintf "unknown workload %S" spec)

let run_cmd =
  let workload_arg =
    Arg.(
      value & opt string "oltp"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload: locking:N, barrier, prodcons, oltp, apache, specjbb.")
  in
  let run_seeds_arg =
    Arg.(
      value & opt (list int) []
      & info [ "seeds" ] ~docv:"SEEDS"
          ~doc:
            "Run several seeds (in parallel with $(b,-j)) and report per-seed runtimes plus \
             mean +/- CI instead of one full report.")
  in
  let print_one workload r =
    Format.printf "workload: %s, seed %d@." workload r.Mcmp.Runner.seed;
    Format.printf "measured runtime: %a (total %a)@." Sim.Time.pp r.Mcmp.Runner.runtime
      Sim.Time.pp r.Mcmp.Runner.total_runtime;
    Format.printf "completed: %b, events: %d, ops: %d@." r.Mcmp.Runner.completed
      r.Mcmp.Runner.events r.Mcmp.Runner.ops;
    Format.printf "%a@." Mcmp.Counters.pp r.Mcmp.Runner.counters;
    let pr_traffic label breakdown total =
      Format.printf "%s traffic: %d bytes (%s)@." label total
        (String.concat ", "
           (List.filter_map
              (fun (c, b) ->
                if b = 0 then None
                else Some (Printf.sprintf "%s %d" (Interconnect.Msg_class.to_string c) b))
              breakdown))
    in
    pr_traffic "intra-CMP"
      (Interconnect.Traffic.intra_breakdown r.Mcmp.Runner.traffic)
      (Interconnect.Traffic.intra_total r.Mcmp.Runner.traffic);
    pr_traffic "inter-CMP"
      (Interconnect.Traffic.inter_breakdown r.Mcmp.Runner.traffic)
      (Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic)
  in
  let run protocol workload seed seeds jobs tiny =
    let config = config_of_tiny tiny in
    let jobs = resolve_jobs jobs in
    let one seed =
      match workload_programs ~config ~seed workload with
      | Error e ->
        prerr_endline e;
        exit 2
      | Ok programs ->
        Mcmp.Runner.run ~config protocol.Tokencmp.Protocols.builder ~programs ~seed
    in
    Format.printf "protocol: %s@." protocol.Tokencmp.Protocols.name;
    (* The complete command line, so console output alone is actionable. *)
    Format.printf "reproduce: tokencmp run -p %s -w %s %s-j %d%s@."
      protocol.Tokencmp.Protocols.name workload
      (match seeds with
      | [] -> Printf.sprintf "--seed %d " seed
      | ss -> Printf.sprintf "--seeds %s " (String.concat "," (List.map string_of_int ss)))
      jobs
      (if tiny then " --tiny" else "");
    match seeds with
    | [] ->
      let r = one seed in
      print_one workload r;
      if not r.Mcmp.Runner.completed then exit 1
    | seeds ->
      let results =
        Par.Pool.map ~jobs ~label:(fun _ seed -> Printf.sprintf "seed %d" seed) one seeds
      in
      print_string
        (Tokencmp.Table.to_markdown
           (Tokencmp.Table.make "Per-seed runs"
              (List.map
                 (fun r ->
                   [
                     ("seed", Tcjson.Int r.Mcmp.Runner.seed);
                     ("runtime_ns", Tcjson.Float (Sim.Time.to_ns r.Mcmp.Runner.runtime));
                     ("events", Tcjson.Int r.Mcmp.Runner.events);
                     ("ops", Tcjson.Int r.Mcmp.Runner.ops);
                     ("completed", Tcjson.Bool r.Mcmp.Runner.completed);
                   ])
                 results)));
      let summary =
        Sim.Stat.Summary.of_list
          (List.map (fun r -> Sim.Time.to_ns r.Mcmp.Runner.runtime) results)
      in
      Format.printf "runtime over %d seeds: %a ns@." (List.length results)
        Sim.Stat.Summary.pp summary;
      if List.exists (fun r -> not r.Mcmp.Runner.completed) results then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulation (or one per seed) and print statistics.")
    Term.(const run $ protocol_arg $ workload_arg $ seed_arg $ run_seeds_arg $ jobs_arg
          $ tiny_arg)

(* ---- sweep ---- *)

let sweep_cmd =
  let locks_arg =
    Arg.(
      value & opt (list int) [ 2; 8; 32; 128; 512 ]
      & info [ "locks" ] ~docv:"LOCKS" ~doc:"Lock counts to sweep.")
  in
  let protocols_arg =
    Arg.(
      value
      & opt (list protocol_conv)
          [ Tokencmp.Protocols.directory; Tokencmp.Protocols.token Token.Policy.dst1 ]
      & info [ "protocols" ] ~docv:"P1,P2" ~doc:"Protocols to compare.")
  in
  let run protocols locks seeds jobs tiny =
    let config = config_of_tiny tiny in
    let sweep =
      Tokencmp.Experiments.locking_sweep ~jobs:(resolve_jobs jobs) ~config ~seeds ~locks
        ~protocols ()
    in
    print_string
      (Tokencmp.Table.to_markdown
         (Tokencmp.Table.make "Runtime (ns, mean and 95% CI over seeds)"
            (List.map
               (fun (nlocks, runs) ->
                 ("locks", Tcjson.Int nlocks)
                 :: List.concat_map
                      (fun p ->
                        let name = p.Tokencmp.Protocols.name in
                        let r = Tokencmp.Experiments.find runs name in
                        let s = r.Tokencmp.Experiments.runtime_ns in
                        [
                          (name, Tcjson.Float s.Sim.Stat.Summary.mean);
                          (name ^ " ci95", Tcjson.Float s.Sim.Stat.Summary.ci95);
                        ])
                      protocols)
               sweep)))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Locking contention sweep (Figures 2 and 3).")
    Term.(const run $ protocols_arg $ locks_arg $ seeds_arg $ jobs_arg $ tiny_arg)

(* ---- torture and chaos ---- *)

(* The campaign-outcome handler both campaigns share. [campaign] runs
   the campaign with the given per-run callback. Every detected or
   failed run leaves a [<prefix>-run<i>.repro.json] bundle; a failed run
   also prints its reports, writes its evidence trace and dumps the
   protocol state. Exit codes ({!Fault.Torture.exit_code}): 0 =
   clean/survived, 1 = safety failure, 2 = watchdog/liveness timeout
   (safety beats liveness). *)
let run_campaign ~prefix ~repro_line ~verbose campaign =
  let survived = ref 0 and detected = ref 0 and failures = ref 0 in
  let on_outcome i o =
    let v = Fault.Torture.verdict o in
    (match v with
    | Fault.Torture.Clean -> ()
    | Fault.Torture.Survived_partition -> incr survived
    | Fault.Torture.Detected -> incr detected
    | Fault.Torture.Failed _ -> incr failures);
    (* Non-clean verdict: serialize the complete run recipe so the
       failure replays and shrinks offline. *)
    (match v with
    | Fault.Torture.Detected | Fault.Torture.Failed _ ->
      let file = Printf.sprintf "%s-run%d.repro.json" prefix i in
      Forensics.Bundle.write_file file (Forensics.Bundle.make o);
      Format.printf "run %3d: repro bundle %s (tokencmp replay %s; tokencmp shrink %s)@."
        i file file file
    | _ -> ());
    match v with
    | Fault.Torture.Failed _ ->
      Format.printf "run %3d: @[<v>%a@]@." i Fault.Torture.pp_outcome o;
      List.iter (fun r -> Format.printf "  %a@." Fault.Report.pp r) o.Fault.Torture.reports;
      (match o.Fault.Torture.trace with
      | Tcjson.Null -> ()
      | trace ->
        let file = Printf.sprintf "%s-run%d.trace.json" prefix i in
        Tcjson.write_file file trace;
        Format.printf "--- evidence trace written to %s (load in Perfetto) ---@." file);
      if o.Fault.Torture.dump <> "" then
        Format.printf "--- protocol state ---@.%s" o.Fault.Torture.dump;
      Format.printf "reproduce: %s@." repro_line
    | _ -> if verbose then Format.printf "run %3d: @[<v>%a@]@." i Fault.Torture.pp_outcome o
  in
  let outcomes = campaign ~on_outcome in
  Printf.printf "%d runs: %d survived partition, %d clean, %d detected, %d failed\n"
    (List.length outcomes)
    !survived
    (List.length outcomes - !survived - !detected - !failures)
    !detected !failures;
  Printf.printf "reproduce: %s\n" repro_line;
  match Fault.Torture.exit_code outcomes with
  | 0 -> print_endline "exit: clean (0)"
  | 1 ->
    print_endline "exit: safety failure (1)";
    exit 1
  | code ->
    print_endline "exit: watchdog/liveness timeout (2)";
    exit code

let torture_cmd =
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"Randomized runs per campaign.")
  in
  let drop_arg =
    Arg.(
      value & flag
      & info [ "drop-mode" ]
          ~doc:
            "Also drop transient requests on token targets (survivable via \
             timeout/reissue/persistent escalation).")
  in
  let drop_tokens_arg =
    Arg.(
      value & flag
      & info [ "drop-tokens" ]
          ~doc:
            "Also drop token-carrying messages: unrecoverable by design, must be detected \
             and reported. Implies --drop-mode.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every run, not only failures.")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Arm the recovery stack (reliable transport, token recreation, crash/restart \
             cycles) on the token targets; the pass criterion becomes surviving the storm \
             -- zero violations, every request retired -- instead of detecting it.")
  in
  let run runs seed jobs tiny drop_mode drop_tokens recover verbose =
    let jobs = resolve_jobs jobs in
    let drop_mode = drop_mode || drop_tokens in
    let targets =
      if recover then Fault.Torture.token_targets else Fault.Torture.default_targets
    in
    let params = { (torture_params tiny) with p_recover = recover } in
    let repro_line =
      Printf.sprintf "tokencmp torture --runs %d --seed %d -j %d%s%s%s" runs seed jobs
        (if tiny then " --tiny" else "")
        (if drop_tokens then " --drop-tokens" else if drop_mode then " --drop-mode" else "")
        (if recover then " --recover" else "")
    in
    Printf.printf "torture: %d runs over %d targets, base seed %d%s%s%s\n%!" runs
      (List.length targets) seed
      (if recover then ", recover" else "")
      (if drop_tokens then ", drop-tokens" else if drop_mode then ", drop-mode" else "")
      (if jobs > 1 then Printf.sprintf ", %d jobs" jobs else "");
    run_campaign ~prefix:"torture" ~repro_line ~verbose (fun ~on_outcome ->
        Fault.Torture.campaign ~params ~runs ~jobs ~drop_mode ~drop_tokens ~targets ~seed
          ~on_outcome ())
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Randomized fault-injection campaign: delay spikes, reordering, duplication, node \
          stalls (and optionally drops) against every protocol variant, with a runtime \
          invariant monitor and liveness watchdog. With $(b,--recover), the recovery stack \
          must survive drops and crash/restart cycles outright. Exit codes: 0 clean, 1 \
          invariant violation, 2 watchdog/liveness timeout.")
    Term.(
      const run $ runs_arg $ seed_arg $ jobs_arg $ tiny_arg $ drop_arg $ drop_tokens_arg
      $ recover_arg $ verbose_arg)

(* ---- chaos ---- *)

let chaos_cmd =
  let runs_arg =
    Arg.(value & opt int 8 & info [ "runs" ] ~docv:"N" ~doc:"Randomized runs per campaign.")
  in
  let duration_arg =
    Arg.(
      value & opt int 50
      & info [ "duration" ] ~docv:"US"
          ~doc:"Partition duration in microseconds (0 disables the partition).")
  in
  let flaps_arg =
    Arg.(
      value & opt int 1
      & info [ "flaps" ] ~docv:"N" ~doc:"Flapping link pairs (0 disables flapping).")
  in
  let directory_arg =
    Arg.(
      value & flag
      & info [ "directory" ]
          ~doc:
            "Target the directory protocols instead: the campaign runs the loss-free \
             brownout rendition of the plan (DirectoryCMP cannot survive message loss).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every run, not only failures.")
  in
  let run runs seed jobs tiny duration flaps directory verbose =
    let jobs = resolve_jobs jobs in
    (* Flaps before the cut: causes are scheduled in list order. *)
    let chaos =
      (if flaps > 0 then Fault.Chaos.flaky ~links:flaps () else [])
      @ if duration > 0 then Fault.Chaos.split ~duration:(Sim.Time.us duration) () else []
    in
    if chaos = [] then begin
      print_endline "chaos: nothing to do (no partition, no flaps)";
      exit 0
    end;
    let targets, recover =
      if directory then ([ Fault.Torture.Directory { dram_directory = true } ], false)
      else ([ Fault.Torture.Token Token.Policy.dst1; Fault.Torture.Token Token.Policy.arb0 ], true)
    in
    let params = { (torture_params tiny) with p_recover = recover; p_chaos = Some chaos } in
    let repro_line =
      Printf.sprintf "tokencmp chaos --runs %d --seed %d -j %d --duration %d --flaps %d%s%s"
        runs seed jobs duration flaps
        (if tiny then " --tiny" else "")
        (if directory then " --directory" else "")
    in
    Format.printf "chaos: %d runs over %d targets, base seed %d, plan %a%s%s@." runs
      (List.length targets) seed Fault.Chaos.pp chaos
      (if recover then ", recover" else ", brownout")
      (if jobs > 1 then Printf.sprintf ", %d jobs" jobs else "");
    run_campaign ~prefix:"chaos" ~repro_line ~verbose (fun ~on_outcome ->
        Fault.Torture.campaign ~params ~runs ~jobs ~targets ~seed ~on_outcome ())
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Link-outage chaos campaign: flapping links and a 2-region partition with a \
          scheduled heal against the token recovery stack (reliable transport with \
          retransmission backoff, token recreation). Pass criterion: the run \
          completes with zero violations; it reads survived-partition when the cut held \
          copies, whether it ended during the cut or after the heal. With \
          $(b,--directory), the \
          loss-free brownout rendition runs against DirectoryCMP. Exit codes: 0 \
          survived/clean, 1 invariant violation, 2 watchdog/liveness timeout.")
    Term.(
      const run $ runs_arg $ seed_arg $ jobs_arg $ tiny_arg $ duration_arg $ flaps_arg
      $ directory_arg $ verbose_arg)

(* ---- faultrate ---- *)

let faultrate_cmd =
  let probs_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05 ]
      & info [ "probs" ] ~docv:"P1,P2"
          ~doc:"Token-carrying drop probabilities to sweep.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer probabilities and seeds.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Also write the sweep as JSON: the $(b,data) object of BENCH_faultrate.json, \
             the table under the key $(b,sweep).")
  in
  let run probs seeds quick out =
    let probs = if quick then [ 0.0; 0.01; 0.05 ] else probs in
    let seeds = if quick then [ 1; 2 ] else seeds in
    Printf.printf "faultrate: recovery-mode sweep, %d seeds per point\n%!"
      (List.length seeds);
    let table, unclean = Tokencmp.Experiments.faultrate ~probs ~seeds in
    print_string (Tokencmp.Table.to_markdown table);
    List.iter
      (fun (prob, o) ->
        let file = Printf.sprintf "faultrate-p%g-seed%d.repro.json" prob o.Fault.Torture.seed in
        Forensics.Bundle.write_file file (Forensics.Bundle.make o);
        Printf.printf "repro bundle %s (tokencmp replay %s)\n" file file)
      unclean;
    (match out with
    | None -> ()
    | Some file ->
      Tcjson.write_file file (Tokencmp.Table.keyed_to_json [ ("sweep", table) ]);
      Printf.printf "wrote %s\n" file);
    if unclean <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "faultrate"
       ~doc:
         "Recovery-mode fault-rate sweep: runtime, retransmissions and token recreations \
          vs token-carrying drop probability. Every point must survive cleanly.")
    Term.(const run $ probs_arg $ seeds_arg $ quick_arg $ out_arg)

(* ---- profile ---- *)

let profile_cmd =
  let workload_arg =
    Arg.(
      value & opt string "locking:8"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload: locking:N, barrier, prodcons, oltp, apache, specjbb.")
  in
  let out_arg =
    Arg.(
      value & opt string "tokencmp.profile.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"JSON report output path (same tables and keys as BENCH_profile.json data).")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Also write the Perfetto trace (spans + counter tracks) to FILE.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Event ring capacity; oldest events are dropped beyond it.")
  in
  let period_arg =
    Arg.(
      value & opt int 1_000
      & info [ "sample-period" ] ~docv:"NS"
          ~doc:"Counter-track sampling cadence in simulated nanoseconds.")
  in
  let topk_arg =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"K" ~doc:"Depth of the hot/contended block tables.")
  in
  let run protocol workload seed tiny out trace capacity period top_k =
    let config = config_of_tiny tiny in
    if period <= 0 then begin
      prerr_endline "profile: --sample-period must be positive";
      exit 2
    end;
    match workload_programs ~config ~seed workload with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok programs ->
      let report =
        Tokencmp.Profiler.profile ~config ~capacity ~period:(Sim.Time.ns period)
          ~top_k ~protocol ~programs ~seed ()
      in
      let tables = Tokencmp.Profiler.tables [ report ] in
      List.iter (fun (_, t) -> print_string (Tokencmp.Table.to_markdown t)) tables;
      Tcjson.write_file out (Tokencmp.Table.keyed_to_json tables);
      Printf.printf "wrote %s\n" out;
      (match trace with
      | None -> ()
      | Some file ->
        Tcjson.write_file file report.Tokencmp.Profiler.perfetto;
        Printf.printf "wrote %s (open in https://ui.perfetto.dev)\n" file);
      let rc = report.Tokencmp.Profiler.reconciliation in
      if rc.Tokencmp.Profiler.buffer_dropped > 0 then
        Printf.eprintf
          "profile: the trace ring dropped %d events and %d retires have no span; the span \
           tables are approximate\n"
          rc.Tokencmp.Profiler.buffer_dropped rc.Tokencmp.Profiler.dropped_spans;
      let failures = Tokencmp.Profiler.failures report in
      List.iter (Printf.eprintf "profile: FAILED: %s\n") failures;
      if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one fully instrumented simulation and print the coherence profile: the run, \
          miss classification with per-class latency, hop-level critical-path attribution \
          (overall and p99 tail), hot/contended blocks and an exact reconciliation, as the \
          tables the profile bench section commits. Exits 1 when the run did not complete \
          or the profile does not reconcile, after writing its files.")
    Term.(
      const run $ protocol_arg $ workload_arg $ seed_arg $ tiny_arg $ out_arg $ trace_arg
      $ capacity_arg $ period_arg $ topk_arg)

(* ---- check ---- *)

let check_cmd =
  let max_states_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-states" ] ~docv:"N" ~doc:"State-count safety limit.")
  in
  let run max_states =
    let module E = Tokencmp.Experiments in
    let failed =
      Seq.fold_left
        (fun failed r ->
          Format.printf "%-17s %dc cap %d (%4d LoC) %a@." r.E.model r.E.caches r.E.net_cap
            r.E.model_loc Mc.Explore.pp_stats r.E.stats;
          failed || E.mc_failed r)
        false (E.model_checking ~max_states ())
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Model-check the substrate variants and the flat directory.")
    Term.(const run $ max_states_arg)

(* ---- replay ---- *)

let bundle_pos_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BUNDLE" ~doc:"A *.repro.json bundle written by torture/chaos/shrink.")

let replay_cmd =
  let run file =
    match Forensics.Bundle.read_file file with
    | Error msg ->
      Printf.eprintf "replay: %s\n" msg;
      exit 4
    | Ok b ->
      let open Forensics in
      Format.printf "replaying %s: %s seed=%d%s@." file
        (Fault.Torture.target_name b.Bundle.target)
        b.Bundle.seed
        (match b.Bundle.params.Fault.Torture.p_script with
        | Some evs -> Printf.sprintf " (scripted, %d events)" (List.length evs)
        | None -> " (stochastic)");
      (match Replay.check b with
      | Replay.Reproduced o ->
        let v = Fault.Torture.verdict o in
        Format.printf "reproduced bit-identically: %a@." Fault.Torture.pp_verdict v;
        Format.printf "  %a@." Bundle.pp_digest b.Bundle.recorded;
        exit (Replay.exit_code o)
      | Replay.Diverged { expected; got; _ } ->
        Format.printf "DIVERGED from recorded run:@.";
        Format.printf "  recorded: %a@." Bundle.pp_digest expected;
        Format.printf "  got:      %a@." Bundle.pp_digest got;
        exit 3)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a repro bundle deterministically and verify the recorded outcome \
          reproduces bit-identically (verdict, ops, events, runtime, misses, report \
          kinds). Exit codes: the recorded verdict's code (0 clean/survived, 1 \
          invariant/detected, 2 liveness) when reproduced, 3 on divergence, 4 on a \
          malformed bundle.")
    Term.(const run $ bundle_pos_arg)

(* ---- shrink ---- *)

let shrink_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Minimal bundle output path (default: BUNDLE with .min.repro.json).")
  in
  let trace_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Perfetto trace of the minimized run (default: BUNDLE with .min.trace.json).")
  in
  let assert_max_arg =
    Arg.(
      value & opt (some int) None
      & info [ "assert-max-schedule" ] ~docv:"N"
          ~doc:"Exit 1 unless the minimal schedule has at most N events (CI gate).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress shrink progress lines.")
  in
  let derive file suffix =
    let base =
      match Filename.chop_suffix_opt ~suffix:".repro.json" file with
      | Some b -> b
      | None -> file
    in
    base ^ suffix
  in
  let run file jobs out trace_out assert_max quiet =
    let jobs = resolve_jobs jobs in
    match Forensics.Bundle.read_file file with
    | Error msg ->
      Printf.eprintf "shrink: %s\n" msg;
      exit 4
    | Ok b -> (
      let log = if quiet then fun _ -> () else fun s -> Printf.printf "%s\n%!" s in
      match Forensics.Shrink.run ~jobs ~log b with
      | Error msg ->
        Printf.eprintf "shrink: %s\n" msg;
        exit 4
      | Ok r ->
        let open Forensics in
        print_string (Shrink.report r);
        let out = match out with Some o -> o | None -> derive file ".min.repro.json" in
        Bundle.write_file out r.Shrink.r_bundle;
        Printf.printf "wrote %s (verify with: tokencmp replay %s)\n" out out;
        (match r.Shrink.r_outcome.Fault.Torture.trace with
        | Tcjson.Null -> ()
        | trace ->
          let tf =
            (* Name the trace after the bundle actually written. *)
            match trace_out with
            | Some f -> f
            | None -> (
              match Filename.chop_suffix_opt ~suffix:".repro.json" out with
              | Some base -> base ^ ".trace.json"
              | None -> out ^ ".trace.json")
          in
          Tcjson.write_file tf trace;
          Printf.printf "wrote %s (minimized run, load in Perfetto)\n" tf);
        (match assert_max with
        | Some n when List.length r.Shrink.r_schedule > n ->
          Printf.printf "shrink: minimal schedule has %d events, budget was %d\n"
            (List.length r.Shrink.r_schedule) n;
          exit 1
        | _ -> ()))
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Delta-debug a failing repro bundle down to a 1-minimal fault schedule \
          (ddmin over the materialized fault events, composed with horizon truncation \
          and machine-shape shrinking), then write the minimal scripted bundle, a \
          human-readable forensics report and a Perfetto trace of the minimized run. \
          Candidate schedules are evaluated in parallel with $(b,-j); the result is \
          identical for any value.")
    Term.(
      const run $ bundle_pos_arg $ jobs_arg $ out_arg $ trace_out_arg $ assert_max_arg
      $ quiet_arg)

let () =
  let doc = "TokenCMP: M-CMP cache coherence with flat correctness (HPCA 2005 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tokencmp" ~doc)
          [ list_cmd; run_cmd; sweep_cmd; torture_cmd; chaos_cmd; faultrate_cmd; profile_cmd;
            check_cmd; replay_cmd; shrink_cmd ]))
