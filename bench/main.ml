(* Regenerates every table and figure of the paper's evaluation:
     fig2   locking micro-benchmark, persistent requests only
     fig3   locking micro-benchmark, transient + persistent
     tab4   barrier micro-benchmark
     fig6   commercial-workload runtime
     fig7   inter- and intra-CMP traffic breakdowns
     sec5   model-checking study, with Table 4's checkability comparison
     tab1   the TokenCMP variant table
     ablate design-choice ablations (not in the paper's figures)
     scale  8-CMP multicast and the 16..576-cache server-scale curve
     profile    coherence profiler on token vs directory, overhead
     faultrate  recovery-mode cost vs token-drop probability
     chaos      partition duration vs runtime
     forensics  ddmin shrink cost on the planted counterexamples
     perf   kernel hot-path throughput + per-section wall-clock roll-up

   Run with no arguments for everything, or name the sections:
     dune exec bench/main.exe -- fig2 fig6
   Add "quick" to shrink run lengths; "-j N" fans the independent
   simulations out over N domains (0 = all cores; default
   $TOKENCMP_JOBS or serial).

   A section returns its result tables, each a Tokencmp.Table under a
   JSON key. The driver at the bottom prints the section's title, note
   and tables as markdown, and writes exactly those tables, under their
   keys, as the data of BENCH_<section>.json (schema in README), so the
   text on stdout and the committed trajectory cannot drift apart. *)

module E = Tokencmp.Experiments
module P = Tokencmp.Protocols
module T = Tokencmp.Table
module J = Tcjson

let quick = ref false
let jobs = ref 1
let seeds () = if !quick then [ 1 ] else [ 1; 2 ]

(* The scale section reports 95% CIs on its headline OLTP rows; n=2
   barely defines one, so it runs more seeds than the figure sections. *)
let scale_seeds () = if !quick then [ 1 ] else [ 1; 2; 3; 4; 5 ]
let acquires () = if !quick then 25 else 50
let episodes () = if !quick then 10 else 25
let ops () = if !quick then 1200 else 2200
let locks () = if !quick then [ 2; 8; 32; 128; 512 ] else [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]

let progress fmt = Printf.eprintf fmt

let mean (r : E.run) = r.E.runtime_ns.Sim.Stat.Summary.mean

(* A bench section: the title and note printed above its tables, and
   the run that returns them under their JSON keys. *)
type section = { title : string; note : string; tables : unit -> (string * T.t) list }

(* A section that finds failures prints one line for each and exits 1
   before its JSON is written, so no committed file holds a failed
   run. *)
let fail_on name failures =
  List.iter (fun f -> Printf.eprintf "[%s] FAILED: %s\n%!" name f) failures;
  if failures <> [] then exit 1

(* Every summarized run of a section in one long table: the point's
   columns (lock count, work, workload), then the run's. *)
let runs_table points =
  T.make "Runs (runtime in ns over seeds)"
    (List.concat_map
       (fun (point, runs) ->
         List.map
           (fun (r : E.run) ->
             let s = r.E.runtime_ns in
             point
             @ [
                 ("protocol", J.String r.E.protocol);
                 ("runtime_ns_mean", J.Float s.Sim.Stat.Summary.mean);
                 ("runtime_ns_ci95", J.Float s.Sim.Stat.Summary.ci95);
                 ("runtime_ns_stddev", J.Float s.Sim.Stat.Summary.stddev);
                 ("seeds", J.Int s.Sim.Stat.Summary.n);
                 ("persistent_fraction", J.Float r.E.persistent_fraction);
                 ("retries_per_miss", J.Float r.E.retries_per_miss);
                 ("miss_latency_ns", J.Float r.E.miss_latency_ns);
                 ("completed", J.Bool r.E.completed);
               ])
           runs)
       points)

(* ------------------------------------------------------------------ *)
(* Figures 2 and 3: locking micro-benchmark                            *)

(* The lock sweep normalized to DirectoryCMP at the highest lock count,
   and every run. *)
let locking_tables protocols () =
  let sweep =
    E.locking_sweep ~jobs:!jobs ~seeds:(seeds ()) ~acquires:(acquires ()) ~locks:(locks ())
      ~protocols ()
  in
  let _, low_contention = List.hd (List.rev sweep) in
  let baseline = E.find low_contention "DirectoryCMP" in
  [
    ( "normalized",
      T.make "Normalized runtime (baseline: DirectoryCMP at max locks; smaller is better)"
        (List.map
           (fun (nlocks, runs) ->
             ("locks", J.Int nlocks)
             :: List.concat_map
                  (fun p ->
                    let r = E.find runs p.P.name in
                    [
                      (p.P.name, J.Float (E.normalize ~baseline r));
                      (p.P.name ^ " us", J.Float (mean r /. 1000.));
                    ])
                  protocols)
           sweep) );
    ( "runs",
      runs_table (List.map (fun (nlocks, runs) -> ([ ("locks", J.Int nlocks) ], runs)) sweep) );
  ]

let fig2 =
  { title = "Figure 2: locking micro-benchmark, persistent requests only";
    note = "Paper shape: TokenCMP-arb0 far worse than DirectoryCMP under contention\n\
            (~3.7x at 2 locks); TokenCMP-dst0 comparable or better than the directory\n\
            across the sweep.";
    tables = locking_tables E.fig2_protocols }

let fig3 =
  { title = "Figure 3: locking micro-benchmark, transient + persistent requests";
    note = "Paper shape: token variants ~2x faster than DirectoryCMP at 512 locks\n\
            (many lock handoffs are remote sharing misses that the directory\n\
            indirects); contention degrades the token variants, with dst1-pred most\n\
            robust and retry-happy policies worst.";
    tables = locking_tables E.fig3_protocols }

(* ------------------------------------------------------------------ *)
(* Table 4: barrier micro-benchmark                                    *)

let tab4_tables () =
  let paper = function
    | "TokenCMP-arb0" -> (1.40, 1.29)
    | "TokenCMP-dst0" -> (0.94, 0.91)
    | "DirectoryCMP" -> (1.00, 1.00)
    | "DirectoryCMP-zero" -> (0.95, 0.93)
    | "TokenCMP-dst4" -> (1.15, 1.01)
    | "TokenCMP-dst1" -> (0.99, 0.95)
    | "TokenCMP-dst1-pred" -> (0.96, 0.93)
    | "TokenCMP-dst1-filt" -> (0.99, 0.95)
    | _ -> (nan, nan)
  in
  let barrier variability =
    E.barrier ~jobs:!jobs ~seeds:(seeds ()) ~episodes:(episodes ()) ~variability
      ~protocols:E.tab4_protocols ()
  in
  let fixed = barrier Sim.Time.zero in
  let vary = barrier (Sim.Time.ns 1000) in
  let base_fixed = E.find fixed "DirectoryCMP" in
  let base_vary = E.find vary "DirectoryCMP" in
  [
    ( "normalized",
      T.make "Work 3000 ns fixed, and 3000 ns + U(1000)"
        (List.map
           (fun p ->
             let name = p.P.name in
             let pf, pv = paper name in
             [
               ("protocol", J.String name);
               ("fixed", J.Float (E.normalize ~baseline:base_fixed (E.find fixed name)));
               ("vary", J.Float (E.normalize ~baseline:base_vary (E.find vary name)));
               ("paper fixed", J.Float pf);
               ("paper vary", J.Float pv);
             ])
           E.tab4_protocols) );
    ( "runs",
      runs_table [ ([ ("work", J.String "fixed") ], fixed); ([ ("work", J.String "vary") ], vary) ]
    );
  ]

let tab4 =
  { title = "Table 4: barrier micro-benchmark runtime (normalized to DirectoryCMP)";
    note = "";
    tables = tab4_tables }

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: commercial workloads                               *)

let fig6_cache : (string * E.run list) list ref = ref []

let runs_for profile =
  let name = profile.Workload.Commercial.name in
  match List.assoc_opt name !fig6_cache with
  | Some runs -> runs
  | None ->
    progress "[fig6/fig7] %s...\n%!" name;
    let runs =
      E.commercial ~jobs:!jobs ~seeds:(seeds ()) ~ops:(ops ()) ~profile
        ~protocols:E.fig6_protocols ()
    in
    fig6_cache := (name, runs) :: !fig6_cache;
    runs

let fig6_tables () =
  let table =
    List.map (fun p -> (p.Workload.Commercial.name, runs_for p)) Workload.Commercial.all
  in
  let paper_dst1 = function
    | "OLTP" -> 1. /. 1.50
    | "Apache" -> 1. /. 1.29
    | "SpecJBB" -> 1. /. 1.10
    | _ -> nan
  in
  let row label value =
    ("protocol", J.String label)
    :: List.map (fun (workload, runs) -> (workload, J.Float (value workload runs))) table
  in
  [
    ( "normalized",
      T.make "Normalized runtime"
        (List.map
           (fun proto ->
             row proto.P.name (fun _ runs ->
                 E.normalize ~baseline:(E.find runs "DirectoryCMP") (E.find runs proto.P.name)))
           E.fig6_protocols
        @ [ row "(paper TokenCMP-dst1)" (fun workload _ -> paper_dst1 workload) ]) );
    ( "persistent",
      T.make "TokenCMP-dst1 persistent requests, % of misses (paper: < 0.3%)"
        (List.map
           (fun (workload, runs) ->
             [
               ("workload", J.String workload);
               ( "persistent %",
                 J.Float (100. *. (E.find runs "TokenCMP-dst1").E.persistent_fraction) );
             ])
           table) );
    ( "runs",
      runs_table
        (List.map (fun (workload, runs) -> ([ ("workload", J.String workload) ], runs)) table) );
  ]

let fig6 =
  { title = "Figure 6: commercial workload runtime (normalized to DirectoryCMP)";
    note = "";
    tables = fig6_tables }

(* One row per (workload, message class) plus a TOTAL row; each
   protocol's bytes are a fraction of DirectoryCMP's total for the
   workload, whose absolute size is the [directory_bytes] column. *)
let traffic_table ~title ~select =
  let total r = List.fold_left (fun a (_, b) -> a +. b) 0. (select r) in
  T.make title
    (List.concat_map
       (fun profile ->
         let workload = profile.Workload.Commercial.name in
         let runs = runs_for profile in
         let base = total (E.find runs "DirectoryCMP") in
         let row label bytes =
           ("workload", J.String workload)
           :: ("class", J.String label)
           :: ("directory_bytes", J.Float base)
           :: List.map
                (fun p -> (p.P.name, J.Float (bytes (E.find runs p.P.name) /. base)))
                E.fig6_protocols
         in
         List.map
           (fun cls ->
             row (Interconnect.Msg_class.to_string cls) (fun r -> List.assoc cls (select r)))
           Interconnect.Msg_class.all
         @ [ row "TOTAL" total ])
       Workload.Commercial.all)

let fig7 =
  { title = "Figure 7: traffic by message type (normalized to DirectoryCMP)";
    note = "Paper shape: inter-CMP, TokenCMP totals slightly BELOW DirectoryCMP (the\n\
            directory spends extra control messages per transaction); intra-CMP,\n\
            similar totals, token spending more on (broadcast) requests and the\n\
            directory more on response data (L1 data routes through the L2).";
    tables =
      (fun () ->
        [
          ( "inter_cmp",
            traffic_table ~title:"Figure 7a: inter-CMP traffic" ~select:(fun r -> r.E.inter_bytes)
          );
          ( "intra_cmp",
            traffic_table ~title:"Figure 7b: intra-CMP traffic" ~select:(fun r -> r.E.intra_bytes)
          );
        ]) }

(* ------------------------------------------------------------------ *)
(* Section 5: model checking                                           *)

let sec5_tables () =
  let describe (r : E.mc_row) =
    Format.asprintf "%s %dc cap %d: %a" r.E.model r.E.caches r.E.net_cap Mc.Explore.pp_stats
      r.E.stats
  in
  let rows =
    E.model_checking ?max_states:(if !quick then Some 300_000 else None) ()
    |> Seq.map (fun r ->
           progress "[sec5] %s\n%!" (describe r);
           r)
    |> List.of_seq
  in
  fail_on "sec5" (List.map describe (List.filter E.mc_failed rows));
  [
    ( "model_checking",
      T.make "Model-checking results"
        (List.map
           (fun (r : E.mc_row) ->
             let s = r.E.stats in
             [
               ("model", J.String r.E.model);
               ("caches", J.Int r.E.caches);
               ("net_cap", J.Int r.E.net_cap);
               ("states", J.Int s.Mc.Explore.states);
               ("transitions", J.Int s.Mc.Explore.transitions);
               ("diameter", J.Int s.Mc.Explore.diameter);
               ("goals", J.Int s.Mc.Explore.goals);
               ("doomed", match s.Mc.Explore.doomed with Some d -> J.Int d | None -> J.Null);
               ("truncated", J.Bool s.Mc.Explore.truncated);
               ( "violation",
                 match s.Mc.Explore.violation with None -> J.Null | Some (v, _) -> J.String v );
               ("model_loc", J.Int r.E.model_loc);
             ])
           rows) );
  ]

let sec5 =
  { title = "Section 5: model-checking the correctness substrate";
    note = "All variants must satisfy: token conservation, single owner,\n\
            owner-implies-data, serial view of memory; plus the liveness proxy\n\
            (no reachable state is doomed). Policy actions are nondeterministic, so\n\
            the result covers every performance policy. Model LoC is the analogue of\n\
            the paper's non-comment TLA+ line counts (383/396 token vs 1025 flat\n\
            directory). The last four rows are Table 4's checkability comparison:\n\
            TokenCMP-dst and the flat directory at one network cap, at the paper's\n\
            2 caches and one size above.";
    tables = sec5_tables }

(* ------------------------------------------------------------------ *)
(* Table 1: variants                                                   *)

let tab1 =
  { title = "Table 1: TokenCMP variants";
    note = "";
    tables =
      (fun () ->
        [
          ( "variants",
            T.make "Variants"
              (List.map
                 (fun (p : Token.Policy.t) ->
                   [
                     ("protocol", J.String p.name);
                     ("transient_requests", J.Int p.transient_requests);
                     ( "activation",
                       J.String
                         (match p.activation with
                         | Token.Policy.Arbiter -> "arbiter"
                         | Token.Policy.Distributed -> "distributed") );
                     ("predictor", J.Bool p.predictor);
                     ("filter", J.Bool p.filter);
                     ("multicast", J.Bool p.multicast);
                   ])
                 Token.Policy.all) );
        ]) }

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablate_tables () =
  let locking = E.locking ~jobs:!jobs ~seeds:(seeds ()) ~acquires:(acquires ()) in
  let run protocols = locking ~protocols ~nlocks:16 () in
  let oltp config =
    let profile = { Workload.Commercial.oltp with Workload.Commercial.ops = ops () } in
    E.commercial ~jobs:!jobs ~config ~seeds:(seeds ()) ~profile
      ~protocols:[ P.directory; P.token Token.Policy.dst1 ] ()
  in
  let row ablation measure value =
    [ ("ablation", J.String ablation); ("measure", J.String measure); ("value", J.Float value) ]
  in
  (* 1. hierarchical vs flat broadcast *)
  let r = run [ P.token Token.Policy.dst1; P.token Token.Policy.dst1_flat ] in
  let d = E.find r "TokenCMP-dst1" and f = E.find r "TokenCMP-dst1-flat" in
  let inter r = List.fold_left (fun a (_, b) -> a +. b) 0. r.E.inter_bytes in
  let flat =
    [
      row "flat_broadcast" "dst1_runtime_ns" (mean d);
      row "flat_broadcast" "flat_runtime_ns" (mean f);
      row "flat_broadcast" "dst1_inter_bytes" (inter d);
      row "flat_broadcast" "flat_inter_bytes" (inter f);
    ]
  in
  (* 2. migratory sharing *)
  let mig_off = { Mcmp.Config.default with Mcmp.Config.migratory = false } in
  let r_on = run [ P.token Token.Policy.dst1; P.directory ] in
  let r_off =
    locking ~config:mig_off ~protocols:[ P.token Token.Policy.dst1; P.directory ] ~nlocks:16 ()
  in
  let migratory =
    List.concat_map
      (fun name ->
        [
          row "migratory" (name ^ "_on_ns") (mean (E.find r_on name));
          row "migratory" (name ^ "_off_ns") (mean (E.find r_off name));
        ])
      [ "TokenCMP-dst1"; "DirectoryCMP" ]
  in
  (* 3. response-delay window *)
  let no_delay = { Mcmp.Config.default with Mcmp.Config.response_delay = Sim.Time.zero } in
  let r_nd = locking ~config:no_delay ~protocols:[ P.token Token.Policy.dst1 ] ~nlocks:4 () in
  let r_d = locking ~protocols:[ P.token Token.Policy.dst1 ] ~nlocks:4 () in
  let delay =
    [
      row "response_delay_window" "with_window_ns" (mean (E.find r_d "TokenCMP-dst1"));
      row "response_delay_window" "without_window_ns" (mean (E.find r_nd "TokenCMP-dst1"));
    ]
  in
  (* 4. timeout estimation: memory responses vs all responses *)
  let all_resp =
    { Token.Policy.dst1 with Token.Policy.name = "dst1-timeout-all"; timeout_all_responses = true }
  in
  let r_t = run [ P.token Token.Policy.dst1; P.token all_resp ] in
  let timeout =
    [
      row "timeout_estimation" "memory_responses_ns" (mean (E.find r_t "TokenCMP-dst1"));
      row "timeout_estimation" "all_responses_ns" (mean (E.find r_t "dst1-timeout-all"));
    ]
  in
  (* 5. Arbiter colocation (Section 7: "TokenCMP-arb0 performs even
     worse when highly-contended locks map to the same arbiter"). *)
  let spread = locking ~protocols:[ P.token Token.Policy.arb0 ] ~nlocks:4 () in
  let colocated = locking ~lock_stride:4 ~protocols:[ P.token Token.Policy.arb0 ] ~nlocks:4 () in
  let coloc =
    [
      row "arbiter_colocation" "spread_ns" (mean (E.find spread "TokenCMP-arb0"));
      row "arbiter_colocation" "colocated_ns" (mean (E.find colocated "TokenCMP-arb0"));
    ]
  in
  (* 6. Inter-CMP bandwidth sensitivity: the paper notes its traffic
     plots matter "for other assumptions"; squeeze the global links and
     watch broadcast overhead bite. *)
  let squeeze bw =
    let fabric = { Interconnect.Fabric.default_params with inter_bytes_per_ns = bw } in
    let runs = oltp { Mcmp.Config.default with Mcmp.Config.fabric } in
    E.normalize ~baseline:(E.find runs "DirectoryCMP") (E.find runs "TokenCMP-dst1")
  in
  let bandwidth =
    List.map
      (fun (label, bw) -> row "bandwidth_sensitivity" label (squeeze bw))
      [ ("16GBps", 16.); ("8GBps", 8.); ("4GBps", 4.) ]
  in
  (* 7. L2 capacity pressure: the paper's billion-instruction commercial
     runs keep the 8MB L2 churning, producing the writeback traffic of
     Fig. 7a; our short runs cannot fill it, so emulate the steady state
     with a 1MB L2. *)
  let r_small = oltp { Mcmp.Config.default with Mcmp.Config.l2_sets = 1024 } in
  let dir = E.find r_small "DirectoryCMP" and tok = E.find r_small "TokenCMP-dst1" in
  let wb_share r = List.assoc Interconnect.Msg_class.Writeback_data r.E.inter_bytes /. inter r in
  let l2 =
    [
      row "l2_capacity_pressure" "directory_inter_bytes" (inter dir);
      row "l2_capacity_pressure" "dst1_inter_bytes" (inter tok);
      row "l2_capacity_pressure" "directory_writeback_share" (wb_share dir);
      row "l2_capacity_pressure" "dst1_writeback_share" (wb_share tok);
      row "l2_capacity_pressure" "runtime_ratio" (E.normalize ~baseline:dir tok);
    ]
  in
  [
    ( "ablations",
      T.make "Ablation results" (flat @ migratory @ delay @ timeout @ coloc @ bandwidth @ l2) );
  ]

let ablate =
  { title = "Ablations (DESIGN.md section 4; not figures of the paper)";
    note = "Locking with 16 locks unless noted; runtimes are mean ns per run.\n\
            - flat_broadcast: TokenB-style flat broadcast sends everything inter-CMP.\n\
            - response_delay_window: 4 locks.\n\
            - timeout_estimation: averaging all responses (TokenB-style) admits fast\n\
           \  on-chip hits and fires premature retries.\n\
            - arbiter_colocation (4 contended locks): the paper finds colocation even\n\
           \  worse; distributed activation is immune to where locks map.\n\
            - bandwidth_sensitivity (OLTP, dst1/directory runtime ratio): broadcasts\n\
           \  consume more link bandwidth, so token's advantage narrows as the global\n\
           \  links tighten.\n\
            - l2_capacity_pressure (OLTP, 1MB L2): emulates the steady-state L2 churn\n\
           \  behind Fig. 7a's writeback traffic.";
    tables = ablate_tables }

(* ------------------------------------------------------------------ *)
(* Scaling: 8 CMPs and destination-set-prediction multicast            *)

let scale_tables () =
  let config8 =
    { Mcmp.Config.default with Mcmp.Config.ncmp = 8; tokens = 128 }
  in
  let profile = { Workload.Commercial.oltp with Workload.Commercial.ops = ops () } in
  let protocols =
    [ P.directory; P.token Token.Policy.dst1; P.token Token.Policy.dst1_mcast ]
  in
  let runs =
    E.commercial ~jobs:!jobs ~config:config8 ~seeds:(scale_seeds ()) ~profile ~protocols ()
  in
  let baseline = E.find runs "DirectoryCMP" in
  let inter r = List.fold_left (fun a (_, b) -> a +. b) 0. r.E.inter_bytes in
  let oltp_8cmp =
    T.make "OLTP on 8 CMPs"
      (List.map
         (fun p ->
           let r = E.find runs p.P.name in
           [
             ("protocol", J.String p.P.name);
             ("runtime_ns", J.Float (mean r));
             ("ci95_ns", J.Float r.E.runtime_ns.Sim.Stat.Summary.ci95);
             ("normalized", J.Float (E.normalize ~baseline r));
             ("inter_bytes", J.Float (inter r));
             ("persistent_pct", J.Float (100. *. r.E.persistent_fraction));
           ])
         protocols)
  in
  (* Stable point-to-point sharing is where destination-set prediction
     pays off on both latency and traffic. *)
  progress "[scale] producer-consumer with multicast...\n%!";
  let pc = { Workload.Producer_consumer.default with Workload.Producer_consumer.rounds = 40 } in
  let nprocs = Mcmp.Config.nprocs Mcmp.Config.default in
  let pc_row proto =
    let results =
      Par.Pool.map ~jobs:!jobs
        ~label:(fun _ seed -> Printf.sprintf "prodcons %s seed=%d" proto.P.name seed)
        (fun seed ->
          Mcmp.Runner.uncapped
            (Mcmp.Runner.run ~config:Mcmp.Config.default proto.P.builder
               ~programs:(fun ~proc ->
                 Workload.Producer_consumer.programs pc ~seed ~nprocs ~proc)
               ~seed))
        (scale_seeds ())
    in
    let n = float_of_int (List.length results) in
    let favg f = List.fold_left (fun a r -> a +. f r) 0. results /. n in
    [
      ("protocol", J.String proto.P.name);
      ("runtime_us", J.Float (favg (fun r -> Sim.Time.to_ns r.Mcmp.Runner.runtime) /. 1000.));
      ( "inter_bytes",
        J.Float
          (favg (fun r -> float_of_int (Interconnect.Traffic.inter_total r.Mcmp.Runner.traffic)))
      );
      ( "persistent_pct",
        J.Float (favg (fun r -> 100. *. Mcmp.Counters.persistent_fraction r.Mcmp.Runner.counters))
      );
      ("completed", J.Bool (List.for_all (fun r -> r.Mcmp.Runner.completed) results));
    ]
  in
  let producer_consumer =
    T.make
      (Printf.sprintf "Producer-consumer pairs (%d rounds, cross-chip)"
         pc.Workload.Producer_consumer.rounds)
      (List.map pc_row [ P.directory; P.token Token.Policy.dst1; P.token Token.Policy.dst1_mcast ])
  in
  (* Server-scale curve: 16 caches per CMP (6 procs x 2 L1 + 4 L2
     banks), CMP count swept so the machine lands exactly on 16, 64,
     128 and 256 caches, on both DirectoryCMP and TokenCMP-dst1. The
     row of interest is simulated-events per host-second — the kernel
     throughput the multi-word destination sets and pooled hot paths
     are meant to hold flat as fan-out grows. *)
  progress "[scale] server-scale curve (16..256 caches)...\n%!";
  (* Two adjustments keep the big-machine points inside the 400M-event
     safety valve without changing what the curve measures:
     - OLTP's default 1500 warmup ops/proc are calibrated for
       miss-ratio statistics on small machines; on token protocols
       each op costs O(nodes) messages, so at 256+ procs the warmup
       alone approaches the valve. The curve compares scaling shape,
       not absolute miss ratios — a short warmup suffices (runtime is
       measured after the warmup mark either way).
     - The shared footprint is weak-scaled: OLTP's block counts are
       calibrated for ~32 processors, and holding them fixed while
       growing to 256 procs measures hot-set contention collapse
       (token-request storms), not fan-out cost. Scaling the shared/
       hot/migratory/lock footprint with the processor count keeps
       per-block contention comparable across points — the standard
       server-scale methodology (a bigger machine serves a bigger
       working set). Private/code footprints are per-proc already. *)
  let weak_scale ~nprocs p =
    let f = max 1 ((nprocs + 31) / 32) in
    { p with
      Workload.Commercial.shared_blocks = f * p.Workload.Commercial.shared_blocks;
      hot_blocks = f * p.Workload.Commercial.hot_blocks;
      migratory_blocks = f * p.Workload.Commercial.migratory_blocks;
      nlocks = f * p.Workload.Commercial.nlocks }
  in
  let curve_profile =
    { Workload.Commercial.oltp with
      Workload.Commercial.warmup_ops = (if !quick then 150 else 300);
      Workload.Commercial.ops = (if !quick then 150 else 400) }
  in
  let curve_protocols = [ P.directory; P.token Token.Policy.dst1 ] in
  (* The run's result, host wall clock, and the part of it spent
     building the machine, up to [on_start]. *)
  let curve_run profile cfg proto seed =
    let t0 = Unix.gettimeofday () in
    let built = ref t0 in
    let r =
      Mcmp.Runner.uncapped
        (Mcmp.Runner.run ~config:cfg proto.P.builder
           ~on_start:(fun _ ~running:_ -> built := Unix.gettimeofday ())
           ~programs:(fun ~proc -> Workload.Commercial.program profile ~seed ~proc)
           ~seed)
    in
    (r, Unix.gettimeofday () -. t0, !built -. t0)
  in
  (* One row per protocol at one machine size. *)
  let curve_point ~pt_seeds ~profile ~ncmp ~procs_per_cmp =
    let cfg =
      { Mcmp.Config.default with
        Mcmp.Config.ncmp;
        procs_per_cmp;
        l2_banks = 4;
        tokens = 4 * ncmp * ((2 * procs_per_cmp) + 4) }
    in
    let profile = weak_scale ~nprocs:(Mcmp.Config.nprocs cfg) profile in
    let lay = Mcmp.Config.layout cfg in
    let caches = Interconnect.Layout.ncaches lay in
    List.map
      (fun proto ->
        let results =
          Par.Pool.map ~jobs:!jobs
            ~label:(fun _ seed ->
              Printf.sprintf "curve %s %d-cache seed=%d" proto.P.name caches seed)
            (fun seed -> curve_run profile cfg proto seed)
            pt_seeds
        in
        let n = float_of_int (List.length results) in
        let events = List.fold_left (fun a (r, _, _) -> a + r.Mcmp.Runner.events) 0 results in
        let ops = List.fold_left (fun a (r, _, _) -> a + r.Mcmp.Runner.ops) 0 results in
        let wall = List.fold_left (fun a (_, w, _) -> a +. w) 0. results in
        let build = List.fold_left (fun a (_, _, b) -> a +. b) 0. results in
        let runtime_ns =
          List.fold_left (fun a (r, _, _) -> a +. Sim.Time.to_ns r.Mcmp.Runner.runtime) 0. results
          /. n
        in
        [
          ("caches", J.Int caches);
          ("nodes", J.Int (Interconnect.Layout.node_count lay));
          ("ncmp", J.Int ncmp);
          ("procs_per_cmp", J.Int procs_per_cmp);
          ("protocol", J.String proto.P.name);
          ("runtime_ns_mean", J.Float runtime_ns);
          ("events", J.Int events);
          ("events_per_host_s", J.Float (float_of_int events /. wall));
          ("host_wall_s", J.Float wall);
          ("build_s", J.Float build);
          ("ops", J.Int ops);
          (* Host time per retired op, set-up excluded: the unit that
             stays comparable when a change saves events. *)
          ("host_ns_per_op", J.Float ((wall -. build) *. 1e9 /. float_of_int ops));
          ("completed", J.Bool (List.for_all (fun (r, _, _) -> r.Mcmp.Runner.completed) results));
        ])
      curve_protocols
  in
  let server_scale_curve =
    T.make
      (Printf.sprintf "Server-scale curve (OLTP stand-in, %d ops/proc, n=%d seeds)"
         curve_profile.Workload.Commercial.ops
         (List.length (scale_seeds ())))
      (List.concat_map
         (fun ncmp ->
           curve_point ~pt_seeds:(scale_seeds ()) ~profile:curve_profile ~ncmp ~procs_per_cmp:6)
         [ 1; 4; 8; 16 ])
  in
  (* Headline completion check: 16 CMPs x 16 cores per CMP — 256
     processors, 576 caches, 592 coherence nodes — must finish on both
     protocols now that nothing in the stack is bounded by one 63-bit
     word. One seed, few ops: this row is about completing at scale,
     not statistics. *)
  progress "[scale] 16 CMP x 16 core completion check...\n%!";
  let headline_profile =
    { Workload.Commercial.oltp with
      Workload.Commercial.warmup_ops = 150;
      Workload.Commercial.ops = (if !quick then 60 else 150) }
  in
  let headline =
    T.make "16 CMP x 16 core machine (completion check, one seed)"
      (curve_point ~pt_seeds:[ 1 ] ~profile:headline_profile ~ncmp:16 ~procs_per_cmp:16)
  in
  [
    ("oltp_8cmp", oltp_8cmp);
    ("producer_consumer", producer_consumer);
    ("server_scale_curve", server_scale_curve);
    ("headline_16cmp_x_16core", headline);
  ]

let scale =
  { title = "Scaling to 8 CMPs (Section 8's outlook + the multicast extension)";
    note = "The paper predicts TokenCMP's inter-CMP traffic grows with the CMP count\n\
            unless destination-set prediction multicast is employed. This runs the\n\
            OLTP stand-in on an 8-CMP (32-processor) machine. Multicast escalates to\n\
            the predicted holder chip + home instead of all 8 chips; mispredictions\n\
            cost one retry and the substrate keeps them safe.";
    tables = scale_tables }

(* ------------------------------------------------------------------ *)
(* Coherence profiler                                                  *)

(* Profiles the locking micro-benchmark under TokenCMP and DirectoryCMP
   and commits the profiler's report for both. The section fails on
   [Profiler.failures], the rule [tokencmp profile] applies, and on an
   instrumented run whose outcome differs from a plain run; the
   instrumentation's wall-clock overhead is reported for the CI budget
   check. *)
let profile_tables () =
  let config = Mcmp.Config.tiny in
  let nprocs = Mcmp.Config.nprocs config in
  let wl =
    { (Workload.Locking.default ~nlocks:8) with Workload.Locking.acquires = acquires () }
  in
  (* [Locking.programs] closes over shared mutable state, so each run
     needs a fresh instance for identical behavior. *)
  let programs () = Workload.Locking.programs wl ~seed:1 ~nprocs in
  let protos = [ P.token Token.Policy.dst1; P.directory ] in
  let reports =
    List.map
      (fun proto ->
        Tokencmp.Profiler.profile ~config ~protocol:proto ~programs:(programs ()) ~seed:1 ())
      protos
  in
  (* Instrumentation must not perturb simulated outcomes... *)
  let perturbed (proto : P.t) (r : Tokencmp.Profiler.t) =
    let plain = Mcmp.Runner.run ~config proto.P.builder ~programs:(programs ()) ~seed:1 in
    if
      Sim.Time.to_ns plain.Mcmp.Runner.runtime <> r.Tokencmp.Profiler.runtime_ns
      || plain.Mcmp.Runner.ops <> r.Tokencmp.Profiler.ops
      || plain.Mcmp.Runner.counters.Mcmp.Counters.l1_misses <> r.Tokencmp.Profiler.l1_misses
    then [ proto.P.name ^ ": instrumented runtime, ops or misses differ from a plain run" ]
    else []
  in
  fail_on "profile"
    (List.concat_map Tokencmp.Profiler.failures reports
    @ List.concat (List.map2 perturbed protos reports));
  (* ...and its wall-clock cost is bounded (CI budgets the median
     ratio). Plain and instrumented runs alternate, so drift in the
     host's speed lands on both sides of a pair, and each starts from a
     collected heap, so neither pays for the other's garbage. *)
  let time_run thunk =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (thunk ());
    Unix.gettimeofday () -. t0
  in
  let proto = P.token Token.Policy.dst1 in
  let plain () = Mcmp.Runner.run ~config proto.P.builder ~programs:(programs ()) ~seed:1 in
  let instrumented () =
    (* Ring sized to the run: the budget measures per-event recording
       cost, not the one-time allocation of an oversized buffer. *)
    let buffer = Obs.Buffer.create ~capacity:65_536 () in
    let registry = Obs.Registry.create () in
    let on_start engine ~running:_ =
      ignore (Obs.Sampler.create engine registry ~period:(Sim.Time.ns 1_000))
    in
    Mcmp.Runner.run ~config ~registry ~buffer ~on_start proto.P.builder
      ~programs:(programs ()) ~seed:1
  in
  let pairs = 11 in
  let samples =
    List.init pairs (fun _ ->
        let plain_s = time_run plain in
        (plain_s, time_run instrumented))
  in
  (* Quartiles of a sample by linear interpolation between ranks. *)
  let quantile xs q =
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))
  in
  let ratios = List.map (fun (p, i) -> i /. Float.max 1e-9 p) samples in
  Tokencmp.Profiler.tables reports
  @ [
      ( "overhead",
        T.make
          (Printf.sprintf
             "Instrumentation overhead (TokenCMP-dst1, median of %d alternated pairs)" pairs)
          [
            [
              ("pairs", J.Int pairs);
              ("plain_s_median", J.Float (quantile (List.map fst samples) 0.5));
              ("instrumented_s_median", J.Float (quantile (List.map snd samples) 0.5));
              ("ratio_median", J.Float (quantile ratios 0.5));
              ("ratio_q1", J.Float (quantile ratios 0.25));
              ("ratio_q3", J.Float (quantile ratios 0.75));
              ("ratio_iqr", J.Float (quantile ratios 0.75 -. quantile ratios 0.25));
              ("noninvasive", J.Bool true);
            ];
          ] );
    ]

let profile =
  { title = "Coherence profile: miss classes, hop attribution, counter tracks";
    note = "";
    tables = profile_tables }

(* ------------------------------------------------------------------ *)
(* Fault-rate sweep (recovery mode)                                    *)

let faultrate =
  { title = "Fault-rate sweep: recovery-mode cost vs token-drop probability";
    note = "Locking micro-benchmark with the recovery stack armed (reliable\n\
            transport + token recreation). Token-carrying messages are dropped\n\
            with the given probability; every run must stay violation-free and\n\
            retire all requests, paying for the faults in retransmissions and\n\
            (when transport gives out) token recreations.";
    tables =
      (fun () ->
        let probs =
          if !quick then [ 0.0; 0.01; 0.05 ] else [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05 ]
        in
        let seeds = if !quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
        let sweep, unclean = E.faultrate ~probs ~seeds in
        fail_on "faultrate"
          (List.map
             (fun (prob, o) ->
               Format.asprintf "drop_prob %g, seed %d: %a" prob o.Fault.Torture.seed
                 Fault.Torture.pp_verdict (Fault.Torture.verdict o))
             unclean);
        [ ("sweep", sweep) ]) }

(* ------------------------------------------------------------------ *)
(* Chaos sweep: partition duration vs runtime                          *)

let chaos_tables () =
  let at = Sim.Time.us 1 in
  let token_us = if !quick then [ 0; 25; 50 ] else [ 0; 12; 25; 50; 100 ] in
  let directory_us = if !quick then [ 0; 2; 8 ] else [ 0; 2; 4; 8 ] in
  let sweep_seeds = if !quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let nseeds = float_of_int (List.length sweep_seeds) in
  let measure ~name ~directory dur =
    let chaos =
      if dur = 0 then None else Some (Fault.Chaos.split ~at ~duration:(Sim.Time.us dur) ())
    in
    let outcomes =
      List.map
        (fun seed ->
          if directory then
            Fault.Torture.run
              { Fault.Torture.default_params with p_chaos = chaos }
              (Fault.Torture.Directory { dram_directory = true })
              ~spec:Fault.Spec.none ~seed
          else
            Fault.Torture.run
              { Fault.Torture.default_params with p_recover = true; p_chaos = chaos }
              (Fault.Torture.Token Token.Policy.dst1) ~spec:Fault.Spec.none ~seed)
        sweep_seeds
    in
    let cut_copies o =
      match o.Fault.Torture.chaos with Some s -> s.Fault.Chaos.cut_copies | None -> 0
    in
    (* A cut measures something only if it held traffic and healed
       before the run ended, and every run must survive it. *)
    let held o = o.Fault.Torture.runtime > at + Sim.Time.us dur && cut_copies o > 0 in
    let point = Printf.sprintf "%s, %d us cut" name dur in
    if dur > 0 && not (List.for_all held outcomes) then
      fail_on "chaos" [ point ^ ": a run ended before the heal or the cut held no copy" ];
    fail_on "chaos"
      (List.filter_map
         (fun o ->
           match Fault.Torture.verdict o with
           | Fault.Torture.Clean | Fault.Torture.Survived_partition -> None
           | v ->
             Some
               (Format.asprintf "%s, seed %d: %a" point o.Fault.Torture.seed
                  Fault.Torture.pp_verdict v))
         outcomes);
    let runtime =
      List.fold_left (fun a o -> a +. Sim.Time.to_ns o.Fault.Torture.runtime) 0. outcomes
      /. nseeds
    in
    let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
    (dur, runtime, sum (fun o -> o.Fault.Torture.retransmits), sum cut_copies)
  in
  let protocols =
    [
      ("token-dst1+recovery", false, token_us);
      (Directory.Protocol.name ~dram_directory:true, true, directory_us);
    ]
  in
  [
    ( "partitions",
      T.make "Partition duration vs runtime"
        (List.concat_map
           (fun (name, directory, durations) ->
             let points = List.map (measure ~name ~directory) durations in
             let base = match points with (_, rt, _, _) :: _ -> rt | [] -> 1. in
             List.map
               (fun (dur, rt, rx, cut) ->
                 [
                   ("protocol", J.String name);
                   ("partition_us", J.Int dur);
                   ("runtime_ns", J.Float rt);
                   ("slowdown", J.Float (rt /. base));
                   ("retransmits", J.Int rx);
                   ("cut_copies", J.Int cut);
                   (* [measure] failed the section on any other run *)
                   ("clean", J.Bool true);
                 ])
               points)
           protocols) );
  ]

let chaos =
  { title = "Chaos sweep: partition duration vs runtime (token recovery vs directory)";
    note = "A 2-region partition opens at 1us and heals after the given\n\
            duration. TokenCMP runs the full recovery stack (reliable\n\
            transport with retransmission backoff + token recreation)\n\
            against the hard partition; DirectoryCMP cannot survive message\n\
            loss, so it takes the loss-free brownout rendition of the same\n\
            plan. Its runs end 12-15us in under a long brownout, so it sweeps\n\
            only cuts that heal inside its runs. Every run must retire all\n\
            requests, and every cut must hold traffic and heal before its run\n\
            ends.";
    tables = chaos_tables }

(* ------------------------------------------------------------------ *)
(* Forensics: counterexample shrink cost                               *)

(* Shrink cost of the two planted counterexamples the test suite pins:
   a token-drop detection (ddmin proper does the work) and a chaos
   partition livelock (the empty-schedule pre-test short-circuits).
   What the trajectory tracks: candidate simulations per shrink, the
   reduction ratio, and wall clock — the price of a 1-minimal repro. *)
let forensics_tables () =
  let cases =
    [
      ( "token-drop-detected",
        Fault.Torture.default_params,
        Fault.Torture.Token Token.Policy.dst1,
        Fault.Spec.with_drops ~tokens:true ~prob:0.02 Fault.Spec.default,
        23 );
      ( "partition-livelock",
        {
          Fault.Torture.default_params with
          Fault.Torture.p_recover = true;
          p_chaos =
            Some (Fault.Chaos.split ~at:(Sim.Time.us 5) ~duration:(Sim.Time.us 400) ());
        },
        Fault.Torture.Token Token.Policy.dst1,
        Fault.Spec.default,
        1 );
    ]
  in
  [
    ( "shrink_cost",
      T.make "Shrink cost"
        (List.map
           (fun (name, params, target, spec, seed) ->
             let b = Forensics.Bundle.make (Fault.Torture.run params target ~spec ~seed) in
             match Forensics.Shrink.run ~jobs:!jobs b with
             | Error e ->
               Printf.eprintf "[forensics] FAILED: %s: shrink failed: %s\n%!" name e;
               exit 1
             | Ok r ->
               let st = r.Forensics.Shrink.r_stats in
               [
                 ("case", J.String name);
                 ( "verdict",
                   J.String
                     (Format.asprintf "%a" Fault.Torture.pp_verdict
                        (Fault.Torture.verdict r.Forensics.Shrink.r_outcome)) );
                 ("original_events", J.Int r.Forensics.Shrink.r_original_events);
                 ("minimal_events", J.Int (List.length r.Forensics.Shrink.r_schedule));
                 ("candidate_runs", J.Int st.Forensics.Shrink.s_candidates);
                 ("failing_candidates", J.Int st.Forensics.Shrink.s_failing);
                 ("ddmin_rounds", J.Int st.Forensics.Shrink.s_rounds);
                 ("shape_trials", J.Int st.Forensics.Shrink.s_shape_trials);
                 ("wall_clock_s", J.Float st.Forensics.Shrink.s_wall_s);
               ])
           cases) );
  ]

let forensics =
  { title = "Forensics: ddmin shrink cost on the planted counterexamples";
    note = "Each planted failure is bundled and shrunk to a 1-minimal fault\n\
            schedule. Candidates run in parallel (-j) with submission-order\n\
            determinism; candidate counts are identical at any job count.";
    tables = forensics_tables }

(* ------------------------------------------------------------------ *)
(* Perf: simulation-kernel hot-path throughput                         *)

(* Wall clocks of the sections already run in this invocation, filled
   in by the driver loop below; [perf] rolls them up so one quick full
   run leaves a complete trajectory point in BENCH_perf.json. *)
let section_walls : (string * float) list ref = ref []

let perf_tables () =
  (* Host seconds and minor words of [f ()]. *)
  let measure f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Gc.minor_words () -. w0)
  in
  (* Repetitions of a kernel after a warm-up one: [rep ()] returns
     (host seconds, minor words, units of work). *)
  let reps rep =
    ignore (rep ());
    List.init (if !quick then 3 else 7) (fun _ ->
        let dt, words, n = rep () in
        (n /. dt, words /. n))
  in
  (* The median rate and the mean minor words of [reps]' rows. *)
  let summary rows =
    let rates = List.sort compare (List.map fst rows) in
    ( List.nth rates (List.length rates / 2),
      List.fold_left (fun a (_, w) -> a +. w) 0. rows /. float_of_int (List.length rows) )
  in
  (* 1. Uniform churn: schedule-then-drain batches of 4096 events with
     one preallocated empty thunk, the pure queue-discipline cost. *)
  let churn_reps =
    let batches = if !quick then 20 else 60 in
    let per_batch = 4096 in
    let e = Sim.Engine.create () in
    let nop () = () in
    reps (fun () ->
        let dt, words =
          measure (fun () ->
              for _ = 1 to batches do
                for i = 1 to per_batch do
                  Sim.Engine.schedule_in e (Sim.Time.ps ((i * 7919) land 0xffff)) nop
                done;
                Sim.Engine.run e
              done)
        in
        (dt, words, float_of_int (batches * per_batch)))
  in
  (* 2. Bursty churn, the broadcast shape: 8 independent chains, each
     scheduling a cluster of 32 events 20 ns ahead inside a 500 ps
     jitter window; the cluster's last event launches the chain's next
     cluster, so ~256 events stay pending. With [fresh], every event is
     a fresh closure, as a protocol's [schedule_in] passes; otherwise
     each chain pushes one preallocated thunk. *)
  let cluster = 32 and window_ps = 500 in
  let bursty ~fresh =
    let chains = 8 in
    let per_rep = if !quick then 250_000 else 1_000_000 in
    let e = Sim.Engine.create () in
    let rng = Sim.Rng.create 1 in
    let limit = ref 0 in
    let left = Array.make chains 0 in
    let thunks = Array.make chains ignore in
    let rec launch c =
      left.(c) <- cluster;
      for _ = 1 to cluster do
        Sim.Engine.schedule_in e
          (Sim.Time.ns 20 + Sim.Rng.int rng (window_ps + 1))
          (if fresh then fun () -> step c else thunks.(c))
      done
    and step c =
      left.(c) <- left.(c) - 1;
      if left.(c) = 0 && Sim.Engine.events_processed e < !limit then launch c
    in
    for c = 0 to chains - 1 do
      thunks.(c) <- (fun () -> step c)
    done;
    reps (fun () ->
        let start = Sim.Engine.events_processed e in
        limit := start + per_rep;
        for c = 0 to chains - 1 do
          launch c
        done;
        let dt, words = measure (fun () -> Sim.Engine.run e) in
        (dt, words, float_of_int (Sim.Engine.events_processed e - start)))
  in
  let bursty_reps = bursty ~fresh:false in
  let fresh_reps = bursty ~fresh:true in
  (* 3. Sends on the default 4-CMP machine with a no-op handler:
     all-caches broadcasts through [send_set], and random point-to-point
     pairs through [send_one]. The engine drains every 256 sends. *)
  let l = Interconnect.Layout.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4 in
  let nnodes = Interconnect.Layout.node_count l in
  let all_caches = Interconnect.Layout.all_caches_set l in
  let fabric_run send ~sends =
    let engine = Sim.Engine.create () in
    let traffic = Interconnect.Traffic.create () in
    let fabric =
      Interconnect.Fabric.create engine l Interconnect.Fabric.default_params traffic
        (Sim.Rng.create 1)
    in
    Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> ());
    let dt, words =
      measure (fun () ->
          for i = 1 to sends do
            send fabric i;
            if i land 255 = 0 then Sim.Engine.run engine
          done;
          Sim.Engine.run engine)
    in
    (float_of_int sends /. dt, words /. float_of_int sends)
  in
  let set_sps, set_mwps =
    fabric_run ~sends:(if !quick then 20_000 else 60_000) (fun fabric i ->
        Interconnect.Fabric.send_set fabric ~src:(i * 13 mod nnodes) ~dsts:all_caches ~cls:Interconnect.Msg_class.Request
          ~bytes:8 ())
  in
  let one_sps, one_mwps =
    fabric_run ~sends:(if !quick then 400_000 else 1_500_000) (fun fabric i ->
        let src = i * 13 mod nnodes in
        let dst = (src + 1 + (i * 7 mod (nnodes - 1))) mod nnodes in
        Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request
          ~bytes:8 ())
  in
  (* 4. Parked sends, in TokenCMP-dst1's shape: an L1 sends its chip's
     other L1s and one L2 bank, then every other chip's L1s and one L2
     bank each plus a memory controller, both with [send_set_parkable];
     the parking test answers every key with the words of all L1s, so
     every L1 copy parks. Each send carries a fresh message, as the
     protocol's do. A wake of the sender for the key follows, as the
     reply carrying tokens to a requester makes, and the engine runs
     10 ns. Reported per parked copy, per repetition after a warm-up
     one that grows the pools. *)
  let parked_reps =
    let module L = Interconnect.Layout in
    let module DS = Interconnect.Destset in
    let engine = Sim.Engine.create () in
    let fabric =
      Interconnect.Fabric.create engine l Interconnect.Fabric.default_params
        (Interconnect.Traffic.create ()) (Sim.Rng.create 1)
    in
    Interconnect.Fabric.set_handler fabric (fun ~dst:_ (_ : int ref) -> ());
    let l1_words = DS.unsafe_words (L.all_l1s_set l) in
    Interconnect.Fabric.set_parkable fabric (fun _ _ -> l1_words);
    let ncmp = l.L.ncmp in
    let banks = List.length (L.l2s_of_cmp l 0) in
    let l1s = Array.of_list (List.filter (L.is_l1 l) (L.all_caches l)) in
    (* Both sets per (sending L1, bank), built before the loop. *)
    let sets =
      Array.map
        (fun src ->
          let cmp = L.cmp_of l src in
          Array.init banks (fun bank ->
              let local = DS.add (L.l2 l ~cmp ~bank) (DS.remove src (L.l1s_of_cmp_set l cmp)) in
              let remote =
                List.fold_left
                  (fun acc c ->
                    if c = cmp then acc
                    else DS.union acc (DS.add (L.l2 l ~cmp:c ~bank) (L.l1s_of_cmp_set l c)))
                  (DS.singleton (L.mem l ~cmp:(bank mod ncmp)))
                  (List.init ncmp Fun.id)
              in
              (local, remote)))
        l1s
    in
    let parked_per_round = Array.length l1s - 1 in
    let stop () = Sim.Engine.stop engine in
    let round i =
      let src = l1s.(i mod Array.length l1s) in
      let local, remote = sets.(i mod Array.length l1s).(i / Array.length l1s mod banks) in
      let key = i land 255 in
      Interconnect.Fabric.send_set_parkable fabric ~park:key ~src ~dsts:local
        ~cls:Interconnect.Msg_class.Request ~bytes:8 (ref i);
      Interconnect.Fabric.send_set_parkable fabric ~park:key ~src ~dsts:remote
        ~cls:Interconnect.Msg_class.Request ~bytes:8 (ref i);
      Interconnect.Fabric.wake fabric ~dst:src ~key;
      Sim.Engine.schedule_in engine (Sim.Time.ns 10) stop;
      Sim.Engine.run engine
    in
    let rounds = if !quick then 20_000 else 100_000 in
    reps (fun () ->
        let dt, words =
          measure (fun () ->
              for i = 1 to rounds do
                round i
              done)
        in
        (dt, words, float_of_int (rounds * parked_per_round)))
  in
  (* 5. Whole simulations: protocol + caches + fabric, per retired op,
     the unit of simulated work (events per op is the protocol's and
     the engine's business, and changes when events are saved). *)
  let tiny_sim builder =
    let config = Mcmp.Config.tiny in
    let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 10 } in
    let programs = Workload.Locking.programs wl ~seed:1 ~nprocs:(Mcmp.Config.nprocs config) in
    let reps = if !quick then 30 else 100 in
    let ops = ref 0 in
    let dt, words =
      measure (fun () ->
          for _ = 1 to reps do
            let r = Mcmp.Runner.run ~config builder ~programs ~seed:1 in
            ops := !ops + r.Mcmp.Runner.ops
          done)
    in
    (* Minor words per retired op, set-up included: the allocation
       pressure of the whole simulation (engine, fabric delivery,
       protocol handlers, cores). Deterministic for a given compiler,
       so CI gates it. *)
    (float_of_int !ops /. dt, words /. float_of_int !ops)
  in
  let sim = tiny_sim (Token.Protocol.builder Token.Policy.dst1) in
  let sim_directory = tiny_sim (Directory.Protocol.builder ~dram_directory:true ()) in
  let kernel name unit (per_s, minor_words) =
    [
      ("kernel", J.String name);
      ("unit", J.String unit);
      ("units_per_s", J.Float per_s);
      ("minor_words_per_unit", J.Float minor_words);
    ]
  in
  [
    ( "kernels",
      T.make "Kernel hot paths"
        [
          kernel "engine_churn" "event" (summary churn_reps);
          kernel "bursty_churn" "event" (summary bursty_reps);
          kernel "fresh_churn" "event" (summary fresh_reps);
          kernel "send_set" "send" (set_sps, set_mwps);
          kernel "send_one" "send" (one_sps, one_mwps);
          kernel "send_parked" "parked copy" (summary parked_reps);
          kernel "tiny_sim" "op" sim;
          kernel "tiny_sim_directory" "op" sim_directory;
        ] );
    ( "engine_repetitions",
      T.make "Engine kernel repetitions"
        (List.concat_map
           (fun (name, rows) ->
             List.mapi
               (fun i (per_s, words) ->
                 [ ("kernel", J.String name); ("rep", J.Int (i + 1));
                   ("events_per_s", J.Float per_s); ("minor_words_per_event", J.Float words) ])
               rows)
           [ ("engine_churn", churn_reps); ("bursty_churn", bursty_reps);
             ("fresh_churn", fresh_reps) ]) );
    ( "send_parked",
      T.make "send_parked repetitions"
        (List.mapi
           (fun i (per_s, words) ->
             [ ("rep", J.Int (i + 1)); ("ns_per_parked_copy", J.Float (1e9 /. per_s));
               ("minor_words_per_parked_copy", J.Float words) ])
           parked_reps) );
    ( "section_wall_clock_s",
      T.make "Wall clock of sections run in this invocation"
        (List.map (fun (n, w) -> [ ("section", J.String n); ("wall_s", J.Float w) ]) !section_walls)
    );
  ]

let perf =
  { title = "Kernel perf: event scheduling and message send hot paths";
    note = "Host-time throughput of the simulation kernel (not simulated time),\n\
            each with its minor words allocated per unit of work:\n\
            - engine_churn: one queue, empty handlers, uniform 4096-event batches;\n\
            - bursty_churn: the broadcast shape, 32 events inside a 500 ps window;\n\
            - fresh_churn: the bursty shape with a fresh closure per event, as a\n\
           \  protocol's schedule_in passes (engine kernels: one row per repetition);\n\
            - send_set / send_one: all-caches broadcasts and random point-to-point\n\
           \  pairs on the 4-CMP machine with a no-op handler;\n\
            - send_parked: a request's local and escalation sets whose L1 copies\n\
           \  all park, then a wake, per parked copy (spread: one row per repetition);\n\
            - tiny_sim / tiny_sim_directory: whole tiny TokenCMP-dst1 and\n\
           \  DirectoryCMP simulations, per retired op.\n\
            Absolute rates are machine-dependent; the allocation figures are\n\
            deterministic for a given compiler.";
    tables = perf_tables }

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("tab1", tab1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("tab4", tab4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("sec5", sec5);
    ("ablate", ablate);
    ("scale", scale);
    ("profile", profile);
    ("faultrate", faultrate);
    ("chaos", chaos);
    ("forensics", forensics);
    (* keep perf last: it rolls up the wall clocks of the sections
       above when a full run is requested *)
    ("perf", perf);
  ]

(* Envelope around each section's tables; BENCH_<section>.json files
   are the cross-PR perf trajectory (schema in README). *)
let write_json name ~wall_clock tables =
  let file = "BENCH_" ^ name ^ ".json" in
  J.write_file file
    (J.Obj
       [
         ("schema_version", J.Int 4);
         ("section", J.String name);
         ("quick", J.Bool !quick);
         ("jobs", J.Int !jobs);
         ("wall_clock_s", J.Float wall_clock);
         ("data", T.keyed_to_json tables);
       ]);
  progress "[%s] wrote %s (%.1fs wall clock, %d jobs)\n%!" name file wall_clock !jobs

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let requested_jobs = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
      quick := true;
      parse acc rest
    | ("-j" | "--jobs") :: n :: rest when int_of_string_opt n <> None ->
      requested_jobs := int_of_string_opt n;
      parse acc rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j"
                     && int_of_string_opt (String.sub a 2 (String.length a - 2)) <> None ->
      requested_jobs := int_of_string_opt (String.sub a 2 (String.length a - 2));
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  jobs := Par.Pool.resolve_jobs ?requested:!requested_jobs ();
  if !jobs > 1 then progress "[bench] running with %d worker domains\n%!" !jobs;
  let chosen = if args = [] then List.map fst sections else args in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some s ->
        progress "[%s] %s\n%!" name s.title;
        Printf.printf "\n%s\n%s\n" s.title (String.make (String.length s.title) '=');
        if s.note <> "" then print_endline s.note;
        let t0 = Unix.gettimeofday () in
        let tables = s.tables () in
        let wall = Unix.gettimeofday () -. t0 in
        List.iter (fun (_, t) -> print_string (T.to_markdown t)) tables;
        flush stdout;
        section_walls := !section_walls @ [ (name, wall) ];
        write_json name ~wall_clock:wall tables
      | None ->
        Printf.eprintf "unknown section %s (have: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 1)
    chosen
