type run = {
  protocol : string;
  runtime_ns : Sim.Stat.Summary.t;
  persistent_fraction : float;
  retries_per_miss : float;
  miss_latency_ns : float;
  inter_bytes : (Interconnect.Msg_class.t * float) list;
  intra_bytes : (Interconnect.Msg_class.t * float) list;
  completed : bool;
}

let default_seeds = [ 1; 2; 3 ]

let mean_breakdown per_seed =
  let n = float_of_int (List.length per_seed) in
  List.map
    (fun cls ->
      let total =
        List.fold_left
          (fun acc breakdown -> acc + List.assoc cls breakdown)
          0 per_seed
      in
      (cls, float_of_int total /. n))
    Interconnect.Msg_class.all

let summarize protocol results =
  let results = List.map Mcmp.Runner.uncapped results in
  let runtimes = List.map (fun r -> Sim.Time.to_ns r.Mcmp.Runner.runtime) results in
  let n = float_of_int (List.length results) in
  let favg f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
  {
    protocol;
    runtime_ns = Sim.Stat.Summary.of_list runtimes;
    persistent_fraction =
      favg (fun r -> Mcmp.Counters.persistent_fraction r.Mcmp.Runner.counters);
    retries_per_miss =
      favg (fun r ->
          let c = r.Mcmp.Runner.counters in
          if c.Mcmp.Counters.l1_misses = 0 then 0.
          else
            float_of_int c.Mcmp.Counters.transient_retries
            /. float_of_int c.Mcmp.Counters.l1_misses);
    miss_latency_ns =
      favg (fun r -> Sim.Stat.Welford.mean r.Mcmp.Runner.counters.Mcmp.Counters.miss_latency);
    inter_bytes =
      mean_breakdown
        (List.map (fun r -> Interconnect.Traffic.inter_breakdown r.Mcmp.Runner.traffic) results);
    intra_bytes =
      mean_breakdown
        (List.map (fun r -> Interconnect.Traffic.intra_breakdown r.Mcmp.Runner.traffic) results);
    completed = List.for_all (fun r -> r.Mcmp.Runner.completed) results;
  }

(* [chunks n xs] splits [xs] into consecutive groups of [n],
   preserving order: how flattened parallel job results are regrouped
   into the per-protocol (and per-lock-count) lists the serial code
   produced. *)
let rec chunks n = function
  | [] -> []
  | xs ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let group, rest = take n [] xs in
    group :: chunks n rest

(* Every (protocol, seed) simulation is independent: fan them out over
   the pool, then regroup in submission order so the result is
   structurally identical to the serial nested loops. *)
let run_protocols ~jobs ~config ~seeds ~protocols ~programs =
  let tasks =
    List.concat_map (fun p -> List.map (fun seed -> (p, seed)) seeds) protocols
  in
  let results =
    Par.Pool.map ~jobs
      ~label:(fun _ (p, seed) -> Printf.sprintf "%s seed=%d" p.Protocols.name seed)
      (fun (p, seed) ->
        Mcmp.Runner.run ~config p.Protocols.builder ~programs:(programs ~seed) ~seed)
      tasks
  in
  List.map2
    (fun p rs -> summarize p.Protocols.name rs)
    protocols
    (chunks (List.length seeds) results)

let locking_workload ~nlocks ~acquires ~lock_stride =
  { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires; lock_stride }

let locking ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(acquires = 60) ?(lock_stride = 1) ~protocols ~nlocks () =
  let wl = locking_workload ~nlocks ~acquires ~lock_stride in
  let nprocs = Mcmp.Config.nprocs config in
  let programs ~seed = Workload.Locking.programs wl ~seed ~nprocs in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs

let locking_sweep ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(acquires = 60) ?(locks = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]) ~protocols () =
  (* Flatten the full (nlocks x protocol x seed) cross product so one
     pool keeps every worker busy across the whole sweep. *)
  let nprocs = Mcmp.Config.nprocs config in
  let tasks =
    List.concat_map
      (fun nlocks ->
        List.concat_map
          (fun p -> List.map (fun seed -> (nlocks, p, seed)) seeds)
          protocols)
      locks
  in
  let results =
    Par.Pool.map ~jobs
      ~label:(fun _ (nlocks, p, seed) ->
        Printf.sprintf "locking nlocks=%d %s seed=%d" nlocks p.Protocols.name seed)
      (fun (nlocks, p, seed) ->
        let wl = locking_workload ~nlocks ~acquires ~lock_stride:1 in
        Mcmp.Runner.run ~config p.Protocols.builder
          ~programs:(Workload.Locking.programs wl ~seed ~nprocs)
          ~seed)
      tasks
  in
  let nseeds = List.length seeds in
  List.map2
    (fun nlocks per_lock ->
      ( nlocks,
        List.map2
          (fun p rs -> summarize p.Protocols.name rs)
          protocols (chunks nseeds per_lock) ))
    locks
    (chunks (nseeds * List.length protocols) results)

let barrier ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds)
    ?(episodes = 30) ~variability ~protocols () =
  let nprocs = Mcmp.Config.nprocs config in
  let wl =
    { (Workload.Barrier.default ~nprocs) with
      Workload.Barrier.episodes;
      work_variability = variability }
  in
  let programs ~seed ~proc = Workload.Barrier.program wl ~seed ~proc in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs:(fun ~seed -> programs ~seed)

let commercial ?(jobs = 1) ?(config = Mcmp.Config.default) ?(seeds = default_seeds) ?ops
    ~profile ~protocols () =
  let profile =
    match ops with Some ops -> { profile with Workload.Commercial.ops } | None -> profile
  in
  let programs ~seed ~proc = Workload.Commercial.program profile ~seed ~proc in
  run_protocols ~jobs ~config ~seeds ~protocols ~programs:(fun ~seed -> programs ~seed)

let explore ~max_states m =
  let module M = (val m : Mc.Explore.MODEL) in
  let module R = Mc.Explore.Make (M) in
  R.run ~max_states ()

type mc_row = {
  model : string;
  caches : int;
  net_cap : int;
  stats : Mc.Explore.stats;
  model_loc : int;
}

(* Each row is explored when the sequence reaches it, so a caller can
   report a row as soon as its graph closes. The last four rows are
   Table 4's checkability comparison: both flat models at one network
   cap, at the paper's 2 caches and one size above (the 3-cache token
   model holds one more token). *)
let model_checking ?(max_states = 2_000_000) () =
  let tp = Mc.Token_model.default_params in
  let tp3 = { tp with Mc.Token_model.net_cap = 3 } in
  let dp3 = { Mc.Dir_model.default_params with Mc.Dir_model.net_cap = 3 } in
  let rp = Mc.Recovery_model.default_params in
  let token model kind (p : Mc.Token_model.params) =
    (model, p.caches, p.net_cap, Mc.Model_loc.token, kind p)
  in
  let directory (p : Mc.Dir_model.params) =
    ("Flat Directory", p.caches, p.net_cap, Mc.Model_loc.directory, Mc.Dir_model.flat p)
  in
  Seq.map
    (fun (model, caches, net_cap, model_loc, m) ->
      { model; caches; net_cap; stats = explore ~max_states m; model_loc })
    (List.to_seq
       [
         token "TokenCMP-safety" Mc.Token_model.safety tp;
         token "TokenCMP-dst" Mc.Token_model.distributed tp;
         token "TokenCMP-arb" Mc.Token_model.arbiter tp;
         ( "TokenCMP-recovery",
           rp.Mc.Recovery_model.caches,
           rp.Mc.Recovery_model.net_cap,
           Mc.Model_loc.recovery,
           Mc.Recovery_model.model rp );
         token "TokenCMP-dst" Mc.Token_model.distributed tp3;
         token "TokenCMP-dst" Mc.Token_model.distributed { tp3 with caches = 3; tokens = 4 };
         directory dp3;
         directory { dp3 with caches = 3 };
       ])

(* Doomed states are counted on closed graphs only. *)
let mc_failed r =
  r.stats.Mc.Explore.violation <> None || Option.value r.stats.Mc.Explore.doomed ~default:0 > 0

let faultrate ~probs ~seeds =
  let points =
    List.map
      (fun prob ->
        let spec = Fault.Spec.with_drops ~tokens:true ~prob Fault.Spec.none in
        ( prob,
          List.map
            (fun seed ->
              Fault.Torture.run
                { Fault.Torture.default_params with p_recover = true }
                (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed)
            seeds ))
      probs
  in
  let clean o = Fault.Torture.verdict o = Fault.Torture.Clean in
  let mean_runtime outcomes =
    List.fold_left (fun a o -> a +. Sim.Time.to_ns o.Fault.Torture.runtime) 0. outcomes
    /. float_of_int (List.length outcomes)
  in
  let base = match points with (_, outcomes) :: _ -> mean_runtime outcomes | [] -> 1. in
  let sum f outcomes = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let recovered f o = match o.Fault.Torture.recovered with Some rs -> f rs | None -> 0 in
  let row (prob, outcomes) =
    let runtime = mean_runtime outcomes in
    [
      ("drop_prob", Tcjson.Float prob);
      ("runtime_ns", Tcjson.Float runtime);
      ("slowdown", Tcjson.Float (runtime /. base));
      ("retransmits", Tcjson.Int (sum (fun o -> o.Fault.Torture.retransmits) outcomes));
      ( "recreations",
        Tcjson.Int (sum (recovered (fun rs -> rs.Token.Protocol.rs_recreations)) outcomes) );
      ( "epoch_bumps",
        Tcjson.Int (sum (recovered (fun rs -> rs.Token.Protocol.rs_epoch_bumps)) outcomes) );
      ("clean", Tcjson.Bool (List.for_all clean outcomes));
    ]
  in
  ( Table.make "Fault-rate sweep: recovery-mode cost vs token-drop probability"
      (List.map row points),
    List.concat_map
      (fun (prob, outcomes) ->
        List.filter_map (fun o -> if clean o then None else Some (prob, o)) outcomes)
      points )

let fig2_protocols =
  [
    Protocols.token Token.Policy.arb0;
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst0;
  ]

let fig3_protocols =
  [
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst4;
    Protocols.token Token.Policy.dst1;
    Protocols.token Token.Policy.dst1_pred;
  ]

let tab4_protocols =
  [
    Protocols.token Token.Policy.arb0;
    Protocols.token Token.Policy.dst0;
    Protocols.directory;
    Protocols.directory_zero;
    Protocols.token Token.Policy.dst4;
    Protocols.token Token.Policy.dst1;
    Protocols.token Token.Policy.dst1_pred;
    Protocols.token Token.Policy.dst1_filt;
  ]

let fig6_protocols = Protocols.macro

let find runs name =
  match List.find_opt (fun r -> r.protocol = name) runs with
  | Some r -> r
  | None -> invalid_arg ("Experiments.find: no run for " ^ name)

let normalize ~baseline run = run.runtime_ns.Sim.Stat.Summary.mean /. baseline.runtime_ns.Sim.Stat.Summary.mean
