(** Experiment harness for the paper's evaluation (Sections 5, 7, 8).

    Each function reproduces the measurement behind one table or
    figure; the bench executable formats the results, and EXPERIMENTS.md
    records paper-vs-measured. Runs are repeated over [seeds] with
    randomly perturbed message latencies and reported as mean ± 95% CI
    (Alameldeen & Wood's methodology).

    Every simulation harness takes [?jobs]: the independent (protocol,
    seed) simulations fan out over a {!Par.Pool} of that many domains.
    Results are regrouped in submission order and each simulation owns
    its engine/rng/counters, so any [jobs] value produces output
    bit-identical to the serial run (enforced by [test/test_par.ml]). *)

type run = {
  protocol : string;
  runtime_ns : Sim.Stat.Summary.t;  (** measured (post-warmup) runtime *)
  persistent_fraction : float;  (** persistent requests / L1 misses *)
  retries_per_miss : float;
  miss_latency_ns : float;
  inter_bytes : (Interconnect.Msg_class.t * float) list;  (** mean per seed *)
  intra_bytes : (Interconnect.Msg_class.t * float) list;
  completed : bool;  (** every seed ran to completion *)
}

(** The locking micro-benchmark at one contention level. *)
val locking :
  ?jobs:int ->
  ?config:Mcmp.Config.t ->
  ?seeds:int list ->
  ?acquires:int ->
  ?lock_stride:int ->
  protocols:Protocols.t list ->
  nlocks:int ->
  unit ->
  run list

(** Figures 2 and 3: sweep lock counts (2..512 by default). The whole
    (locks x protocols x seeds) cross product is one job pool. *)
val locking_sweep :
  ?jobs:int ->
  ?config:Mcmp.Config.t ->
  ?seeds:int list ->
  ?acquires:int ->
  ?locks:int list ->
  protocols:Protocols.t list ->
  unit ->
  (int * run list) list

(** Table 4: the barrier micro-benchmark.
    [variability] is the half-width of the uniform work perturbation
    (0 or 1000 ns in the paper). *)
val barrier :
  ?jobs:int ->
  ?config:Mcmp.Config.t ->
  ?seeds:int list ->
  ?episodes:int ->
  variability:Sim.Time.t ->
  protocols:Protocols.t list ->
  unit ->
  run list

(** Figures 6 and 7: a commercial-workload stand-in. *)
val commercial :
  ?jobs:int ->
  ?config:Mcmp.Config.t ->
  ?seeds:int list ->
  ?ops:int ->
  profile:Workload.Commercial.profile ->
  protocols:Protocols.t list ->
  unit ->
  run list

(** One model-checked configuration: the model, its cache count and
    network cap, the exploration stats and the model's source lines. *)
type mc_row = {
  model : string;
  caches : int;
  net_cap : int;
  stats : Mc.Explore.stats;
  model_loc : int;
}

(** Section 5 and Table 4's checkability comparison, reported once:
    every substrate variant at the paper's 2-cache configuration, then
    TokenCMP-dst and the flat directory at [net_cap] 3 with 2 and 3
    caches. Each row is explored when the sequence reaches it, front
    to back, and again on every traversal. The default 2M-state budget
    closes every row. *)
val model_checking : ?max_states:int -> unit -> mc_row Seq.t

(** A row fails on an invariant violation or on a doomed state, which
    only a closed graph counts. *)
val mc_failed : mc_row -> bool

(** The recovery-mode fault-rate sweep: the locking torture run on
    TokenCMP-dst1 with the recovery stack armed (reliable transport and
    token recreation), dropping token-carrying messages with each
    probability in [probs], once per seed. Returns one row per
    probability ([drop_prob], mean [runtime_ns], [slowdown] against the
    first point, and [retransmits], [recreations] and [epoch_bumps]
    summed over seeds, and whether every run was [clean]), plus each
    outcome whose verdict was not clean, paired with its probability. *)
val faultrate :
  probs:float list -> seeds:int list -> Table.t * (float * Fault.Torture.outcome) list

(* Protocol sets used by each figure, in the paper's order. *)
val fig2_protocols : Protocols.t list
val fig3_protocols : Protocols.t list
val tab4_protocols : Protocols.t list
val fig6_protocols : Protocols.t list

(** Normalized runtime helper: [runtime p / runtime baseline]. *)
val normalize : baseline:run -> run -> float

val find : run list -> string -> run
