(** Randomized fault-injection torture runs.

    One {!run} wires together an instrumented protocol, a seeded
    {!Plan.t} installed on its fabric, the invariant {!Monitor}, the
    liveness {!Watchdog} and a bounded event trace, then drives the
    locking micro-benchmark through the fault storm. A {!campaign}
    repeats that across targets with freshly randomized specs; every
    outcome carries its recipe ({!run_params}), seed and spec, so any
    failure reproduces from the outcome alone. *)

type target = Token of Token.Policy.t | Directory of { dram_directory : bool }

val target_name : target -> string

(** All eight token policy variants plus both directory configurations. *)
val default_targets : target list

(** The token subset of {!default_targets} — what recovery campaigns
    run against (the directory protocol has no recovery layer). *)
val token_targets : target list

(** The margin a run widens its watchdog bounds by: [base] (2.5 in
    recovery mode, 1.0 otherwise) widened, if needed, so the scaled
    no-progress and starvation bounds out-wait the longest legitimate
    stall — the chaos plan's {!Chaos.max_outage} plus, when [recover],
    {!Token.Recovery.worst_case_latency}. Exposed so tests can pin
    what it budgets for. *)
val effective_margin :
  base:float ->
  recover:bool ->
  ?chaos:Chaos.spec ->
  watchdog_interval:Sim.Time.t ->
  no_progress_windows:int ->
  starvation_bound:Sim.Time.t ->
  unit ->
  float

(** The complete run recipe minus (target, spec, seed): what {!run}
    executes, what every outcome carries, and what a repro bundle
    serializes so a replay re-runs the same simulation.

    [p_config] is the machine, and its [max_events] the run's event
    cap. [p_trace_capacity] sizes the event ring the evidence trace
    comes from. [p_no_progress_windows] and [p_starvation_bound]
    configure the liveness {!Watchdog}. Every run drives the same
    locking workload (4 locks, 30 acquires after 5 warm-up ones) under
    an invariant {!Monitor} that checks every 500 ns and a watchdog
    whose progress window is 20 us.

    [p_recover] (token targets only; [Invalid_argument] on directory
    targets) arms the full recovery stack: the protocol's token
    recreation (the {!Token.Recovery} timescales), a reliable
    {!Transport} wrapped over the run's injector, crash/restart cycles
    per the spec's [crashes] field (scheduled from a dedicated rng
    stream so the message-level fault schedule is unchanged), and a
    widened watchdog.
    The fault plan then records token-carrying drops as {e recoverable}
    — the pass criterion flips from "detect the loss" to "survive it:
    zero violations, every request retires, slowdown bounded".

    [p_chaos] is a list of link-outage causes ({!Chaos.spec}) whose
    link table ({!Chaos.install}) wraps the fault plan's injector. A
    run wraps the plan's injector in the link table and that in the
    transport, and installs the result once. A {!Chaos.lossy} plan on
    a token target requires [p_recover]; directory targets
    automatically take the loss-free {!Chaos.brownout_of} rendition,
    the same discipline as {!Spec.delay_only}.

    The run scales [p_no_progress_windows] and [p_starvation_bound] by
    a margin, rounding up, before it hands them to {!Watchdog.attach}.
    The margin is 2.5 in recovery mode and 1.0 otherwise, widened by
    {!effective_margin}, if needed, to out-wait the longest legitimate
    stall: the chaos plan's {!Chaos.max_outage} plus
    {!Token.Recovery.worst_case_latency}.

    [p_script] puts the fault plan in scripted mode
    ({!Plan.create}[ ?script]): the recipe's RNG-drawn schedule is
    replaced by an explicit event list — the forensics shrinker's
    candidate evaluation path. *)
type run_params = {
  p_config : Mcmp.Config.t;
  p_trace_capacity : int;
  p_no_progress_windows : int;
  p_starvation_bound : Sim.Time.t;
  p_recover : bool;
  p_chaos : Chaos.spec option;
  p_script : Plan.event list option;
}

(** Tiny config with a 20M-event cap, a 512-event trace ring, 5
    no-progress windows, a 200 us starvation bound, and no recovery,
    chaos or script. *)
val default_params : run_params

type outcome = {
  seed : int;
  spec : Spec.t;
  target : target;
  params : run_params;  (** the recipe the run executed *)
  completed : bool;  (** every processor finished its program *)
  reports : Report.t list;  (** chronological *)
  stats : Plan.stats;
  trace : Tcjson.t;
      (** Perfetto trace of the event ring with reports as instant
          marks; captured only on evidence, [Tcjson.Null] otherwise *)
  gauges : (string * float) list;  (** {!Obs.Registry.gauges} at end of run *)
  dump : string;  (** protocol-state dump; captured only on evidence *)
  ops : int;
  runtime : Sim.Time.t;
  events : int;
  misses : int;  (** retired L1 misses (miss-latency sample count) *)
  spans : Obs.Span.summary;
      (** transaction-span accounting over the event ring: with a
          large enough [trace_capacity] every retired miss has a span
          ([spans + dropped_spans = misses], crash-interrupted
          transactions counted incomplete); after ring wrap the
          [dropped_spans] field says how many latency samples exist in
          the counters but in no span *)
  recovered : Token.Protocol.recovery_stats option;
      (** recovery-layer activity; [Some] only for recovery-mode runs *)
  retransmits : int;  (** reliable-transport retransmissions (recovery mode) *)
  chaos : Chaos.stats option;
      (** link-outage campaign counters; [Some] only when a non-empty
          chaos plan was installed *)
  link_downtime : Sim.Time.t;
      (** the chaos link table's {!Chaos.link_downtime}, read when the
          run ends (zero when no chaos ran) *)
  link_degraded : Sim.Time.t;
      (** its {!Chaos.link_degraded_time}, read the same way *)
  plan_events : Plan.event list;
      (** the materialized fault schedule (every non-Pass plan
          decision, oldest first); captured only on evidence — same
          gate as [trace]/[dump], which covers every non-clean verdict *)
  plan_offers : int;
      (** total plan decision points the run consulted *)
}

(** [run params target ~spec ~seed] builds the machine and drives the
    locking workload through {!Mcmp.Runner.run}: the protocol, fault
    plan, chaos and reliable transport are built in its builder, and
    the crash schedule, invariant monitor and watchdog are armed in its
    [on_start]. An {!Mcmp.Violation.Invariant_violation} raised by a
    handler becomes a report; any other exception propagates. *)
val run : run_params -> target -> spec:Spec.t -> seed:int -> outcome

(** Judgement of one outcome against what its fault plan made
    survivable:

    - [Clean]: completed, nothing to report;
    - [Survived_partition]: clean {e and} a region partition held at
      least one copy ({!Chaos.stats}[.cut_copies] > 0): the run
      completed with zero violations, during or after that cut (a run
      may end before the heal); a cut that held no copy reads [Clean];
    - [Detected]: an injected unsurvivable fault (token-carrying drop,
      token-minting duplicate) was correctly caught and reported;
    - [Failed _]: a genuine robustness bug — an invariant broke under
      survivable faults, a liveness failure without an unsurvivable
      fault, an unsurvivable fault that went unreported, or a silent
      hang. A run whose cut held a copy and that did not finish says
      which of three things happened: the transport gave up on a frame
      inside the partition (a [Retransmit_exhausted] report); a link
      came back up ({!Chaos.stats}[.heals > 0]) and the run still did
      not converge; or the run stopped inside the partition before
      anything healed. All three are liveness failures. *)
type verdict = Clean | Survived_partition | Detected | Failed of string

val verdict : outcome -> verdict

(** The exit code of a campaign over [outcomes], decided once for every
    command: 1 when a run failed on safety (an invariant broke, or a
    token-minting duplicate or an unrecoverable drop went unreported),
    else 2 when a run failed on liveness, else 0. *)
val exit_code : outcome list -> int

val pp_verdict : Format.formatter -> verdict -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** [campaign ~params ~targets ~seed ()] cycles [runs] randomized-spec
    runs of [params] over [targets] (directory targets are
    automatically restricted to the delay/reorder/stall faults they can
    survive). [drop_mode] additionally drops transient requests on
    token targets; [drop_tokens] escalates to unrecoverable
    token-carrying drops. [on_outcome] fires after each run (progress
    printing).

    [jobs] fans the runs out over a {!Par.Pool}. Specs are derived
    serially from the campaign rng before anything executes and each
    run re-seeds its own simulation from [(seed + i, spec)], so the
    outcome list is bit-identical for every [jobs] value; with
    [jobs > 1], [on_outcome] fires after the campaign, still in run
    order.

    With [params.p_recover] ([Invalid_argument] if [targets] includes a
    directory protocol), specs gain token-carrying drops plus two
    crash/restart cycles, and a clean verdict means the storm was
    {e survived} rather than detected. A campaign whose [p_chaos]
    partitions the network expects [Survived_partition] verdicts from
    the runs its cut held, not [Clean]. *)
val campaign :
  params:run_params ->
  ?runs:int ->
  ?jobs:int ->
  ?drop_mode:bool ->
  ?drop_tokens:bool ->
  targets:target list ->
  seed:int ->
  ?on_outcome:(int -> outcome -> unit) ->
  unit ->
  outcome list
