(** Single-simulation harness: build a machine, run programs on every
    processor, collect runtime, traffic and counters. This is the one
    run loop; the profiler, the bench and the fault-injection torture
    harness all drive their simulations through it. *)

(** How a run ended. Only the engine's event cap (the config's
    [max_events]) becomes a value: every other exception
    raised inside the run, including
    {!Violation.Invariant_violation}, propagates out of {!run}. *)
type stop =
  | Finished  (** every processor finished its program *)
  | Unfinished
      (** the event queue drained (protocol deadlock) or something
          stopped the engine before the last processor finished *)
  | Event_cap  (** the run passed [max_events] and was cut *)

type result = {
  seed : int;  (** the run's RNG seed, echoed so every report is reproducible *)
  runtime : Sim.Time.t;
      (** measured runtime: last finish minus the instant every
          processor had passed its warmup {!Workload.Program.Mark}
          (equals [total_runtime] when programs have no mark) *)
  total_runtime : Sim.Time.t;
      (** instant the last processor finished, or the engine's clock
          when the run stopped early *)
  completed : bool;  (** [stop = Finished] *)
  stop : stop;
  traffic : Interconnect.Traffic.t;
  counters : Counters.t;
  events : int;
  ops : int;
}

(** @param registry when given, attached to the engine and populated
    with the run's counters, traffic and fabric samplers before the
    protocol is built (read its gauges after [run] returns).
    @param buffer when given, installed as the engine's trace sink:
    the run records structured {!Obs.Event}s (tracing changes no
    simulation outcome, only observation).
    @param on_start called once, after the protocol and every core are
    built and before any core starts, with the engine and a [running]
    predicate that stays true until the last processor finishes. It is
    where a caller arms timers of its own: a periodic {!Obs.Sampler},
    an invariant monitor, a liveness watchdog. Anything it schedules
    adds events to the run, so [events] grows. *)
val run :
  ?config:Config.t ->
  ?registry:Obs.Registry.t ->
  ?buffer:Obs.Buffer.t ->
  ?on_start:(Sim.Engine.t -> running:(unit -> bool) -> unit) ->
  Protocol.builder ->
  programs:(proc:int -> Workload.Program.t) ->
  seed:int ->
  result

(** [uncapped r] is [r], or raises [Failure] when [r.stop = Event_cap].
    For callers that would otherwise average a cut-off run, whose clock
    at the cut is not a runtime: the figure sweeps in [Experiments] and
    the bench's scale rows. *)
val uncapped : result -> result
