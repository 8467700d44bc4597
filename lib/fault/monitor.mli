(** Runtime invariant monitor: a periodic simulation event that runs
    the protocol's {!Mcmp.Probe.t} checks and converts both invariant
    violations and the plan's unrecoverable injected drops into
    structured {!Report.t}s.

    Checks run at event boundaries (the monitor is itself an event), so
    they never observe a half-applied protocol transition. The monitor
    reschedules itself only while [running ()] holds, so it cannot keep
    a finished simulation's event queue alive. *)

type t

val attach :
  Sim.Engine.t ->
  probe:Mcmp.Probe.t ->
  plan:Plan.t ->
  interval:Sim.Time.t ->
  running:(unit -> bool) ->
  report:(Report.t -> unit) ->
  t

(** Run one check immediately (also used for the final end-of-run
    sweep after the engine stops). *)
val check : t -> unit
