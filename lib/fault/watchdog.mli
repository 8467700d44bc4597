(** Liveness watchdog: detects no-forward-progress windows and
    per-request starvation.

    Forward progress is "some operation retired" (loads + stores +
    atomics + ifetches advanced) since the last tick. After
    [no_progress_windows] consecutive stalled ticks the watchdog files
    a {!Report.No_progress} and calls [on_stall] (typically wired to
    {!Sim.Engine.stop} — once deadlock/livelock is established,
    simulating further teaches nothing). The stall is classified as
    livelock when the retry counters (transient reissues + persistent
    escalations) advanced during the stalled window — the protocol is
    spinning — and deadlock when nothing moved at all.

    Starvation is per request: any MSHR outstanding longer than
    [starvation_bound] is reported once, even while the rest of the
    system makes progress. The bound must comfortably exceed the
    injected worst case (delay spikes + persistent-request latency), or
    healthy runs will false-positive; recovery-mode torture runs widen
    both bounds ({!Torture.effective_margin}) so that a legitimate
    token recreation is never misreported as livelock or starvation. *)

val attach :
  Sim.Engine.t ->
  probe:Mcmp.Probe.t ->
  counters:Mcmp.Counters.t ->
  interval:Sim.Time.t ->
  no_progress_windows:int ->
  starvation_bound:Sim.Time.t ->
  running:(unit -> bool) ->
  report:(Report.t -> unit) ->
  on_stall:(unit -> unit) ->
  unit
