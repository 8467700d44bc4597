(** Chrome trace-event / Perfetto JSON exporter. The output loads in
    {{:https://ui.perfetto.dev}ui.perfetto.dev} or [chrome://tracing]:
    one process for the machine, one track per node (core/cache) plus
    one per fabric link; miss transactions render as "miss" slices with
    nested "request"/"fill" phase slices, everything else as instants.
    Recovery and outage events (retransmissions, duplicate absorption,
    epoch bumps, stale discards, crashes and restarts) are instants on
    their node's track, link outages on the link's track, and token
    recreation on track 0.

    Timestamps are microseconds of simulated time (1 us on screen =
    1 us simulated; sub-ns structure survives as fractional ts). *)

(** [export buf] renders the retained event window; node tracks are
    named ["node<i>"].
    @param process_name the Perfetto process label.
    @param marks extra global instant events (e.g. invariant
    violations) stamped onto track 0.
    @param samples periodic gauge samples from {!Sampler}, rendered as
    Perfetto counter tracks ("C" events, one track per metric name)
    next to the span tracks. *)
val export :
  ?process_name:string ->
  ?marks:(Sim.Time.t * string) list ->
  ?samples:Sampler.sample list ->
  Buffer.t ->
  Tcjson.t

(** Structural check used by tests and CI on exported documents:
    [traceEvents] exists, every event carries the fields its phase
    requires ("C" counters need coordinates and a numeric
    [args.value]), and complete ("X") slices nest properly per track
    (no partial overlap). *)
val validate : Tcjson.t -> (unit, string) result
