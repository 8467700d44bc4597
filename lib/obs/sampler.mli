(** Periodic time-series sampler: reads the registry's gauges on a
    fixed cadence of simulated time, producing the counter tracks of
    the Perfetto export ("C" events). Never created on default runs —
    attaching one adds timer events to the engine, so it is opt-in
    (trace/profile modes only). The runner's stop-when-done semantics
    retire the pending timer, so a sampler cannot keep a simulation
    alive. *)

type t

type sample = { at : Sim.Time.t; values : (string * float) list }

(** [create engine registry ~period] records {!Registry.gauges} now
    and then every [period] of simulated time, so short runs still
    produce a non-empty series. Raises [Invalid_argument] on a
    non-positive period. *)
val create : Sim.Engine.t -> Registry.t -> period:Sim.Time.t -> t

(** Samples in time order. *)
val samples : t -> sample list
