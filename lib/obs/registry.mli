(** Named gauge registry (pull model). Components register getters
    once at construction; {!gauges} reads every gauge at that instant.
    The periodic {!Sampler} turns those readings into the counter
    tracks of a Perfetto export, and a torture outcome keeps the
    readings at the end of its run. *)

type t

(** Engine extension carrying a registry, so components created deep
    inside a protocol builder (e.g. the fabric) can self-register
    without signature churn: [Registry.of_engine engine]. *)
type Sim.Engine.ext += Registry of t

val create : unit -> t

(** Registration; raises [Invalid_argument] on duplicate names. *)

val register_int : t -> string -> (unit -> int) -> unit
val register_float : t -> string -> (unit -> float) -> unit

(** [attach t engine] makes the registry discoverable from the engine. *)
val attach : t -> Sim.Engine.t -> unit

val of_engine : Sim.Engine.t -> t option

(** Instantaneous value of every gauge, name-sorted. *)
val gauges : t -> (string * float) list
