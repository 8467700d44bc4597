(** Bounded worker pool over OCaml 5 domains.

    [map] executes a list of independent jobs on up to [jobs] domains
    and returns the results in submission order, so a parallel run is
    indistinguishable from a serial one as long as each job is
    self-contained (builds its own [Sim.Engine], [Sim.Rng], counters
    and value tables — which every [Mcmp.Runner.run] and
    [Fault.Torture.run] does). Nothing in the simulator libraries keeps
    top-level mutable state, so per-job isolation is per-domain
    isolation.

    Exceptions raised by a job are captured with the job's identity
    attached and re-raised on the calling domain once every worker has
    drained; when several jobs fail, the one with the lowest submission
    index wins, deterministically. *)

type error = {
  index : int;  (** submission index of the failing job *)
  label : string;  (** human identity, e.g. ["TokenCMP-dst1 seed=2"] *)
  exn : exn;  (** the original exception *)
  backtrace : string;
}

exception Job_failed of error

(** Worker-count policy shared by the bench and the CLI:
    [requested >= 1] wins; [requested = 0] means "all cores"
    ([Domain.recommended_domain_count ()]); otherwise [TOKENCMP_JOBS],
    if it is a positive integer; otherwise 1 (serial, the historical
    behavior). *)
val resolve_jobs : ?requested:int -> unit -> int

(** [map ~jobs ~label f xs] applies [f] to every element of [xs] and
    returns the results in the order of [xs]. [jobs <= 1] executes
    directly on the calling domain, strictly left to right, spawning
    nothing. [label i x] names job [i] for {!error} attribution. *)
val map : ?jobs:int -> ?label:(int -> 'a -> string) -> ('a -> 'b) -> 'a list -> 'b list
