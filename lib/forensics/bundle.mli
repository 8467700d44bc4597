(** Repro bundles: the complete recipe of one torture run — target,
    machine shape, seed, fault/chaos specs, the recovery flag, and
    (for shrunk bundles) an explicit scripted fault schedule — plus
    a digest of the recorded outcome, serialized to schema-versioned
    JSON. A bundle is everything `tokencmp replay` needs to re-run the
    simulation deterministically and check that the recorded verdict
    reproduces bit-identically.

    Machine-shape caveat: only the two CLI bases ("tiny"/"default")
    plus the three shape dimensions the shrinker cuts (ncmp,
    procs_per_cmp, l2_banks) are representable; a custom config beyond
    those snaps to the nearer base on serialization. *)

val schema_version : int

(** The replay-comparison digest of an outcome: verdict, committed
    ops, engine events, sim runtime, retired misses, and report kinds
    in order. Plan {e stats} are deliberately excluded — a scripted
    replay folds reorders/stall-holds into plain delays, so stats
    columns differ across modes while the simulation itself is
    bit-identical. *)
type digest = {
  d_verdict : Fault.Torture.verdict;
  d_ops : int;
  d_events : int;
  d_runtime : Sim.Time.t;
  d_misses : int;
  d_reports : string list;
}

type t = {
  target : Fault.Torture.target;
  seed : int;
  spec : Fault.Spec.t;
  params : Fault.Torture.run_params;
  recorded : digest;
}

val digest_of_outcome : Fault.Torture.outcome -> digest

(** [digest_matches d o]: does [o] reproduce the recorded run
    bit-identically (same verdict incl. failure message, same ops /
    events / runtime / misses, same report-kind sequence)? *)
val digest_matches : digest -> Fault.Torture.outcome -> bool

(** Capture a bundle from a finished run and the recipe it carries. *)
val make : Fault.Torture.outcome -> t

val to_json : t -> Tcjson.t

(** Rejects wrong [kind], missing/unknown [schema_version], and any
    malformed field with a descriptive error. *)
val of_json : Tcjson.t -> (t, string) result

val write_file : string -> t -> unit
val read_file : string -> (t, string) result
val pp_digest : Format.formatter -> digest -> unit
