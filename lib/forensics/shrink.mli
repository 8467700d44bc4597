(** Delta-debugging counterexample shrinker.

    Takes a failing repro bundle, re-materializes its concrete fault
    schedule (the plan's non-Pass decisions), and minimizes it with
    ddmin (Zeller-Hildebrandt) composed with an empty-schedule pre-test
    (chaos-only failures), horizon truncation (events after the first
    report cannot have caused it) and machine-shape shrinking (halving
    CMP / processor / L2-bank counts while the failure survives,
    re-materializing the schedule on each adopted shape). The property
    a candidate must preserve is exact verdict equality — same
    {!Fault.Torture.verdict} including the failure message.

    Candidates are evaluated in parallel on {!Par.Pool} with
    submission-order determinism and memoized, so the shrink result is
    byte-identical at any [jobs]. The result is 1-minimal: ddmin
    terminates only after every remove-one complement of the surviving
    schedule has been tested and passed. *)

type stats = {
  s_candidates : int;  (** candidate simulations actually executed *)
  s_failing : int;  (** of those, how many still reproduced the failure *)
  s_rounds : int;  (** ddmin granularity iterations *)
  s_shape_trials : int;  (** machine-shape reductions attempted *)
  s_wall_s : float;  (** host wall-clock for the whole shrink *)
}

type result = {
  r_bundle : Bundle.t;
      (** minimal scripted bundle: the shrunk machine shape, the
          1-minimal schedule as [p_script], and a fresh digest of the
          minimal run — ready for [tokencmp replay] *)
  r_outcome : Fault.Torture.outcome;  (** the minimal run itself *)
  r_schedule : Fault.Plan.event list;  (** the 1-minimal schedule *)
  r_original_events : int;  (** schedule size before shrinking *)
  r_stats : stats;
}

(** Errors on bundles recording a passing run, on bundles that no
    longer reproduce their digest, and on the (never observed)
    pathology of the final minimal schedule failing to reproduce.
    [log] receives one-line progress messages. *)
val run :
  ?jobs:int ->
  ?log:(string -> unit) ->
  Bundle.t ->
  (result, string) Stdlib.result

(** Human-readable forensics report: surviving fault events with
    timestamps/links/classes, the final reports and invariant
    violation, blame cross-links, and shrink cost. *)
val report : result -> string
