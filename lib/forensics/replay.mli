(** Deterministic re-execution of a repro bundle.

    [run] rebuilds the exact torture run the bundle describes —
    stochastic when the bundle has no script (the recorded seed regrows
    the identical fault schedule), scripted when it does (shrunk
    bundles) — and [check] compares the fresh outcome against the
    recorded digest. *)

val run : Bundle.t -> Fault.Torture.outcome

type check_result =
  | Reproduced of Fault.Torture.outcome
  | Diverged of {
      outcome : Fault.Torture.outcome;
      expected : Bundle.digest;
      got : Bundle.digest;
    }

val check : Bundle.t -> check_result

(** [replay]'s exit code for a reproduced outcome: 0 clean or survived
    partition, 1 detected or a safety failure, 2 a liveness failure.
    Failures are classified by {!Fault.Torture.exit_code}, as in the
    campaigns. *)
val exit_code : Fault.Torture.outcome -> int
