(** A seeded, executable fault plan: the bridge between a {!Spec.t} and
    a fabric's injection hook. One plan per run; every decision draws
    from the plan's own SplitMix64 stream, so a (seed, spec) pair
    replays the exact same fault sequence.

    Plans run in one of two modes. In the default {e stochastic} mode
    every decision rolls the plan RNG; every non-Pass outcome is also
    logged as an {!event} keyed by its {e offer index} (the ordinal of
    the [decide] call), materializing the concrete fault schedule. In
    {e scripted} mode ([?script]) the RNG is never consulted: the plan
    replays an explicit event list, applying each scheduled action at
    its recorded offer index. Because the decision points themselves
    are deterministic given the run recipe, replaying a plan's full
    event log is bit-identical to the stochastic run that produced it —
    and any {e subset} of the log is a valid candidate schedule, which
    is what the forensics shrinker delta-debugs over. *)

type drop_record = {
  dr_time : Sim.Time.t;
  dr_src : int;
  dr_dst : int;
  dr_cls : Interconnect.Msg_class.t;
  dr_label : string;
  dr_recoverable : bool;
      (** true: a transient request the protocol must recover from via
          timeout/reissue; false: a token-carrying message — the run is
          expected to report it, not survive it *)
}

(** What the plan did to one message copy. Reorders are folded into
    [Delay_copy] (a reorder IS a bounded delay at the fabric level). *)
type action = Drop_copy | Delay_copy of Sim.Time.t | Duplicate_copy of Sim.Time.t

(** One materialized fault: the [ev_index]-th decision point of the
    run, what was hit, and what was done to it. *)
type event = {
  ev_index : int;  (** offer index: ordinal of the [decide] call *)
  ev_time : Sim.Time.t;
  ev_src : int;
  ev_dst : int;
  ev_cls : Interconnect.Msg_class.t;
  ev_label : string;
  ev_action : action;
  ev_destructive : bool;
      (** true for faults the protocol is not expected to absorb:
          unrecoverable-class token drops and token-minting duplicates *)
}

type stats = {
  mutable delays : int;
  mutable reorders : int;
  mutable dups : int;
  mutable stall_holds : int;
  mutable drops_recoverable : int;
  mutable drops_unrecoverable : int;
  mutable token_dups : int;  (** deliberate token-minting duplicates *)
}

type t

(** [recovery] marks token-carrying drops as recoverable (the recovery
    layer's token recreation heals them) instead of unrecoverable. It
    changes bookkeeping only: the plan's RNG stream is drawn
    identically either way, so the same (seed, spec) pair fires the
    exact same fault sequence with recovery on or off — recovery
    randomness can never perturb the fault schedule.

    [script] switches the plan to scripted mode: the given events are
    applied at their recorded offer indices and the RNG is never
    consulted. An action is applied only if the stochastic plan could
    have offered it to the message actually seen at that index —
    persistent-class messages are never harmed, drops and duplicates
    respect the spec's corruption flags — so shrunk schedules cannot
    express faults the torture harness never injects.
    Raises [Invalid_argument] on duplicate offer indices. *)
val create : ?recovery:bool -> ?script:event list -> seed:int -> nodes:int -> Spec.t -> t

val spec : t -> Spec.t
val seed : t -> int
val stats : t -> stats

(** True iff the plan was created with [?script]. *)
val scripted : t -> bool

(** Number of decision points consulted so far. *)
val offers : t -> int

(** The unrecoverable subset — what the monitor turns into reports. *)
val unrecoverable_drops : t -> drop_record list

(** The materialized fault schedule: every non-Pass decision so far,
    oldest first. *)
val events : t -> event list

(** Most recent destructive event, if any — the forensic blame for an
    invariant violation detected right after it. *)
val last_destructive : t -> event option

(** Most recent drop on the given directed link — the blame candidate
    for a retransmit-exhausted report on that link. *)
val last_drop_on : t -> src:int -> dst:int -> event option

(** Generic decision point, exposed for tests. *)
val decide :
  t ->
  now:Sim.Time.t ->
  src:int ->
  dst:int ->
  cls:Interconnect.Msg_class.t ->
  tokens_carried:int ->
  label:(unit -> string) ->
  Interconnect.Fabric.fault_action

(** Injector for {!Token.Protocol} fabrics: token-carrying messages are
    identified via {!Token.Msg.tokens_carried} so drops/duplicates are
    gated per the spec's corruption flags. *)
val token_injector : t -> Token.Msg.t Interconnect.Fabric.injector

(** Injector for {!Directory.Protocol} fabrics. The directory protocol
    survives only delay/reorder/stall faults (it has no retry path), so
    pair this with {!Spec.delay_only} plans. *)
val directory_injector : t -> Directory.Msg.t Interconnect.Fabric.injector

val pp_drop_record : Format.formatter -> drop_record -> unit
val pp_event : Format.formatter -> event -> unit
val pp_stats : Format.formatter -> stats -> unit
