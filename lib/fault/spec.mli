(** Fault-injection specification: what kinds of network misbehaviour a
    torture run subjects the protocol to, and how hard.

    All probabilities are per (message, destination) copy. The modes:

    - {b delay spikes}: with [delay_prob], hold a copy for a uniform
      extra [delay_min .. delay_max] — far beyond normal latency, which
      forces timeout reissues and persistent-request escalation;
    - {b reordering amplification}: with [reorder_prob], add a small
      uniform delay up to [reorder_max], shuffling copies relative to
      each other much more aggressively than the fabric's jitter;
    - {b duplication}: with [dup_prob], deliver a copy twice. Only
      transient {e requests} are duplicated — duplicating a
      token-carrying message would mint tokens, which is exactly the
      deliberate corruption [duplicate_tokens] exists for;
    - {b transient node stalls}: every [stall_period], up to
      [stall_nodes] random nodes each stall with [stall_prob] for
      [stall_len] — a "slow chip" whose in- and outbound traffic is
      held until the stall ends;
    - {b drops} (opt-in): with [drop_prob], destroy a transient-request
      copy. The protocol must survive via timeout -> reissue ->
      persistent request. With [drop_tokens] the plan may also destroy
      token-carrying messages; that is unrecoverable by design and must
      be {e detected} (reported), never silently absorbed — unless the
      run opts into the recovery layer, whose token recreation turns
      token loss into a survivable (bounded-slowdown) fault;
    - {b crash/restart} (opt-in, recovery runs only): [crashes] cache
      nodes are power-cycled over the run, each losing all volatile
      state and coming back after [crash_down]. The torture harness
      schedules them from its own RNG stream so the message-level fault
      sequence is untouched.

    Persistent-request messages are never dropped or duplicated: token
    coherence's liveness layer assumes a lossless network, and the
    distributed activation tables are sequence-numbered against
    reordering only. *)
type t = {
  delay_prob : float;
  delay_min : Sim.Time.t;
  delay_max : Sim.Time.t;
  reorder_prob : float;
  reorder_max : Sim.Time.t;
  dup_prob : float;
  stall_prob : float;
  stall_nodes : int;
  stall_len : Sim.Time.t;
  stall_period : Sim.Time.t;
  drop_prob : float;
  drop_tokens : bool;  (** corruption mode: drop token-carrying messages *)
  duplicate_tokens : bool;  (** corruption mode: duplicate token-carrying messages *)
  crashes : int;  (** cache crash/restart cycles over the run (0 = none) *)
  crash_down : Sim.Time.t;  (** downtime between a crash and its restart *)
}

val none : t

(** Gentle every-mode mix: delays, reordering, duplication, stalls. *)
val default : t

(** Random mix for campaign runs (never includes drops or the
    token-corruption modes; opt in via {!with_drops}). *)
val random : Sim.Rng.t -> t

(** Enable drop mode at probability [prob]; [tokens] additionally
    allows (unrecoverable, detected) token-carrying drops. *)
val with_drops : ?tokens:bool -> prob:float -> t -> t

(** Schedule [count] cache crash/restart cycles, each 10 us long.
    Only meaningful for recovery-mode torture runs. *)
val with_crashes : count:int -> t -> t

(** Restrict to delay/reorder/stall faults — what DirectoryCMP can
    survive, since it has no timeout-driven retry path. *)
val delay_only : t -> t

val pp : Format.formatter -> t -> unit
