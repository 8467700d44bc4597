(** Timescales of the token-recreation recovery layer.

    Recovery is strictly opt-in: a protocol built without it draws no
    extra randomness, sends no extra messages and stamps every token
    message with epoch 0, so fixed-seed runs are bit-identical with the
    recovery code compiled in but idle. *)

(** 5 us: how long a persistent request may starve before its
    requester asks the home controller to recreate the block's tokens
    (also the retry period of that ask). *)
val recreation_timeout : Sim.Time.t

(** 5 us: home-controller rebroadcast period for un-acked epoch bumps —
    what rides through caches that are crashed mid-recreation. *)
val bump_retry : Sim.Time.t

(** 10 us: period of the recovery tick: persistent-activation refresh
    (re-populating restarted nodes' tables) and expired-lease purging. *)
val refresh_interval : Sim.Time.t

(** 30 us: validity of a persistent-activation table entry without a
    refresh; stale entries a crash orphaned expire instead of blocking a
    block forever. *)
val lease : Sim.Time.t

(** 140 us: a conservative bound on end-to-end recovery latency: two
    full recreations, each preceded by a starvation timeout and
    possibly waiting out a crashed cache (20 us) plus bump retries and
    a lease expiry. {!Fault.Watchdog} margins must exceed this so a
    legitimately-recovering run is never flagged as livelocked. *)
val worst_case_latency : Sim.Time.t
