(** TokenCMP: flat-for-correctness, hierarchical-for-performance M-CMP
    coherence.

    Every cache in the machine (L1d, L1i, L2 banks) is a token-coherence
    node; memory controllers hold home tokens. The correctness
    substrate — token counting plus persistent requests — never inspects
    the CMP hierarchy; the chosen {!Policy.t} decides how transient
    requests are broadcast, escalated off-chip, retried, predicted and
    filtered (Sections 3-4 of the paper). *)

(** Introspection hooks for tests (token-conservation and related
    invariants). *)
type debug = {
  token_count : Cache.Addr.t -> int;
      (** tokens currently held at caches + home memory (not in flight) *)
  inflight_count : Cache.Addr.t -> int;  (** tokens inside messages *)
  total_tokens : int;  (** T *)
  node_tokens : int -> Cache.Addr.t -> int;
  node_owner : int -> Cache.Addr.t -> bool;
  persistent_entries : unit -> int;  (** live table entries, all nodes *)
}

(** Recovery-layer activity counters (all zero when the protocol was
    built without recovery). *)
type recovery_stats = {
  rs_recreations : int;  (** token sets reminted at home controllers *)
  rs_epoch_bumps : int;  (** epoch bumps applied at caches *)
  rs_stale_discards : int;  (** superseded-epoch token messages discarded *)
  rs_crashes : int;  (** cache nodes crashed *)
}

(** Full instrumentation bundle for the fault-injection torture
    harness: the protocol handle plus debug hooks, the invariant probe
    (token conservation per block, exactly-one owner,
    valid-data-implies-token, owner-implies-data, persistent-request-
    table consistency), the state dump, and the interconnect fabric (so
    a fault plan can be installed on it). This is the protocol's one
    constructor; {!builder} is it with everything but the handle
    dropped. Fabric message labels are left empty: a caller that wants
    them in traces installs {!Msg.label} with
    {!Interconnect.Fabric.set_msg_label}.

    [i_crash]/[i_restart] power-cycle a cache node (see the recovery
    fault model): a crash loses all volatile state — resident lines,
    MSHR, activation tables — while the block-epoch table survives and
    the interrupted request is re-issued at restart. Only meaningful
    when built with [~recovery:true]; crashing a memory node raises
    [Invalid_argument]. *)
type instrumented = {
  i_handle : Mcmp.Protocol.handle;
  i_debug : debug;
  i_probe : Mcmp.Probe.t;
  i_dump : Format.formatter -> unit -> unit;
  i_fabric : Msg.t Interconnect.Fabric.t;
  i_crash : int -> unit;
  i_restart : int -> unit;
  i_recovery : unit -> recovery_stats;
}

(** [~recovery:true] opts the protocol into the fault-recovery layer:
    per-block epoch numbers stamped on token messages, home-controller
    token recreation when a persistent request starves past
    [recreation_timeout], leased persistent activations with periodic
    refresh, and crash/restart support. Without it the protocol is
    bit-identical to the pre-recovery implementation (epoch 0 on every
    message, no extra randomness, messages or timers), which is what
    keeps golden traces stable. In recovery mode the invariant probe
    tolerates token {e deficits} (healed by recreation) but still
    reports excess tokens or duplicate owners — the unsafe direction. *)
val create_instrumented :
  ?recovery:bool ->
  Policy.t ->
  Sim.Engine.t ->
  Mcmp.Config.t ->
  Interconnect.Traffic.t ->
  Sim.Rng.t ->
  Mcmp.Counters.t ->
  instrumented

(** [builder policy] is {!create_instrumented} without recovery,
    keeping only the handle — plug into {!Mcmp.Runner.run}. *)
val builder : Policy.t -> Mcmp.Protocol.builder
