(** Chaos plans: scheduled network-level outage campaigns.

    Where {!Plan} perturbs individual message copies (i.i.d. drops,
    delays, duplicates), a chaos plan drives a {e link table}: one
    {!link_state} per ordered pair of sites, changed by scheduled
    transitions (flapping links, a 2-region partition with a scheduled
    heal, correlated burst loss). The table reaches the fabric as a
    fault injector wrapped over the plan's, so the two compose at the
    fabric's one fault hook: the plan speaks per copy, and the link
    state applies to what the plan let through.

    Determinism discipline: {!install} seeds a dedicated rng stream
    (link picks, degraded-loss draws), so arming a chaos plan draws
    nothing from the protocol's, the fault plan's or the fabric's
    streams — chaos on/off leaves every other draw identical, and a
    plan whose first transition lies beyond the run's end changes
    nothing at all. *)

type burst = {
  burst_at : Sim.Time.t;
  burst_duration : Sim.Time.t;
  burst_drop_prob : float;  (** per-copy loss on every inter-site link *)
  burst_latency_mult : float;  (** latency multiplier while the burst lasts *)
}

type spec = {
  flap_links : int;  (** how many site pairs flap (picked from the chaos stream) *)
  flap_cycles : int;  (** down/up cycles per flapping link *)
  flap_start : Sim.Time.t;
  flap_down : Sim.Time.t;  (** time down per cycle *)
  flap_period : Sim.Time.t;  (** cycle length (down + up) *)
  partition_at : Sim.Time.t option;  (** 2-region split start *)
  partition_duration : Sim.Time.t;
  bursts : burst list;
  brownout : bool;
      (** degrade instead of cutting: links go [Link_degraded] (loss-free,
          [brownout_mult] x latency) rather than [Link_down] — the only
          chaos a protocol without reliable transport can survive *)
  brownout_mult : float;
}

(** No chaos at all ([active none = false]). *)
val none : spec

(** [flaky ()] — [links] site pairs go down for [down] out of every
    [period], [cycles] times, starting at [start].
    @raise Invalid_argument if [down >= period]. *)
val flaky :
  ?links:int ->
  ?cycles:int ->
  ?start:Sim.Time.t ->
  ?down:Sim.Time.t ->
  ?period:Sim.Time.t ->
  unit ->
  spec

(** [split ~duration ()] — a 2-region partition (low-numbered CMPs vs
    high-numbered) from [at] until [at + duration], then a scheduled
    heal. *)
val split : ?at:Sim.Time.t -> duration:Sim.Time.t -> unit -> spec

(** [burst_loss ()] — every inter-site link degrades at once from
    3 us to 7 us: 0.3 per-copy loss and 4 x latency. *)
val burst_loss : unit -> spec

(** The loss-free rendition of a plan: every Down becomes a
    [brownout_mult] x-latency degrade and burst loss drops to zero.
    What directory targets take in place of a hard partition. *)
val brownout_of : spec -> spec

(** Whether the plan schedules any transition at all. *)
val active : spec -> bool

val has_partition : spec -> bool

(** Longest continuous impairment of any single link — what a liveness
    watchdog must be willing to out-wait on top of recovery latency. *)
val max_outage : spec -> Sim.Time.t

(** Latest scheduled heal; after this the network is whole and
    convergence is owed. *)
val horizon : spec -> Sim.Time.t

type stats = {
  mutable flap_downs : int;
  mutable partitions : int;
  mutable heals : int;
  mutable bursts_applied : int;
}

(** {2 The link table} *)

(** A [Link_down] link loses every copy; a [Link_degraded] link loses
    each copy with [drop_prob] and delays a survivor by
    [latency_mult - 1] x the fabric's inter-site latency. *)
type link_state =
  | Link_up
  | Link_degraded of { latency_mult : float; drop_prob : float }
  | Link_down

type links

(** [install ~seed ~spec fabric inner] builds a table with every link
    up, schedules every transition of [spec], and installs on [fabric]
    the injector that asks [inner] first and then applies the state of
    the copy's link to a copy [inner] did not drop: a link drop stands,
    a link delay adds to a plan delay, and a plan duplicate passes
    un-delayed. On-chip copies cross no link. Link picks and
    degraded-link losses draw from a stream derived from [seed].
    Registers [fabric.links_down], [fabric.link_downtime_ns],
    [fabric.outage_drops] and [fabric.link_transitions] when the engine
    carries a metrics registry. Returns the counters the transitions
    update, and the table; with {!none}, every link stays up and no
    arrival changes. *)
val install :
  seed:int ->
  spec:spec ->
  'msg Interconnect.Fabric.t ->
  'msg Interconnect.Fabric.injector ->
  stats * links

(** Transition one ordered link, emitting {!Obs.Event.Link_down},
    [Link_degraded] or [Link_healed] on tracing runs; a no-op if the
    link is already in [state].
    @raise Invalid_argument on a bad site or on the diagonal. *)
val set_link_state : links -> src_site:int -> dst_site:int -> link_state -> unit

val link_state : links -> src_site:int -> dst_site:int -> link_state

(** [partition links state] puts every link between a site below
    [ncmp / 2] and a site at or above it into [state]. *)
val partition : links -> link_state -> unit

(** Every link back to [Link_up]. *)
val heal : links -> unit

val links_down : links -> int

(** Time spent down, summed over links, outages in progress included. *)
val link_downtime : links -> Sim.Time.t

(** Copies lost to down or degraded links (the fabric counts them in
    its [dropped] too). *)
val outage_drops : links -> int

val link_transitions : links -> int

val pp : Format.formatter -> spec -> unit
val pp_stats : Format.formatter -> stats -> unit
