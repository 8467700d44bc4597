(** Chaos plans: scheduled network-level outage campaigns.

    Where {!Plan} perturbs individual message copies (i.i.d. drops,
    delays, duplicates), a chaos plan drives a {e link table}: one
    {!link_state} per ordered pair of sites. A plan is a list of
    {!cause}s, each holding some links in one state over one interval
    (a flapping pair's down cycle, a 2-region cut, a correlated loss
    burst). A link's state is the worst of the causes holding it at
    the time, so causes stack: when one ends it lifts only its own
    hold, and a flap that heals inside a partition leaves the pair
    cut. The table is a fault injector wrapped over the plan's, so the
    two compose at the fabric's one fault hook: the plan speaks per
    copy, and the link state applies to what the plan let through. A
    {!Transport} wraps the table in turn on runs that retransmit.

    Determinism discipline: {!install} seeds a dedicated rng stream
    (flap pair picks, degraded-loss draws), so arming a chaos plan
    draws nothing from the protocol's, the fault plan's or the
    fabric's streams — chaos on/off leaves every other draw identical,
    and a plan whose first cause starts beyond the run's end changes
    nothing at all. *)

(** A [Link_down] link loses every copy; a [Link_degraded] link loses
    each copy with [drop_prob] and delays a survivor by
    [latency_mult - 1] x the fabric's inter-site latency. *)
type link_state =
  | Link_up
  | Link_degraded of { latency_mult : float; drop_prob : float }
  | Link_down

(** The links a cause holds. *)
type held =
  | Pair of int
      (** both directions of the [i]th flapping site pair; {!install}
          draws pairs [0, 1, ...] in order from the chaos stream *)
  | Cut  (** every link between a site below [ncmp / 2] and a site at or above it *)
  | Every_link  (** every inter-site link *)

(** [held] is in [state] from [from] until [until]. *)
type cause = { held : held; from : Sim.Time.t; until : Sim.Time.t; state : link_state }

(** Causes are scheduled in list order, so two that start or end at
    the same instant take effect in that order. *)
type spec = cause list

(** [flaky ()] — [links] site pairs go down for [down] out of every
    [period], [cycles] times, starting at [start]: one cause per pair
    and cycle, pair by pair.
    @raise Invalid_argument if [down >= period]. *)
val flaky :
  ?links:int ->
  ?cycles:int ->
  ?start:Sim.Time.t ->
  ?down:Sim.Time.t ->
  ?period:Sim.Time.t ->
  unit ->
  spec

(** [split ~duration ()] — the 2-region {!Cut} from [at] until
    [at + duration]. *)
val split : ?at:Sim.Time.t -> duration:Sim.Time.t -> unit -> spec

(** [burst_loss ()] — every inter-site link degrades at once from
    3 us to 7 us: 0.3 per-copy loss and 4 x latency. *)
val burst_loss : unit -> spec

(** The loss-free rendition of a plan: every Down becomes an 8 x-latency
    degrade and every degrade keeps its latency but loses nothing.
    What directory targets take in place of a hard partition. *)
val brownout_of : spec -> spec

(** Whether some cause can lose a copy (a Down link, or a degrade with
    a positive [drop_prob]). *)
val lossy : spec -> bool

(** Longest stretch of the union of every cause's interval. No link is
    impaired for longer, however causes stack — what a liveness
    watchdog must be willing to out-wait on top of recovery latency. *)
val max_outage : spec -> Sim.Time.t

(** [partitions] counts {!Cut} starts, [flap_downs] {!Pair} starts and
    [bursts_applied] {!Every_link} starts. [heals] counts the cause
    ends that brought some link back up: one that ends while other
    causes still hold all its links heals nothing. [cut_copies] counts
    the copies a link held by a {!Cut} dropped or delayed: a cut that
    held no traffic has none. *)
type stats = {
  mutable flap_downs : int;
  mutable partitions : int;
  mutable heals : int;
  mutable bursts_applied : int;
  mutable cut_copies : int;
}

(** {2 The link table} *)

type links

(** [install ~seed ~spec fabric inner] builds a table with every link
    up, schedules the start and end of every cause of [spec], and
    returns with it the injector to install on [fabric] in place of
    [inner]: it asks [inner] first and then applies the state of the
    copy's link to a copy [inner] did not drop: a link drop stands, a
    link delay adds to a plan delay, and a plan duplicate passes
    un-delayed. On-chip copies cross no link.
    When a cause starts or ends, each link it holds takes the worst
    state of the causes holding it then: Down beats a degrade, and two
    degrades combine into the larger [latency_mult] and the larger
    [drop_prob]. Flap pair picks and degraded-link losses draw from a
    stream derived from [seed]; with one site nothing is scheduled.
    Registers [fabric.links_down], [fabric.link_downtime_ns],
    [fabric.outage_drops] and [fabric.link_transitions] when the engine
    carries a metrics registry. Returns the counters the causes update,
    the table and the injector; with an empty plan, every link stays up
    and no arrival changes.
    @raise Invalid_argument on a cause that ends before it starts. *)
val install :
  seed:int ->
  spec:spec ->
  'msg Interconnect.Fabric.t ->
  'msg Interconnect.Fabric.injector ->
  stats * links * 'msg Interconnect.Fabric.injector

(** Transition one ordered link, emitting {!Obs.Event.Link_down},
    [Link_degraded] or [Link_healed] on tracing runs; a no-op if the
    link is already in [state].
    @raise Invalid_argument on a bad site or on the diagonal. *)
val set_link_state : links -> src_site:int -> dst_site:int -> link_state -> unit

val link_state : links -> src_site:int -> dst_site:int -> link_state

(** [partition links state] puts every link a {!Cut} holds into [state]. *)
val partition : links -> link_state -> unit

(** Every link back to [Link_up]. *)
val heal : links -> unit

val links_down : links -> int

(** Time spent down, summed over links, outages in progress included. *)
val link_downtime : links -> Sim.Time.t

(** Time spent degraded, summed over links, in the same way. *)
val link_degraded_time : links -> Sim.Time.t

(** Copies lost to down or degraded links (the fabric counts them in
    its [dropped] too). *)
val outage_drops : links -> int

val link_transitions : links -> int

(** The whole plan on one line. *)
val pp : Format.formatter -> spec -> unit

val pp_stats : Format.formatter -> stats -> unit
