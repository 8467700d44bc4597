(** Per-run event counters and latency statistics. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable ifetches : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_local_fills : int;  (** misses satisfied within the CMP *)
  mutable remote_fills : int;  (** misses satisfied by another CMP *)
  mutable mem_fills : int;  (** misses satisfied by DRAM *)
  mutable transient_retries : int;
  mutable persistent_requests : int;
  mutable persistent_reads : int;
  mutable writebacks : int;
  mutable dir_indirections : int;  (** 3-hop directory transactions *)
  miss_latency : Sim.Stat.Welford.t;  (** ns *)
  miss_histogram : Sim.Stat.Histogram.t;  (** 10 ns buckets, for percentiles *)
  cause_counts : int array;  (** indexed by {!Obs.Event.cause_index} *)
  cause_latency : Sim.Stat.Histogram.t array;  (** same geometry as miss_histogram *)
}

val create : unit -> t

val data_ops : t -> int

(** Committed operations: [data_ops] plus instruction fetches. The
    [ops] of a run, as {!Runner.run} and the torture harness report it. *)
val ops : t -> int

(** [record_miss t ~cause lat_ns] is the single funnel for miss-latency
    samples: it feeds [miss_latency], [miss_histogram] and the
    per-cause count/histogram in one call, so the per-class
    decomposition reconciles exactly with the overall statistics. *)
val record_miss : t -> cause:Obs.Event.cause -> float -> unit

val cause_count : t -> Obs.Event.cause -> int
val cause_histogram : t -> Obs.Event.cause -> Sim.Stat.Histogram.t

(** [merge ~into src] accumulates [src] into [into]: counters add,
    [miss_latency] combines via {!Sim.Stat.Welford.merge} and
    [miss_histogram] bucket-wise. Used to aggregate per-seed results. *)
val merge : into:t -> t -> unit

(** Register every counter, the persistent fraction, the miss-latency
    mean and standard deviation and the per-class miss counts into a
    metrics registry as gauges under [counters.]. *)
val register : Obs.Registry.t -> t -> unit

(** Fraction of L1 misses that escalated to a persistent request. *)
val persistent_fraction : t -> float

val pp : Format.formatter -> t -> unit
