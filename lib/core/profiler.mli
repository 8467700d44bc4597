(** Coherence profiler: one instrumented run (trace buffer + metrics
    registry + periodic sampler) distilled into a miss-classification,
    hop-attribution and hot-block report.

    The per-class decomposition comes from {!Mcmp.Counters.record_miss}
    (the single funnel every protocol feeds), so class counts sum to
    the miss total and class histogram mass equals the overall
    histogram mass {e exactly}. Span-level numbers come from the trace
    buffer and reconcile exactly when the ring did not wrap; the
    [reconciliation] table says which guarantee held.

    {!tables} is the one report: [tokencmp profile] prints it and
    writes it to [-o], and the [profile] bench section commits it.
    {!failures} is the one rule both fail on. *)

type class_row = {
  cause : Obs.Event.cause;
  count : int;
  share : float;  (** of all classified misses; 0 when there are none *)
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p99_clamped : bool;  (** histogram tail clamped: p99 is a lower bound *)
  class_total_ns : float;  (** histogram mass (ns, integer-truncated) *)
}

type block_row = {
  block_addr : int;
  block_misses : int;  (** completed spans touching the block *)
  block_total_ns : float;  (** summed span latency *)
  block_retries : int;
  block_persistent : int;  (** spans that escalated to a persistent request *)
}

type reconciliation = {
  misses : int;  (** Welford sample count (retired misses) *)
  class_count_total : int;  (** sum of per-class counts *)
  class_mass_ns : float;  (** sum of per-class histogram totals *)
  histogram_mass_ns : float;  (** overall miss histogram total *)
  welford_mass_ns : float;  (** count x mean, float-accurate *)
  span_mass_ns : float;  (** summed latency of the completed spans *)
  spans : int;
  incomplete : int;
  dropped_spans : int;  (** retires whose issue was lost (ring wrap) *)
  buffer_dropped : int;  (** raw events lost to ring wrap *)
  classes_exact : bool;  (** class counts and mass reconcile exactly *)
  spans_exact : bool;  (** {!spans_reconcile} held *)
}

type t = {
  protocol : string;
  seed : int;
  runtime_ns : float;
  completed : bool;
  ops : int;
  events : int;
  l1_misses : int;
  classes : class_row list;  (** in {!Obs.Event.all_causes} order *)
  hot_blocks : block_row list;  (** top-K by miss count *)
  contended_blocks : block_row list;  (** top-K by total latency *)
  attribution : Obs.Span.attribution;  (** over all completed spans *)
  tail : (float * Obs.Span.attribution) option;
      (** p99 threshold (ns) and the attribution of spans at or above it *)
  nsamples : int;  (** time-series samples recorded *)
  reconciliation : reconciliation;
  perfetto : Tcjson.t;  (** trace with span slices and counter tracks *)
}

(** Run [protocol] once under full instrumentation and build the
    report. [capacity] sizes the trace ring (default one million
    events — enough that tiny-config runs never wrap), [period] the
    counter-track cadence (default 1 us of simulated time), [top_k]
    the hot/contended block table depth (default 8). *)
val profile :
  ?config:Mcmp.Config.t ->
  ?capacity:int ->
  ?period:Sim.Time.t ->
  ?top_k:int ->
  protocol:Protocols.t ->
  programs:(proc:int -> Workload.Program.t) ->
  seed:int ->
  unit ->
  t

(** The span-accounting guarantee behind [spans_exact]: the ring
    dropped nothing, every retired miss has a span
    ([spans + dropped_spans = misses]), and the span latency mass
    equals the Welford mass within 1e-6 relative. *)
val spans_reconcile : reconciliation -> bool

(** The report of several runs, each table stacked into one long table
    with a leading [protocol] column, in print order under the keys
    [runs] (seed, runtime, completion, ops, engine events, L1 misses,
    samples), [classes], [attribution], [hot_blocks],
    [contended_blocks] and [reconciliation] (every {!reconciliation}
    field). *)
val tables : t list -> (string * Table.t) list

(** Every guarantee the report breaks, one message each, led by the
    protocol name: the run did not complete; the class decomposition
    is not exact; a ring that dropped nothing does not reconcile its
    spans; the attribution total differs from the span mass by more
    than 1e-6 relative; the sampler recorded nothing; the Perfetto
    export does not validate. Empty when the report holds. *)
val failures : t -> string list
