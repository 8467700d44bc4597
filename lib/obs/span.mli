(** Transaction span assembly: stitches [Req_issue] / [Req_response] /
    [Req_reissue] / [Req_retire] events sharing a transaction id into
    per-miss spans with a two-phase breakdown —

    - {b request}: issue until the first response reaches the requester;
    - {b fill}: first response until the processor is released.

    Their sum is the span total, which reconciles with the protocol's
    [miss_latency] Welford accumulator when no events were dropped.

    Spans additionally carry a hop-level attribution fed by [Net_hop] /
    [Mem_hop] events: memory access, fabric queueing, fabric flight,
    and protocol occupancy (the residual), which sum to the span total
    exactly by construction. *)

type t = {
  tid : int;
  node : int;
  proc : int;
  addr : int;
  rw : Event.rw;
  issued : Sim.Time.t;
  mutable first_response : Sim.Time.t option;
  mutable retired : Sim.Time.t option;
  mutable reissues : int;
  mutable fill : Event.fill option;
  mutable cause : Event.cause option;
  mutable persistent : bool;
  mutable retries : int;
  mutable mem_ns : float;  (** memory controller + DRAM occupancy *)
  mutable queue_ns : float;  (** port/link wait of the satisfying response *)
  mutable flight_ns : float;  (** wire + serialization of that response *)
}

val completed : t -> bool

(** Phase durations in nanoseconds; [None] until the span has the
    events that bound the phase. Spans with no observed response
    attribute their whole latency to the request phase. *)

val request_ns : t -> float option
val fill_ns : t -> float option
val total_ns : t -> float option

(** Protocol-occupancy residual: [total - mem - queue - flight]. *)
val proto_ns : t -> float option

(** Spans in issue order. Retires whose issue was lost to ring wrap
    are dropped (the span would have no start). *)
val assemble : Buffer.t -> t list

(** Like {!assemble} but also returns how many retires had no live
    matching issue — latency samples that exist in the protocol's
    Welford but in no span. Non-zero means the ring wrapped (or a
    crashed node's reissue was not re-announced) and reconciliation
    can only be approximate. *)
val assemble_full : Buffer.t -> t list * int

type summary = {
  spans : int;  (** completed spans *)
  incomplete : int;
  dropped_spans : int;  (** retires with no matching issue (ring wrap) *)
  request_total_ns : float;
  fill_total_ns : float;
  total_ns : float;
}

val summarize : ?dropped_spans:int -> t list -> summary

type attribution = {
  att_spans : int;
  att_mem_ns : float;
  att_queue_ns : float;
  att_flight_ns : float;
  att_proto_ns : float;
  att_total_ns : float;  (** = mem + queue + flight + proto, exactly *)
}

(** Hop-level critical-path attribution over completed spans: the
    overall breakdown plus, when any span completed, the p99 tail
    (threshold in ns, breakdown of the slowest 1%, at least one span). *)
val attribution : t list -> attribution * (float * attribution) option
