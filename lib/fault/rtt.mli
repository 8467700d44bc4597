(** TCP-RTO-style adaptive timeout estimator (RFC 6298 / Jacobson).

    One estimator tracks one link's observed delivery latency as an
    exponentially-weighted mean ([srtt], gain 1/8) and mean deviation
    ([rttvar], gain 1/4); {!rto} is [srtt + 4 * rttvar] clamped into
    [[floor, ceiling]]. An adaptive {!Transport} keeps one per ordered
    site pair, so retransmission backs off against what the link is
    {e actually} doing — a degraded link inflates samples and the
    timeout follows, instead of a fixed constant retransmitting into a
    brownout.

    The estimator draws no randomness and is pure bookkeeping: creating
    or feeding one can never perturb a seeded run's rng streams. *)

(** The least returned timeout, 300 ns: {!Transport.retrans_timeout},
    so an unfed estimator behaves exactly like the fixed transport. *)
val floor : Sim.Time.t

(** The largest returned timeout, 5 us: the bound liveness watchdogs
    must budget for (see {!Token.Recovery.worst_case_latency}). *)
val ceiling : Sim.Time.t

type t

val create : unit -> t

(** Feed one observed delivery latency. *)
val observe : t -> Sim.Time.t -> unit

(** Current retransmission timeout: [floor] until the first sample,
    then [srtt + 4 * rttvar] clamped into [[floor, ceiling]]. *)
val rto : t -> Sim.Time.t

val samples : t -> int
