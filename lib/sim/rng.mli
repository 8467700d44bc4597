(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic choice in the simulator draws from an explicit
    generator so that runs are reproducible from a single integer seed,
    and independent streams can be split off for perturbation studies
    (Alameldeen & Wood, HPCA 2003). *)

type t

val create : int -> t

(** [int t n] returns a uniform integer in [0, n). [n] must be positive. *)
val int : t -> int -> int

(** A draw's range with its rejection bound, which [int t n] computes
    (a 64-bit division) on every draw. *)
type span

(** [span n] is the range [0, n). [n] must be positive. *)
val span : int -> span

(** [int_span t (span n)] is [int t n]: the same value and the same
    generator state afterwards, draw for draw, without recomputing the
    bound. *)
val int_span : t -> span -> int

(** [int_in t lo hi] returns a uniform integer in [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t x] returns a uniform float in [0, x). *)
val float : t -> float -> float

val bool : t -> bool

(** [split t] derives an independent generator stream. *)
val split : t -> t

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
