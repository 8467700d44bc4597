(** Statistics helpers: running moments, confidence intervals,
    exponential moving averages and histograms. *)

(** Running mean/variance accumulator (Welford's algorithm). *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Sample variance; 0 for fewer than two observations. *)
  val variance : t -> float

  val stddev : t -> float

  (** Half-width of an approximate 95% confidence interval on the mean
      (normal approximation; 0 for fewer than two observations). *)
  val ci95 : t -> float

  (** [merge ~into src] folds [src]'s samples into [into] (Chan's
      parallel combination); [src] is left untouched. *)
  val merge : into:t -> t -> unit
end

(** Summary of a float list: mean, stddev and 95% CI half-width. *)
module Summary : sig
  type t = { n : int; mean : float; stddev : float; ci95 : float }

  val of_list : float list -> t
  val pp : Format.formatter -> t -> unit
end

(** Exponential moving average, used for latency estimation. *)
module Ema : sig
  type t

  (** [create ~alpha ~init] — weight [alpha] on new samples. *)
  val create : alpha:float -> init:float -> t

  val add : t -> float -> unit
  val value : t -> float
  val count : t -> int
end

(** Fixed-bucket histogram over non-negative integers. *)
module Histogram : sig
  type t

  (** [create ~bucket ~buckets] — values land in [v / bucket], clamped. *)
  val create : bucket:int -> buckets:int -> t

  val add : t -> int -> unit
  val count : t -> int
  val total : t -> int

  val bucket_counts : t -> int array
  val mean : t -> float

  (** Upper bound of the last bucket; values at or above are clamped. *)
  val limit : t -> int

  (** Whether [percentile t p] is clamped: some sample exceeded the
      last bucket and was clamped into it, and the percentile lands in
      that bucket, so the reported bound understates the true value. *)
  val percentile_clamped : t -> float -> bool

  (** [percentile t p] with [p] in [0,100]: upper bound of the bucket
      containing that percentile. Empty leading buckets are skipped, so
      [percentile t 0.] is the upper bound of the first non-empty
      bucket (0 on an empty histogram). *)
  val percentile : t -> float -> int

  (** [merge ~into src] adds [src]'s buckets into [into]. Raises
      [Invalid_argument] if the two differ in bucket width or count. *)
  val merge : into:t -> t -> unit
end
