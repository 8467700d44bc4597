module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let ci95 t = if t.n < 2 then 0. else 1.96 *. stddev t /. sqrt (float_of_int t.n)

  (* Chan et al.'s parallel update: combine [src] into [into]. *)
  let merge ~into src =
    if src.n > 0 then begin
      if into.n = 0 then begin
        into.n <- src.n;
        into.mean <- src.mean;
        into.m2 <- src.m2
      end
      else begin
        let na = float_of_int into.n and nb = float_of_int src.n in
        let n = na +. nb in
        let delta = src.mean -. into.mean in
        into.mean <- into.mean +. (delta *. nb /. n);
        into.m2 <- into.m2 +. src.m2 +. (delta *. delta *. na *. nb /. n);
        into.n <- into.n + src.n
      end
    end
end

module Summary = struct
  type t = { n : int; mean : float; stddev : float; ci95 : float }

  let of_list xs =
    let w = Welford.create () in
    List.iter (Welford.add w) xs;
    { n = Welford.count w;
      mean = Welford.mean w;
      stddev = Welford.stddev w;
      ci95 = Welford.ci95 w }

  let pp fmt t = Format.fprintf fmt "%.4g +/- %.2g (n=%d)" t.mean t.ci95 t.n
end

module Ema = struct
  type t = { alpha : float; mutable value : float; mutable n : int }

  let create ~alpha ~init = { alpha; value = init; n = 0 }

  let add t x =
    t.n <- t.n + 1;
    t.value <- t.value +. (t.alpha *. (x -. t.value))

  let value t = t.value
  let count t = t.n
end

module Histogram = struct
  type t = {
    bucket : int;
    counts : int array;
    mutable n : int;
    mutable total : int;
    mutable overflow : int;  (* samples clamped into the last bucket *)
  }

  let create ~bucket ~buckets =
    assert (bucket > 0 && buckets > 0);
    { bucket; counts = Array.make buckets 0; n = 0; total = 0; overflow = 0 }

  let add t v =
    let v = max 0 v in
    let last = Array.length t.counts - 1 in
    let i = v / t.bucket in
    if i > last then begin
      t.overflow <- t.overflow + 1;
      t.counts.(last) <- t.counts.(last) + 1
    end
    else t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.total <- t.total + v

  let count t = t.n
  let total t = t.total
  let bucket_counts t = Array.copy t.counts
  let mean t = if t.n = 0 then 0. else float_of_int t.total /. float_of_int t.n

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let target = p /. 100. *. float_of_int t.n in
      let rec scan i acc =
        if i >= Array.length t.counts then Array.length t.counts * t.bucket
        else
          let acc = acc + t.counts.(i) in
          (* [acc > 0] skips empty leading buckets: with p = 0 the target
             is 0 and a bare [acc >= target] would report the first
             bucket's upper bound even when no sample landed there. *)
          if acc > 0 && float_of_int acc >= target then (i + 1) * t.bucket
          else scan (i + 1) acc
      in
      scan 0 0
    end

  (* Upper bound representable without clamping: values at or above
     this land in the last bucket and count as overflow. *)
  let limit t = Array.length t.counts * t.bucket

  (* A reported percentile is a lie when it sits in the last bucket and
     clamped samples are known to have landed there. *)
  let percentile_clamped t p = t.overflow > 0 && percentile t p >= limit t

  let merge ~into src =
    if src.bucket <> into.bucket || Array.length src.counts <> Array.length into.counts
    then invalid_arg "Histogram.merge: mismatched geometry";
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.n <- into.n + src.n;
    into.total <- into.total + src.total;
    into.overflow <- into.overflow + src.overflow
end
