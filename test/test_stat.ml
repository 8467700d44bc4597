let test_welford_basic () =
  let w = Sim.Stat.Welford.create () in
  List.iter (Sim.Stat.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Sim.Stat.Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Sim.Stat.Welford.mean w);
  Alcotest.(check (float 1e-9)) "sample variance" (32. /. 7.) (Sim.Stat.Welford.variance w)

let test_welford_degenerate () =
  let w = Sim.Stat.Welford.create () in
  Alcotest.(check (float 0.)) "empty mean" 0. (Sim.Stat.Welford.mean w);
  Sim.Stat.Welford.add w 3.;
  Alcotest.(check (float 0.)) "single variance" 0. (Sim.Stat.Welford.variance w);
  Alcotest.(check (float 0.)) "single ci" 0. (Sim.Stat.Welford.ci95 w)

let test_summary () =
  let s = Sim.Stat.Summary.of_list [ 10.; 12.; 14. ] in
  Alcotest.(check int) "n" 3 s.Sim.Stat.Summary.n;
  Alcotest.(check (float 1e-9)) "mean" 12. s.Sim.Stat.Summary.mean;
  Alcotest.(check (float 1e-9)) "stddev" 2. s.Sim.Stat.Summary.stddev

let test_ema () =
  let e = Sim.Stat.Ema.create ~alpha:0.5 ~init:100. in
  Alcotest.(check (float 1e-9)) "init" 100. (Sim.Stat.Ema.value e);
  Sim.Stat.Ema.add e 200.;
  Alcotest.(check (float 1e-9)) "after one" 150. (Sim.Stat.Ema.value e);
  Sim.Stat.Ema.add e 150.;
  Alcotest.(check (float 1e-9)) "after two" 150. (Sim.Stat.Ema.value e);
  Alcotest.(check int) "count" 2 (Sim.Stat.Ema.count e)

let test_histogram () =
  let h = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  List.iter (Sim.Stat.Histogram.add h) [ 0; 5; 15; 25; 999 ];
  Alcotest.(check int) "count" 5 (Sim.Stat.Histogram.count h);
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1; 0; 1 |] (Sim.Stat.Histogram.bucket_counts h);
  Alcotest.(check int) "median bucket bound" 20 (Sim.Stat.Histogram.percentile h 50.)

let test_percentile_edges () =
  let h = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  Alcotest.(check int) "empty histogram" 0 (Sim.Stat.Histogram.percentile h 50.);
  (* Leading buckets empty: p=0 must land on the first non-empty
     bucket, not on bucket 0. *)
  Sim.Stat.Histogram.add h 25;
  Alcotest.(check int) "p0 skips empty leading buckets" 30
    (Sim.Stat.Histogram.percentile h 0.);
  Alcotest.(check int) "p100 single sample" 30 (Sim.Stat.Histogram.percentile h 100.);
  Sim.Stat.Histogram.add h 45;
  Alcotest.(check int) "p0 still first occupied" 30 (Sim.Stat.Histogram.percentile h 0.);
  Alcotest.(check int) "p100 last occupied" 50 (Sim.Stat.Histogram.percentile h 100.)

let test_welford_merge () =
  let a = Sim.Stat.Welford.create () and b = Sim.Stat.Welford.create () in
  let all = Sim.Stat.Welford.create () in
  let xs = [ 2.; 4.; 4.; 4. ] and ys = [ 5.; 5.; 7.; 9. ] in
  List.iter (Sim.Stat.Welford.add a) xs;
  List.iter (Sim.Stat.Welford.add b) ys;
  List.iter (Sim.Stat.Welford.add all) (xs @ ys);
  Sim.Stat.Welford.merge ~into:a b;
  Alcotest.(check int) "merged count" (Sim.Stat.Welford.count all) (Sim.Stat.Welford.count a);
  Alcotest.(check (float 1e-9)) "merged mean" (Sim.Stat.Welford.mean all)
    (Sim.Stat.Welford.mean a);
  Alcotest.(check (float 1e-9)) "merged variance" (Sim.Stat.Welford.variance all)
    (Sim.Stat.Welford.variance a);
  (* Merging an empty accumulator changes nothing. *)
  Sim.Stat.Welford.merge ~into:a (Sim.Stat.Welford.create ());
  Alcotest.(check (float 1e-9)) "merge empty keeps mean" (Sim.Stat.Welford.mean all)
    (Sim.Stat.Welford.mean a)

let test_histogram_merge () =
  let a = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  let b = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  List.iter (Sim.Stat.Histogram.add a) [ 0; 15 ];
  List.iter (Sim.Stat.Histogram.add b) [ 5; 25; 999 ];
  Sim.Stat.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Sim.Stat.Histogram.count a);
  Alcotest.(check (array int)) "merged buckets" [| 2; 1; 1; 0; 1 |]
    (Sim.Stat.Histogram.bucket_counts a);
  let mismatched = Sim.Stat.Histogram.create ~bucket:20 ~buckets:5 in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Histogram.merge: mismatched geometry") (fun () ->
      Sim.Stat.Histogram.merge ~into:a mismatched)

let test_histogram_overflow () =
  let h = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  Alcotest.(check int) "limit" 50 (Sim.Stat.Histogram.limit h);
  List.iter (Sim.Stat.Histogram.add h) [ 5; 49 ];
  Alcotest.(check int) "in-range samples reach the last bucket" 50
    (Sim.Stat.Histogram.percentile h 99.);
  Alcotest.(check bool) "p99 not clamped without overflow" false
    (Sim.Stat.Histogram.percentile_clamped h 99.);
  List.iter (Sim.Stat.Histogram.add h) [ 50; 999 ];
  Alcotest.(check int) "clamped samples land in last bucket" 50
    (Sim.Stat.Histogram.percentile h 99.);
  Alcotest.(check bool) "p99 clamped" true (Sim.Stat.Histogram.percentile_clamped h 99.);
  Alcotest.(check bool) "p25 below the tail not clamped" false
    (Sim.Stat.Histogram.percentile_clamped h 25.);
  (* Merge carries the clamped count: a histogram with no overflow of
     its own reads clamped once it absorbs one that has. *)
  let a = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  let b = Sim.Stat.Histogram.create ~bucket:10 ~buckets:5 in
  Sim.Stat.Histogram.add a 15;
  Sim.Stat.Histogram.add b 1_234;
  Alcotest.(check bool) "p99 not clamped before the merge" false
    (Sim.Stat.Histogram.percentile_clamped a 99.);
  Sim.Stat.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 2 (Sim.Stat.Histogram.count a);
  Alcotest.(check bool) "merged p99 clamped" true (Sim.Stat.Histogram.percentile_clamped a 99.);
  Alcotest.(check bool) "merged p0 not clamped" false
    (Sim.Stat.Histogram.percentile_clamped a 0.)

let prop_welford_mean =
  QCheck.Test.make ~name:"welford mean equals arithmetic mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let w = Sim.Stat.Welford.create () in
      List.iter (Sim.Stat.Welford.add w) xs;
      let mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Sim.Stat.Welford.mean w -. mean) < 1e-6 *. (1. +. Float.abs mean))

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance non-negative" ~count:200
    QCheck.(list (float_range (-100.) 100.))
    (fun xs ->
      let w = Sim.Stat.Welford.create () in
      List.iter (Sim.Stat.Welford.add w) xs;
      Sim.Stat.Welford.variance w >= 0.)

let tests =
  [
    Alcotest.test_case "welford moments" `Quick test_welford_basic;
    Alcotest.test_case "welford degenerate cases" `Quick test_welford_degenerate;
    Alcotest.test_case "summary of list" `Quick test_summary;
    Alcotest.test_case "exponential moving average" `Quick test_ema;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "histogram percentile edges" `Quick test_percentile_edges;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram overflow and true max" `Quick test_histogram_overflow;
    QCheck_alcotest.to_alcotest prop_welford_mean;
    QCheck_alcotest.to_alcotest prop_variance_nonneg;
  ]
