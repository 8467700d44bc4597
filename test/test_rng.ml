let test_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_split_independent () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "split differs" true (xs <> ys)

let test_shuffle_permutation () =
  let rng = Sim.Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let prop_int_range =
  QCheck.Test.make ~name:"int in [0,n)" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng n in
      v >= 0 && v < n)

let prop_int_in_range =
  QCheck.Test.make ~name:"int_in inclusive bounds" ~count:500
    QCheck.(triple small_nat (int_range (-100) 100) small_nat)
    (fun (seed, lo, width) ->
      let hi = lo + width in
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_float_range =
  QCheck.Test.make ~name:"float in [0,x)" ~count:500 QCheck.small_nat (fun seed ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.float rng 10. in
      v >= 0. && v < 10.)

let test_rough_uniformity () =
  let rng = Sim.Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun count ->
      Alcotest.(check bool) "bucket near 1000" true (count > 800 && count < 1200))
    buckets

(* SplitMix64 with its state in a boxed Int64 field: the stream every
   committed result was produced with. The generator must reproduce it
   draw for draw. *)
module Boxed = struct
  type t = { mutable state : int64 }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix (Int64.of_int ((seed * 2) + 1)) }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix t.state

  let rec int t n =
    let bound = 0x3FFF_FFFF_FFFF_FFFF in
    let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
    if v >= bound - (bound mod n) then int t n else v mod n

  let float t x = x *. (Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0)
  let bool t = Int64.logand (next t) 1L = 1L
  let split t = { state = next t }
end

let prop_stream_matches_boxed =
  QCheck.Test.make ~name:"stream identical to boxed SplitMix64" ~count:200
    QCheck.(pair int (list (pair (int_range 0 3) (int_range 1 max_int))))
    (fun (seed, draws) ->
      let a = ref (Sim.Rng.create seed) and b = ref (Boxed.create seed) in
      List.for_all
        (fun (kind, n) ->
          match kind with
          | 0 -> Sim.Rng.int !a n = Boxed.int !b n
          | 1 -> Sim.Rng.bool !a = Boxed.bool !b
          | 2 -> Sim.Rng.float !a 1.0 = Boxed.float !b 1.0
          | _ ->
            a := Sim.Rng.split !a;
            b := Boxed.split !b;
            true)
        draws)

(* The draw over a precomputed span must be [int] itself: the same
   values and, after them, the same generator state, both as
   [Sim.Rng.int] and as the boxed reference draws them. A bound just
   above 2^61 rejects nearly half of all 62-bit values, so the
   rejection loop runs on most draws there. *)
let test_int_span () =
  List.iter
    (fun n ->
      let a = Sim.Rng.create 5 and b = Sim.Rng.create 5 and c = Boxed.create 5 in
      let span = Sim.Rng.span n in
      for _ = 1 to 2_000 do
        let v = Sim.Rng.int_span b span in
        Alcotest.(check int) (Printf.sprintf "int, bound %d" n) (Sim.Rng.int a n) v;
        Alcotest.(check int) (Printf.sprintf "reference, bound %d" n) (Boxed.int c n) v
      done;
      let next = Sim.Rng.int b 1_000_000_007 in
      Alcotest.(check int) (Printf.sprintf "state after bound %d" n) (Sim.Rng.int a 1_000_000_007) next;
      Alcotest.(check int) (Printf.sprintf "reference state after bound %d" n)
        (Boxed.int c 1_000_000_007) next)
    [ 1; 501; max_int; (1 lsl 61) + 1 ]

let tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick test_determinism;
    Alcotest.test_case "seeds give different streams" `Quick test_seeds_differ;
    Alcotest.test_case "split gives independent stream" `Quick test_split_independent;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "rough uniformity" `Quick test_rough_uniformity;
    QCheck_alcotest.to_alcotest prop_int_range;
    QCheck_alcotest.to_alcotest prop_int_in_range;
    QCheck_alcotest.to_alcotest prop_float_range;
    QCheck_alcotest.to_alcotest prop_stream_matches_boxed;
    Alcotest.test_case "int_span draws what int draws" `Quick test_int_span;
  ]
