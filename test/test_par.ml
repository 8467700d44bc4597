(* The Par.Pool contract: submission-order results, deterministic
   exception attribution, jobs=1 equivalence with direct execution —
   and the headline guarantee of the parallel experiment runner, that
   serial and multi-domain runs of the same seeded sweep or torture
   campaign are structurally identical. *)

module Pool = Par.Pool
module E = Tokencmp.Experiments
module P = Tokencmp.Protocols

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 7 in
  Alcotest.(check (list int))
    "jobs=4 matches serial map" (List.map f xs)
    (Pool.map ~jobs:4 f xs)

let test_jobs1_is_direct () =
  (* jobs=1 must execute on the calling domain, strictly left to
     right: observable through side-effect order. *)
  let trace = ref [] in
  let xs = List.init 20 Fun.id in
  let f x =
    trace := x :: !trace;
    x * 3
  in
  let results = Pool.map ~jobs:1 f xs in
  Alcotest.(check (list int)) "results" (List.map (fun x -> x * 3) xs) results;
  Alcotest.(check (list int)) "left-to-right evaluation" xs (List.rev !trace)

let test_exception_attribution () =
  let f x = if x = 37 then failwith "boom" else x in
  match Pool.map ~jobs:4 ~label:(fun i _ -> Printf.sprintf "task-%d" i) f (List.init 64 Fun.id) with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed e ->
    Alcotest.(check int) "failing index" 37 e.Pool.index;
    Alcotest.(check string) "label carries identity" "task-37" e.Pool.label;
    (match e.Pool.exn with
    | Failure msg -> Alcotest.(check string) "original exception" "boom" msg
    | _ -> Alcotest.fail "expected Failure")

let test_first_failure_wins () =
  (* Several failing jobs: attribution must deterministically pick the
     lowest submission index, not whichever worker crashed first. *)
  let f x = if x mod 2 = 1 then raise Exit else x in
  let attempt jobs =
    match Pool.map ~jobs f (List.init 32 Fun.id) with
    | _ -> Alcotest.fail "expected Job_failed"
    | exception Pool.Job_failed e -> e.Pool.index
  in
  Alcotest.(check int) "serial attribution" 1 (attempt 1);
  Alcotest.(check int) "parallel attribution" 1 (attempt 4)

let prop_map_equals_serial =
  QCheck.Test.make ~name:"pool map == List.map for any worker count" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (x * 31) lxor 5 in
      Pool.map ~jobs f xs = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Determinism: parallel experiment results are bit-identical to
   serial for the same seeds.                                          *)

let tiny_sweep ~jobs =
  E.locking_sweep ~jobs ~config:Mcmp.Config.tiny ~seeds:[ 1; 2 ] ~acquires:8
    ~locks:[ 2; 4 ]
    ~protocols:[ P.directory; P.token Token.Policy.dst1 ]
    ()

let test_sweep_deterministic () =
  let serial = tiny_sweep ~jobs:1 in
  let parallel = tiny_sweep ~jobs:4 in
  Alcotest.(check bool)
    "serial and 4-domain locking sweeps structurally equal" true (serial = parallel)

(* The sweep's summaries keep only means, so also compare every raw
   per-seed result (runtime, counters, traffic; no sampler is attached)
   of the same tiny sweep across worker counts. *)
let tiny_sweep_raw ~jobs =
  let config = Mcmp.Config.tiny in
  let tasks =
    List.concat_map
      (fun nlocks ->
        List.concat_map
          (fun p -> List.map (fun seed -> (nlocks, p, seed)) [ 1; 2 ])
          [ P.directory; P.token Token.Policy.dst1 ])
      [ 2; 4 ]
  in
  Pool.map ~jobs
    (fun (nlocks, p, seed) ->
      let wl = { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires = 8 } in
      Mcmp.Runner.run ~config p.P.builder
        ~programs:(Workload.Locking.programs wl ~seed ~nprocs:(Mcmp.Config.nprocs config))
        ~seed)
    tasks

let test_sweep_raw_deterministic () =
  let serial = tiny_sweep_raw ~jobs:1 in
  let parallel = tiny_sweep_raw ~jobs:4 in
  Alcotest.(check int) "same number of runs" (List.length serial) (List.length parallel);
  List.iter2
    (fun (a : Mcmp.Runner.result) (b : Mcmp.Runner.result) ->
      let label what = Printf.sprintf "seed %d: %s" a.Mcmp.Runner.seed what in
      Alcotest.(check int) (label "seed") a.Mcmp.Runner.seed b.Mcmp.Runner.seed;
      Alcotest.(check int) (label "runtime") a.Mcmp.Runner.runtime b.Mcmp.Runner.runtime;
      Alcotest.(check int) (label "events") a.Mcmp.Runner.events b.Mcmp.Runner.events;
      Alcotest.(check bool) (label "counters") true
        (compare a.Mcmp.Runner.counters b.Mcmp.Runner.counters = 0);
      Alcotest.(check bool) (label "traffic") true
        (compare a.Mcmp.Runner.traffic b.Mcmp.Runner.traffic = 0))
    serial parallel

let tiny_campaign ~jobs =
  Fault.Torture.campaign ~params:Fault.Torture.default_params ~runs:6 ~jobs
    ~targets:
      [ Fault.Torture.Token Token.Policy.dst1;
        Fault.Torture.Directory { dram_directory = true } ]
    ~seed:11 ()

let test_torture_deterministic () =
  let serial = tiny_campaign ~jobs:1 in
  let parallel = tiny_campaign ~jobs:4 in
  Alcotest.(check int) "same number of outcomes" (List.length serial) (List.length parallel);
  (* The whole outcome record is plain data (spec, stats, reports,
     trace and dump strings...): compare it structurally. *)
  Alcotest.(check bool)
    "serial and 4-domain torture campaigns structurally equal" true (serial = parallel);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "verdicts agree" true
        (Fault.Torture.verdict a = Fault.Torture.verdict b))
    serial parallel

let tests =
  [
    Alcotest.test_case "order preserved across domains" `Quick test_order_preserved;
    Alcotest.test_case "jobs=1 is direct execution" `Quick test_jobs1_is_direct;
    Alcotest.test_case "exception attribution" `Quick test_exception_attribution;
    Alcotest.test_case "lowest failing index wins" `Quick test_first_failure_wins;
    QCheck_alcotest.to_alcotest prop_map_equals_serial;
    Alcotest.test_case "locking sweep: serial == 4 domains" `Quick test_sweep_deterministic;
    Alcotest.test_case "raw per-seed sweep results: serial == 4 domains" `Quick
      test_sweep_raw_deterministic;
    Alcotest.test_case "torture campaign: serial == 4 domains" `Quick
      test_torture_deterministic;
  ]
