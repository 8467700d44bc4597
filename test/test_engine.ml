let test_schedule_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_in e (Sim.Time.ns 5) (fun () -> log := 5 :: !log);
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> log := 1 :: !log);
  Sim.Engine.schedule_in e (Sim.Time.ns 3) (fun () -> log := 3 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Sim.Time.ns 5) (Sim.Engine.now e)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule_in e (Sim.Time.ns 7) (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> log := "inner" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "events" 2 (Sim.Engine.events_processed e)

let test_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun t -> Sim.Engine.schedule_in e (Sim.Time.ns t) (fun () -> incr fired))
    [ 1; 2; 10; 20 ];
  Sim.Engine.run ~until:(Sim.Time.ns 5) e;
  Alcotest.(check int) "only early events" 2 !fired;
  Sim.Engine.run e;
  Alcotest.(check int) "rest run later" 4 !fired

(* The bound is inclusive: events at exactly [until] run, and so do
   zero-delay events they schedule; the next instant waits for the next
   call, and the order across the two calls is one run's order. *)
let test_until_inclusive () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let at t tag = Sim.Engine.schedule_at e (Sim.Time.ns t) (fun () -> log := tag :: !log) in
  at 5 "a";
  Sim.Engine.schedule_at e (Sim.Time.ns 5) (fun () ->
      log := "b" :: !log;
      Sim.Engine.schedule_in e Sim.Time.zero (fun () -> log := "b0" :: !log));
  at 6 "c";
  at 5 "d";
  Sim.Engine.run ~until:(Sim.Time.ns 5) e;
  Alcotest.(check (list string)) "events at the bound" [ "a"; "b"; "d"; "b0" ] (List.rev !log);
  Alcotest.(check int) "clock at the bound" (Sim.Time.ns 5) (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "then the rest" [ "a"; "b"; "d"; "b0"; "c" ] (List.rev !log)

let test_stop () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () ->
      incr fired;
      Sim.Engine.stop e);
  Sim.Engine.schedule_in e (Sim.Time.ns 2) (fun () -> incr fired);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

let test_timer_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Engine.timer_in e (Sim.Time.ns 5) (fun () -> fired := true) in
  Sim.Engine.schedule_in e (Sim.Time.ns 1) (fun () -> Sim.Engine.cancel timer);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_max_events () =
  let e = Sim.Engine.create () in
  let rec forever () = Sim.Engine.schedule_in e (Sim.Time.ns 1) forever in
  forever ();
  Alcotest.check_raises "runaway guard"
    (Failure "Engine.run: exceeded 100 events")
    (fun () -> Sim.Engine.run ~max_events:100 e)

(* find_ext is a linear walk over a list that stays tiny (a single
   metrics registry in practice); this pins the contract that walk
   provides: recognizer-driven lookup, most recently added first. *)
type Sim.Engine.ext += A of int | B of string

let test_find_ext () =
  let e = Sim.Engine.create () in
  Alcotest.(check (option int)) "empty" None
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None));
  Sim.Engine.add_ext e (A 1);
  Sim.Engine.add_ext e (B "x");
  Alcotest.(check (option int)) "by recognizer" (Some 1)
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None));
  Alcotest.(check (option string)) "other recognizer" (Some "x")
    (Sim.Engine.find_ext e (function B s -> Some s | _ -> None));
  Sim.Engine.add_ext e (A 2);
  Alcotest.(check (option int)) "most recent first" (Some 2)
    (Sim.Engine.find_ext e (function A n -> Some n | _ -> None))

(* A self-scheduling cascade (each event reschedules with
   pseudo-random delays, including zero-delay ties) must run every
   event once, in (time, scheduling order): ids are handed out at
   scheduling time, so among events at one instant they must ascend. *)
let test_cascade_order () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 42 in
  let log = ref [] in
  let next_id = ref 0 in
  let rec spawn depth =
    let id = !next_id in
    incr next_id;
    Sim.Engine.schedule_in e
      (Sim.Time.ps (Sim.Rng.int rng 5000))
      (fun () ->
        log := (Sim.Engine.now e, id) :: !log;
        if depth < 12 then
          for _ = 1 to 1 + Sim.Rng.int rng 2 do
            spawn (depth + 1)
          done)
  in
  for _ = 1 to 8 do
    spawn 0
  done;
  Sim.Engine.run e;
  let log = List.rev !log in
  Alcotest.(check int) "every event ran once" !next_id (Sim.Engine.events_processed e);
  Alcotest.(check (list int)) "each id once" (List.init !next_id Fun.id)
    (List.sort compare (List.map snd log));
  let rec ordered = function
    | (t1, i1) :: ((t2, i2) :: _ as rest) -> (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "(time, scheduling order)" true (ordered log);
  Alcotest.(check int) "clock at last event" (fst (List.nth log (List.length log - 1)))
    (Sim.Engine.now e)

let test_time_units () =
  Alcotest.(check int) "us" (Sim.Time.ns 1000) (Sim.Time.us 1);
  Alcotest.(check int) "ns" (Sim.Time.ps 1000) (Sim.Time.ns 1);
  Alcotest.(check (float 0.001)) "to_ns" 2.5 (Sim.Time.to_ns (Sim.Time.ps 2500));
  Alcotest.(check int) "mul_f" (Sim.Time.ns 15) (Sim.Time.mul_f (Sim.Time.ns 10) 1.5)

let tests =
  [
    Alcotest.test_case "events fire in time order" `Quick test_schedule_order;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run ~until leaves the queue intact" `Quick test_until;
    Alcotest.test_case "run ~until includes events at the bound" `Quick test_until_inclusive;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "timer cancellation" `Quick test_timer_cancel;
    Alcotest.test_case "max_events guard" `Quick test_max_events;
    Alcotest.test_case "find_ext recognizer lookup" `Quick test_find_ext;
    Alcotest.test_case "cascade runs in (time, scheduling) order" `Quick test_cascade_order;
    Alcotest.test_case "time unit conversions" `Quick test_time_units;
  ]
