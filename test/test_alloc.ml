(* Allocation pins for the per-event path: once pools and arrays have
   grown to the working population, these operations allocate no minor
   words at all. Cases that grow a pool or an array warm up first; each
   then measures a long run. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_zero name f =
  Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (minor_words f)

let test_measure_baseline () = check_zero "empty function" (fun () -> ())

(* 256 pending ticks, each rescheduling itself on firing: every event
   is one pop and one push of the same preallocated thunk. [run] is
   called without optional arguments (an [~until] would box a [Some])
   and stops from inside a tick. *)
let test_engine_steady () =
  let e = Sim.Engine.create () in
  let left = ref 0 in
  let rec tick () =
    decr left;
    if !left = 0 then Sim.Engine.stop e;
    Sim.Engine.schedule_in e (Sim.Time.ps 997) tick
  in
  for i = 1 to 256 do
    Sim.Engine.schedule_in e (Sim.Time.ps i) tick
  done;
  left := 10_000;
  Sim.Engine.run e;
  left := 100_000;
  check_zero "100k engine pops + pushes" (fun () -> Sim.Engine.run e);
  Alcotest.(check int) "events" 110_000 (Sim.Engine.events_processed e)

let test_rng () =
  let r = Sim.Rng.create 7 in
  let acc = ref 0 in
  check_zero "Rng.int" (fun () ->
      for i = 1 to 10_000 do
        acc := !acc + Sim.Rng.int r (1 + (i land 1023))
      done);
  check_zero "Rng.bool" (fun () ->
      for _ = 1 to 10_000 do
        if Sim.Rng.bool r then incr acc
      done);
  Alcotest.(check bool) "drew" true (!acc > 0)

(* Point-to-point sends on the default 4-CMP machine, jitter on, to a
   no-op handler: the engine drains every 64 sends, so each measured
   send pays for its claims, jitter draw, delivery cell, heap push and
   the delivery itself. *)
let test_fabric_send_one () =
  let l = Interconnect.Layout.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let fabric =
    Interconnect.Fabric.create engine l Interconnect.Fabric.default_params traffic
      (Sim.Rng.create 3)
  in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> ());
  let n = Interconnect.Layout.node_count l in
  let sends count =
    for i = 1 to count do
      let src = i * 13 mod n in
      let dst = (src + 1 + (i * 7 mod (n - 1))) mod n in
      Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request
        ~bytes:8 ();
      if i land 63 = 0 then Sim.Engine.run engine
    done;
    Sim.Engine.run engine
  in
  sends 1_000;
  check_zero "10k send_one + delivery" (fun () -> sends 10_000);
  Alcotest.(check int) "delivered" 11_000 (Interconnect.Fabric.delivered fabric)

(* All-caches broadcasts whose L1 copies all park, each followed by a
   wake of one L1 that puts one copy back on the queue: parking, the
   pruning of due copies and the wake walk reuse the pooled delivery
   cells, and the park key boxes nothing. *)
let test_fabric_park_wake () =
  let l = Interconnect.Layout.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4 in
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let fabric =
    Interconnect.Fabric.create engine l Interconnect.Fabric.default_params traffic
      (Sim.Rng.create 3)
  in
  let n = Interconnect.Layout.node_count l in
  let handled = Array.make n 0 in
  Interconnect.Fabric.set_handler fabric (fun ~dst () -> handled.(dst) <- handled.(dst) + 1);
  let l1s = Interconnect.Destset.unsafe_words (Interconnect.Layout.all_l1s_set l) in
  Interconnect.Fabric.set_parkable fabric (fun _ -> l1s);
  let all_caches = Interconnect.Layout.all_caches_set l in
  let woken = Interconnect.Layout.l1d l ~cmp:2 ~proc:1 in
  let sends count =
    for i = 1 to count do
      let key = i land 7 in
      Interconnect.Fabric.send_set_parkable fabric ~park:key ~src:(i * 13 mod n)
        ~dsts:all_caches ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
      Interconnect.Fabric.wake fabric ~dst:woken ~key;
      Sim.Engine.run engine
    done
  in
  sends 1_000;
  check_zero "10k parked broadcasts + wake" (fun () -> sends 10_000);
  for dst = 0 to n - 1 do
    if Interconnect.Layout.is_l1 l dst && dst <> woken then
      Alcotest.(check int) "a parked copy never reaches the handler" 0 handled.(dst)
  done;
  Alcotest.(check bool) "woken copies reach the handler" true (handled.(woken) > 10_000)

let test_sarray_find () =
  let s = Cache.Sarray.create ~sets:64 ~ways:4 in
  for a = 0 to 191 do
    Cache.Sarray.insert s a a
  done;
  let hits = ref 0 in
  check_zero "10k Sarray.find, hits and misses" (fun () ->
      for i = 1 to 10_000 do
        match Cache.Sarray.find s (i land 255) with Some _ -> incr hits | None -> ()
      done);
  Alcotest.(check int) "hits" 7_504 !hits

(* The L1 hit path: a residency check, then an LRU stamp on a hit. *)
let test_sarray_touch () =
  let s = Cache.Sarray.create ~sets:64 ~ways:4 in
  for a = 0 to 191 do
    Cache.Sarray.insert s a a
  done;
  let hits = ref 0 in
  check_zero "10k Sarray.mem + touch" (fun () ->
      for i = 1 to 10_000 do
        let a = i land 255 in
        if Cache.Sarray.mem s a then begin
          incr hits;
          Cache.Sarray.touch s a
        end
      done);
  Alcotest.(check int) "hits" 7_504 !hits

let tests =
  [
    Alcotest.test_case "measurement baseline" `Quick test_measure_baseline;
    Alcotest.test_case "engine steady-state pop + push" `Quick test_engine_steady;
    Alcotest.test_case "Rng.int and Rng.bool" `Quick test_rng;
    Alcotest.test_case "warmed Fabric.send_one + delivery" `Quick test_fabric_send_one;
    Alcotest.test_case "parked Fabric.send_set_parkable + wake" `Quick test_fabric_park_wake;
    Alcotest.test_case "Cache.Sarray.find" `Quick test_sarray_find;
    Alcotest.test_case "Cache.Sarray.mem + touch" `Quick test_sarray_touch;
  ]
