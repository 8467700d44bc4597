(* Parked request copies. The fabric cases pin the mechanism: a woken
   copy runs at its original (arrival, sequence number), a late wake
   releases it, a wake for another key leaves it parked, and each copy
   counts once in [delivered], from the place its delivery would have
   had. The protocol cases pin exactness: every
   token policy, run with parking and again with a pass-through fault
   injector (once a fault injector or reliable transport was ever
   armed, nothing parks, and every copy is scheduled as it always
   was), must give the same simulated results, with no more events,
   and leave the invariant probe, whose token half compares the L1
   holder set that decides parking with the tag arrays, silent. *)

module F = Interconnect.Fabric
module L = Interconnect.Layout

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)

(* Two L1s on one chip, no jitter: a copy from [src] reaches [dst] one
   port serialization plus [intra_latency] after it is sent. Every L1
   copy may park; [log] records each delivery's destination and time. *)
let rig () =
  let l = L.create ~ncmp:2 ~procs_per_cmp:2 ~banks_per_cmp:1 in
  let engine = Sim.Engine.create () in
  let params = { F.default_params with jitter = 0 } in
  let fabric = F.create engine l params (Interconnect.Traffic.create ()) (Sim.Rng.create 1) in
  let log = ref [] in
  F.set_handler fabric (fun ~dst tag -> log := (tag, dst, Sim.Engine.now engine) :: !log);
  let l1s = Interconnect.Destset.unsafe_words (L.all_l1s_set l) in
  F.set_parkable fabric (fun _ _ -> l1s);
  let src = L.l1d l ~cmp:0 ~proc:0 and dst = L.l1d l ~cmp:0 ~proc:1 in
  let arrival = F.min_cache_latency params ~bytes:8 in
  let send ?(dsts = Interconnect.Destset.singleton dst) key =
    F.send_set_parkable fabric ~park:key ~src ~dsts ~cls:Interconnect.Msg_class.Request
      ~bytes:8 "copy"
  in
  (l, engine, fabric, log, send, dst, arrival)

let test_woken_in_place () =
  let _, engine, fabric, log, send, dst, arrival = rig () in
  send 5;
  (* Scheduled after the send, at the copy's arrival instant. *)
  Sim.Engine.schedule_at engine arrival (fun () ->
      log := ("later", -1, Sim.Engine.now engine) :: !log);
  F.wake fabric ~dst ~key:5;
  Sim.Engine.run engine;
  Alcotest.(check (list (triple string int int)))
    "the woken copy runs at its arrival, ahead of the later event"
    [ ("copy", dst, arrival); ("later", -1, arrival) ]
    (List.rev !log)

let test_late_wake_releases () =
  let _, engine, fabric, log, send, dst, arrival = rig () in
  send 5;
  Alcotest.(check int) "not counted before its arrival" 0 (F.delivered fabric);
  Sim.Engine.schedule_at engine (arrival + Sim.Time.ns 1) (fun () ->
      F.wake fabric ~dst ~key:5);
  Sim.Engine.run engine;
  Alcotest.(check int) "released, not delivered" 0 (List.length !log);
  Alcotest.(check int) "counted once" 1 (F.delivered fabric);
  Alcotest.(check int) "one event: the wake" 1 (Sim.Engine.events_processed engine)

let test_other_key_stays_parked () =
  let _, engine, fabric, log, send, dst, arrival = rig () in
  send 5;
  F.wake fabric ~dst ~key:6;
  Sim.Engine.run engine;
  Alcotest.(check int) "not delivered" 0 (List.length !log);
  F.wake fabric ~dst ~key:5;
  Sim.Engine.run engine;
  Alcotest.(check (list (triple string int int)))
    "still parked, so its own key wakes it" [ ("copy", dst, arrival) ] (List.rev !log)

let test_delivered_once () =
  let l, engine, fabric, _, send, dst, _ = rig () in
  (* Three L1s and the L2: the L2 copy is scheduled, the woken one is
     delivered, one stays parked and one is released by a late wake. *)
  let released = L.l1i l ~cmp:0 ~proc:0 in
  let dsts =
    Interconnect.Destset.of_list
      [ dst; released; L.l1i l ~cmp:0 ~proc:1; L.l2 l ~cmp:0 ~bank:0 ]
  in
  send ~dsts 5;
  F.wake fabric ~dst ~key:5;
  Sim.Engine.run engine;
  Sim.Engine.schedule_in engine (Sim.Time.ns 50) (fun () ->
      F.wake fabric ~dst:released ~key:5);
  Sim.Engine.run engine;
  Alcotest.(check int) "four copies, four counted" 4 (F.delivered fabric)

(* An event at the copy's arrival instant scheduled before the send
   runs ahead of the copy's place; one scheduled after it runs behind. *)
let test_counted_at_its_place () =
  let _, engine, fabric, _, send, _, arrival = rig () in
  let seen = ref [] in
  let read () = seen := F.delivered fabric :: !seen in
  Sim.Engine.schedule_at engine arrival read;
  send 5;
  Sim.Engine.schedule_at engine arrival read;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "delivered before and after the copy's place" [ 0; 1 ]
    (List.rev !seen)

(* Two sends with one key park a copy each at one L1; an event
   scheduled between the sends at the second copy's arrival runs ahead
   of it. One wake schedules both at their own places; a second wake
   finds nothing left to schedule. *)
let test_one_wake_two_sends () =
  let l, engine, fabric, log, _, dst, arrival = rig () in
  let src = L.l1d l ~cmp:0 ~proc:0 in
  let send tag =
    F.send_set_parkable fabric ~park:5 ~src ~dsts:(Interconnect.Destset.singleton dst)
      ~cls:Interconnect.Msg_class.Request ~bytes:8 tag
  in
  (* The second copy leaves the port one serialization later. *)
  let second = arrival + Sim.Time.ps 125 in
  send "a";
  Sim.Engine.schedule_at engine second (fun () ->
      log := ("between", -1, Sim.Engine.now engine) :: !log);
  send "b";
  F.wake fabric ~dst ~key:5;
  F.wake fabric ~dst ~key:5;
  Sim.Engine.run engine;
  Alcotest.(check (list (triple string int int)))
    "each copy at its own arrival and sequence number, once"
    [ ("a", dst, arrival); ("between", -1, second); ("b", dst, second) ]
    (List.rev !log);
  Alcotest.(check int) "two copies counted" 2 (F.delivered fabric)

(* 136 nodes, so a destination set spans three words. One all-caches
   broadcast parks its 95 L1 copies, more than the copy buffer first
   holds, in one record. *)
let test_wide_record () =
  let l = L.create ~ncmp:8 ~procs_per_cmp:6 ~banks_per_cmp:4 in
  let engine = Sim.Engine.create () in
  let fabric =
    F.create engine l F.default_params (Interconnect.Traffic.create ()) (Sim.Rng.create 1)
  in
  let log = ref [] in
  F.set_handler fabric (fun ~dst () -> log := dst :: !log);
  let l1s = Interconnect.Destset.unsafe_words (L.all_l1s_set l) in
  F.set_parkable fabric (fun _ _ -> l1s);
  let dsts = L.all_caches_set l in
  Alcotest.(check int) "three destset words" 3 (Interconnect.Destset.nwords dsts);
  let src = L.l1d l ~cmp:0 ~proc:0 and woken = L.l1i l ~cmp:7 ~proc:5 in
  let broadcast () =
    F.send_set_parkable fabric ~park:9 ~src ~dsts ~cls:Interconnect.Msg_class.Request ~bytes:8 ()
  in
  let copies = L.ncaches l - 1 in
  (* Runs the engine past every arrival so far. *)
  let pass () =
    Sim.Engine.schedule_in engine (Sim.Time.ns 100) ignore;
    Sim.Engine.run engine
  in
  broadcast ();
  F.wake fabric ~dst:woken ~key:9;
  pass ();
  Alcotest.(check (list int)) "the L2s and the one woken L1"
    (List.sort compare (woken :: List.filter (fun d -> not (L.is_l1 l d)) (L.all_caches l)))
    (List.sort compare !log);
  Alcotest.(check int) "every copy once" copies (F.delivered fabric);
  (* The next broadcast's record retires this one. A third at the same
     instant grows the copy buffer while the live copies start past its
     first slot. *)
  broadcast ();
  Alcotest.(check int) "after it retires, before the next copies arrive" copies
    (F.delivered fabric);
  broadcast ();
  F.wake fabric ~dst:woken ~key:9;
  pass ();
  Alcotest.(check int) "the woken L1 gets one copy per broadcast" 3
    (List.length (List.filter (( = ) woken) !log));
  Alcotest.(check int) "and after the next copies arrive" (3 * copies) (F.delivered fabric)

(* A send from an L1 of chip 0 parks a local copy and a remote one; a
   later send parks local copies only. Once the local copies of both
   have arrived, a third send opens its record: the first record, whose
   remote copy is still in flight, stays, and its copy can be woken. *)
let test_remote_copy_keeps_record () =
  let l, engine, fabric, log, _, dst, arrival = rig () in
  let src = L.l1d l ~cmp:0 ~proc:0 in
  let remote = L.l1d l ~cmp:1 ~proc:0 in
  let send ?(key = 5) dsts tag =
    F.send_set_parkable fabric ~park:key ~src ~dsts ~cls:Interconnect.Msg_class.Request ~bytes:8
      tag
  in
  send (Interconnect.Destset.of_list [ dst; remote ]) "far";
  send ~key:6 (Interconnect.Destset.singleton dst) "near";
  let later = arrival + Sim.Time.ns 1 in
  let seen = ref [] in
  Sim.Engine.schedule_at engine later (fun () ->
      send ~key:7 (Interconnect.Destset.singleton dst) "third";
      seen := F.delivered fabric :: !seen;
      F.wake fabric ~dst:remote ~key:5);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "two local copies counted at the third send" [ 2 ] !seen;
  (match List.rev !log with
  | [ ("far", d, at) ] ->
    Alcotest.(check int) "the remote copy is woken" remote d;
    Alcotest.(check bool) "at its own arrival, after the third send" true (at > later)
  | l -> Alcotest.failf "expected one woken remote copy, got %d deliveries" (List.length l));
  Alcotest.(check int) "every copy once" 4 (F.delivered fabric)

let test_injector_stops_parking () =
  let _, engine, fabric, log, send, dst, arrival = rig () in
  F.set_fault_injector fabric (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ _ -> F.Pass);
  send 5;
  Sim.Engine.run engine;
  Alcotest.(check (list (triple string int int)))
    "delivered without a wake" [ ("copy", dst, arrival) ] (List.rev !log)

(* A filed copy (a kind {!F.set_filer} picks) that nothing wakes is
   applied by the filer once the engine has run past its place. A wake
   later in the copy's own arrival instant, but ahead of its place,
   schedules it there, so the handler runs it. *)
let test_filed_woken_in_its_instant () =
  let _, engine, fabric, log, send, dst, arrival = rig () in
  let filed = ref [] in
  F.set_filer fabric ~files:(fun _ -> true) (fun ~dst tag -> filed := (tag, dst) :: !filed);
  (* Scheduled before the sends, so it runs ahead of both copies. *)
  Sim.Engine.schedule_at engine arrival (fun () -> F.wake_filed fabric ~dst ~key:5);
  send 5;
  send 6;
  Sim.Engine.run engine;
  Sim.Engine.schedule_in engine (Sim.Time.ns 10) ignore;
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string int))) "nothing filed while the engine runs" [] !filed;
  F.file fabric ~dst;
  Alcotest.(check (list (triple string int int)))
    "the woken copy runs at its arrival" [ ("copy", dst, arrival) ] (List.rev !log);
  Alcotest.(check (list (pair string int))) "the other is filed" [ ("copy", dst) ] !filed;
  F.file fabric ~dst;
  Alcotest.(check int) "and filed once" 1 (List.length !filed);
  Alcotest.(check int) "both counted" 2 (F.delivered fabric)

(* ------------------------------------------------------------------ *)
(* Protocol exactness                                                  *)

(* The token builder, keeping the engine, fabric and invariant probe
   for the checks. *)
let builder ~pass_through policy captured : Mcmp.Protocol.builder =
 fun engine config traffic rng counters ->
  let i = Token.Protocol.create_instrumented policy engine config traffic rng counters in
  let fabric = i.Token.Protocol.i_fabric in
  if pass_through then
    F.set_fault_injector fabric (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ _ -> F.Pass);
  captured := Some (engine, fabric, i.Token.Protocol.i_probe);
  i.Token.Protocol.i_handle

let violations (probe : Mcmp.Probe.t) =
  List.map Mcmp.Violation.to_string (probe.Mcmp.Probe.check ())

(* Runs one configuration both ways and compares. [programs] builds a
   fresh set of programs per run (some close over shared state). With
   [halves], parking must also take fewer than half the events. *)
let check_exact ?(halves = false) ~name ~config ~programs ~seed policy =
  let run pass_through =
    let captured = ref None in
    let r =
      Mcmp.Runner.run ~config (builder ~pass_through policy captured) ~programs:(programs ())
        ~seed
    in
    (r, Option.get !captured)
  in
  let ref_r, (ref_engine, ref_fabric, ref_probe) = run true in
  let r, (engine, fabric, probe) = run false in
  let label s = Printf.sprintf "%s %s seed %d: %s" policy.Token.Policy.name name seed s in
  Alcotest.(check (list string)) (label "no violation without parking") [] (violations ref_probe);
  Alcotest.(check (list string)) (label "no violation with parking") [] (violations probe);
  let bytes (r : Mcmp.Runner.result) =
    Interconnect.Traffic.(intra_total r.Mcmp.Runner.traffic, inter_total r.traffic)
  in
  let mean_bits (r : Mcmp.Runner.result) =
    Int64.bits_of_float (Sim.Stat.Welford.mean r.Mcmp.Runner.counters.Mcmp.Counters.miss_latency)
  in
  Alcotest.(check bool) (label "completed") true r.Mcmp.Runner.completed;
  Alcotest.(check int) (label "runtime") ref_r.Mcmp.Runner.runtime r.Mcmp.Runner.runtime;
  Alcotest.(check int) (label "finish time") ref_r.Mcmp.Runner.total_runtime
    r.Mcmp.Runner.total_runtime;
  Alcotest.(check int) (label "ops") ref_r.Mcmp.Runner.ops r.Mcmp.Runner.ops;
  Alcotest.(check bool) (label "every counter") true
    (ref_r.Mcmp.Runner.counters = r.Mcmp.Runner.counters);
  Alcotest.(check int64) (label "mean miss latency, to the bit") (mean_bits ref_r) (mean_bits r);
  Alcotest.(check (pair int int)) (label "intra and inter bytes") (bytes ref_r) (bytes r);
  Alcotest.(check bool)
    (label (Printf.sprintf "events %d <= %d" r.Mcmp.Runner.events ref_r.Mcmp.Runner.events))
    true
    (r.Mcmp.Runner.events <= ref_r.Mcmp.Runner.events);
  if halves then
    Alcotest.(check bool)
      (label
         (Printf.sprintf "events %d < half of %d" r.Mcmp.Runner.events ref_r.Mcmp.Runner.events))
      true
      (2 * r.Mcmp.Runner.events < ref_r.Mcmp.Runner.events);
  Alcotest.(check int) (label "delivered at the finish") (F.delivered ref_fabric)
    (F.delivered fabric);
  (* And once every copy still in flight has arrived. A parked copy is
     not an event, so a drained engine can stop short of the last ones
     (a final deactivation's): both runs are taken to one instant past
     every arrival. *)
  let drain engine =
    Sim.Engine.run ~max_events:(Sim.Engine.events_processed engine + 10_000_000) engine
  in
  drain ref_engine;
  drain engine;
  let past = Sim.Time.us 1 + max (Sim.Engine.now ref_engine) (Sim.Engine.now engine) in
  List.iter
    (fun e ->
      Sim.Engine.schedule_at e past ignore;
      drain e)
    [ ref_engine; engine ];
  Alcotest.(check int) (label "delivered after draining") (F.delivered ref_fabric)
    (F.delivered fabric)

(* Scripted runs for the persistent rules (DESIGN.md, "Parked request
   copies"): TokenCMP-dst0 on the tiny machine (2 CMPs x 2 cores)
   without jitter, so every arrival is fixed. Each processor runs its
   list of ops on block 9, whose home is chip 1's controller (node 13).
   Node 0 is processor 0's L1d, node 1 processor 1's, node 7
   processor 2's (chip 1). Each script runs traced with parking and
   with a pass-through injector, must give the same results both ways,
   and returns both traces, drained past every arrival. *)
let block = 9

let scripted ops =
  let config =
    { Mcmp.Config.tiny with Mcmp.Config.fabric = { F.default_params with F.jitter = 0 } }
  in
  let run pass_through =
    let trace = ref [] and captured = ref None in
    let builder engine config traffic rng counters =
      let i =
        Token.Protocol.create_instrumented Token.Policy.dst0 engine config traffic rng counters
      in
      let fabric = i.Token.Protocol.i_fabric in
      if pass_through then
        F.set_fault_injector fabric (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ _ -> F.Pass);
      F.set_msg_label fabric Token.Msg.label;
      Sim.Engine.set_sink engine (fun time ev -> trace := (time, ev) :: !trace);
      captured := Some (engine, i.Token.Protocol.i_probe);
      i.Token.Protocol.i_handle
    in
    let r =
      Mcmp.Runner.run ~config builder
        ~programs:(fun ~proc -> Test_random.random_program (ops proc))
        ~seed:1
    in
    let engine, probe = Option.get !captured in
    Sim.Engine.schedule_in engine (Sim.Time.us 1) ignore;
    Sim.Engine.run engine;
    Alcotest.(check (list string)) "no violation" [] (violations probe);
    (r, List.rev !trace)
  in
  let ref_r, ref_trace = run true in
  let r, trace = run false in
  Alcotest.(check bool) "completed" true r.Mcmp.Runner.completed;
  Alcotest.(check int) "runtime" ref_r.Mcmp.Runner.runtime r.Mcmp.Runner.runtime;
  Alcotest.(check bool) "every counter" true (ref_r.Mcmp.Runner.counters = r.Mcmp.Runner.counters);
  Alcotest.(check bool) "fewer events" true (r.Mcmp.Runner.events < ref_r.Mcmp.Runner.events);
  (ref_trace, trace)

let store = Workload.Program.Store (Workload.Program.block_loc block, 1)
let load = Workload.Program.Load (Workload.Program.block_loc block)
let think ns = Workload.Program.Think (Sim.Time.ns ns)
let activation proc = Printf.sprintf "P_activate(0x240,p%d,#0)" proc
let deactivation proc = Printf.sprintf "P_deactivate(0x240,p%d,#0)" proc

(* When [label] was sent, and the instants it was delivered at [dst]
   (any node when [dst] is negative). *)
let sent_at trace label =
  match
    List.find_map
      (function
        | time, Obs.Event.Msg_send { label = l; _ } when l = label -> Some time | _ -> None)
      trace
  with
  | Some time -> time
  | None -> Alcotest.failf "%s never sent" label

let deliveries ?(dst = -1) trace label =
  List.filter_map
    (function
      | time, Obs.Event.Msg_deliver { dst = d; label = l; _ }
        when l = label && (dst < 0 || d = dst) ->
        Some time
      | _ -> None)
    trace

let delivered_at trace ~dst label =
  match deliveries ~dst trace label with
  | [ time ] -> time
  | l -> Alcotest.failf "%s delivered %d times at node %d" label (List.length l) dst

(* The instants node [node] received tokens, and went persistent. *)
let token_arrivals trace node =
  List.filter_map
    (function
      | time, Obs.Event.Fsm { node = n; fsm = "token"; _ } when n = node -> Some time | _ -> None)
    trace

let escalations trace node =
  List.filter_map
    (function
      | time, Obs.Event.Persistent { node = n; action = "escalate"; _ } when n = node -> Some time
      | _ -> None)
    trace

(* Processor 2 writes the block and gets it from memory; processor 0's
   write goes persistent while node 7 holds nothing yet, so its
   activation parks there, and memory's tokens reach node 7 before the
   activation does. The activation must run at node 7: it is what
   sends the tokens on to processor 0. *)
let test_tokens_wake_activation () =
  let ref_trace, trace =
    scripted (function 2 -> [ store ] | 0 -> [ think 30; store ] | _ -> [])
  in
  let send = sent_at ref_trace (activation 0)
  and arrive = delivered_at ref_trace ~dst:7 (activation 0) in
  (match token_arrivals ref_trace 7 with
  | first :: _ ->
    Alcotest.(check bool) "tokens reach node 7 after the send, before the copy" true
      (send < first && first < arrive)
  | [] -> Alcotest.fail "node 7 never received tokens");
  Alcotest.(check int) "the copy at node 7 is woken and runs at its arrival" arrive
    (delivered_at trace ~dst:7 (activation 0));
  Alcotest.(check (list int)) "memory's copy stays filed" []
    (deliveries ~dst:13 trace (activation 0))

(* Processor 2 writes the block first; processor 0's activation reaches
   node 7 before the tokens do, so node 7's deactivation marks it, and
   node 7 hands the tokens on. Node 7 then reads the block: while
   processor 0's entry is marked, its MSHR waits to go persistent until
   processor 0's deactivation arrives. With that read after the
   deactivation is sent, the waiting MSHR wakes the parked copy; with
   it before, the copy never parks at node 7. Either way the copy must
   run there, or the MSHR waits forever. *)
let test_pending_mshr_deactivation () =
  List.iter
    (fun (gap, after_send) ->
      let ref_trace, trace =
        scripted (function 2 -> [ store; think gap; load ] | 0 -> [ think 5; store ] | _ -> [])
      in
      let send = sent_at ref_trace (deactivation 0)
      and arrive = delivered_at ref_trace ~dst:7 (deactivation 0) in
      (match escalations ref_trace 7 with
      | [ _; pending ] ->
        Alcotest.(check bool)
          (Printf.sprintf "read %d ns later: node 7 waits %s the send" gap
             (if after_send then "after" else "before"))
          true
          (pending < arrive && if after_send then send < pending else pending < send)
      | l -> Alcotest.failf "node 7 escalated %d times" (List.length l));
      Alcotest.(check int) "the copy at node 7 runs at its arrival" arrive
        (delivered_at trace ~dst:7 (deactivation 0));
      Alcotest.(check (list int)) "memory's copy stays filed" []
        (deliveries ~dst:13 trace (deactivation 0)))
    [ (50, true); (30, false) ]

(* Processor 1 takes the block from memory; processor 0, on the same
   chip, takes it from processor 1 and deactivates while its
   activation's copies to chip 1 are still in flight. Such a
   deactivation could overtake its activation and clear an older entry
   of another block, so none of its copies parks. Processor 1's own
   deactivation, sent once its activation had arrived everywhere,
   parks at every node without a token. *)
let test_deactivation_behind_activation () =
  let ref_trace, trace = scripted (function 1 -> [ store ] | 0 -> [ think 500; store ] | _ -> []) in
  let last = List.fold_left max 0 (deliveries ref_trace (activation 0)) in
  Alcotest.(check bool) "sent while the activation is in flight" true
    (sent_at ref_trace (deactivation 0) < last);
  let copies = L.node_count (Mcmp.Config.layout Mcmp.Config.tiny) - 1 in
  Alcotest.(check int) "every copy runs" copies (List.length (deliveries trace (deactivation 0)));
  Alcotest.(check bool) "sent after its activation arrived everywhere" true
    (List.fold_left max 0 (deliveries ref_trace (activation 1))
    < sent_at ref_trace (deactivation 1));
  Alcotest.(check (list int)) "the earlier deactivation parks at every node" []
    (deliveries trace (deactivation 1))

(* Every token policy of the golden suite. *)
let policies = Token.Policy.all @ [ Token.Policy.dst1_flat; Token.Policy.dst1_mcast ]

let locking ~config ~nlocks ~seed () =
  let wl = { (Workload.Locking.default ~nlocks) with Workload.Locking.acquires = 10 } in
  Workload.Locking.programs wl ~seed ~nprocs:(Mcmp.Config.nprocs config)

let test_golden_workload policy () =
  let config = Mcmp.Config.tiny in
  List.iter
    (fun seed ->
      check_exact ~name:"tiny 4-lock" ~config ~programs:(locking ~config ~nlocks:4 ~seed)
        ~seed policy)
    [ 1; 2; 3 ]

let test_oltp policy () =
  let profile =
    { Workload.Commercial.oltp with Workload.Commercial.ops = 150; warmup_ops = 40 }
  in
  check_exact ~name:"48-cache OLTP" ~config:Mcmp.Config.default
    ~programs:(fun () ~proc -> Workload.Commercial.program profile ~seed:1 ~proc)
    ~seed:1 policy

(* Every miss of TokenCMP-dst0 goes persistent, so nearly all of its
   events were persistent copies that a node only files. *)
let test_locks policy () =
  let config = Mcmp.Config.default in
  check_exact
    ~halves:(policy == Token.Policy.dst0)
    ~name:"16-core 4-lock" ~config ~programs:(locking ~config ~nlocks:4 ~seed:1) ~seed:1 policy

(* The benchmark's [wide_token] machine: 8 CMPs x 6 cores, 128 caches
   and 136 nodes, so every parking word and holder set spans three
   destset words. OLTP's shared footprints are scaled with the
   processor count (x2), as the benchmark scales them. *)
let test_wide policy () =
  let config =
    { Mcmp.Config.default with
      Mcmp.Config.ncmp = 8; procs_per_cmp = 6; l2_banks = 4; tokens = 4 * 8 * ((2 * 6) + 4) }
  in
  let layout = Mcmp.Config.layout config in
  Alcotest.(check int) "three destset words" 3
    (Interconnect.Destset.nwords (L.all_nodes_set layout));
  let f = (Mcmp.Config.nprocs config + 31) / 32 in
  let o = Workload.Commercial.oltp in
  let profile =
    { o with
      Workload.Commercial.warmup_ops = 10; ops = 30;
      shared_blocks = f * o.Workload.Commercial.shared_blocks;
      hot_blocks = f * o.Workload.Commercial.hot_blocks;
      migratory_blocks = f * o.Workload.Commercial.migratory_blocks;
      nlocks = f * o.Workload.Commercial.nlocks }
  in
  check_exact ~name:"136-node OLTP" ~config
    ~programs:(fun () ~proc -> Workload.Commercial.program profile ~seed:1 ~proc)
    ~seed:1 policy

(* Random straight-line programs on 16 shared blocks, instruction
   fetches included (so L1is hold tokens too): every token policy, with
   and without parking, must agree on everything but the event count. *)
let prop_random_programs =
  QCheck.Test.make ~name:"random programs: parking changes only events" ~count:40
    QCheck.(triple (int_range 0 (List.length policies - 1)) Test_random.arb_ops small_nat)
    (fun (pi, ops, seed) ->
      let policy = List.nth policies pi in
      let run pass_through =
        let captured = ref None in
        let r =
          Mcmp.Runner.run ~config:Mcmp.Config.tiny (builder ~pass_through policy captured)
            ~programs:(fun ~proc:_ -> Test_random.random_program ops)
            ~seed
        in
        let _, fabric, probe = Option.get !captured in
        let tr = r.Mcmp.Runner.traffic in
        ( ( r.Mcmp.Runner.runtime, r.Mcmp.Runner.total_runtime, r.Mcmp.Runner.ops,
            r.Mcmp.Runner.completed ),
          ( r.Mcmp.Runner.counters,
            Interconnect.Traffic.(intra_total tr, inter_total tr),
            F.delivered fabric ),
          r.Mcmp.Runner.events,
          violations probe )
      in
      let ref_sim, ref_stats, ref_events, ref_violations = run true in
      let sim, stats, events, violations = run false in
      sim = ref_sim && stats = ref_stats && events <= ref_events && ref_violations = []
      && violations = [])

let tests =
  [
    Alcotest.test_case "woken copy keeps its instant and order" `Quick test_woken_in_place;
    Alcotest.test_case "late wake releases the copy" `Quick test_late_wake_releases;
    Alcotest.test_case "wake for another key leaves it parked" `Quick
      test_other_key_stays_parked;
    Alcotest.test_case "delivered counts each copy once" `Quick test_delivered_once;
    Alcotest.test_case "delivered counts a parked copy at its place" `Quick
      test_counted_at_its_place;
    Alcotest.test_case "nothing parks once an injector is armed" `Quick
      test_injector_stops_parking;
    Alcotest.test_case "one wake schedules two sends' copies once" `Quick
      test_one_wake_two_sends;
    Alcotest.test_case "a three-word send parks as one record" `Quick test_wide_record;
    Alcotest.test_case "a remote copy in flight keeps its record" `Quick
      test_remote_copy_keeps_record;
    Alcotest.test_case "a filed copy woken in its own instant runs" `Quick
      test_filed_woken_in_its_instant;
    Alcotest.test_case "tokens received wake a parked activation" `Quick
      test_tokens_wake_activation;
    Alcotest.test_case "a pending MSHR wakes or keeps a deactivation" `Quick
      test_pending_mshr_deactivation;
    Alcotest.test_case "a deactivation behind its activation parks nothing" `Quick
      test_deactivation_behind_activation;
  ]
  @ List.concat_map
      (fun (p : Token.Policy.t) ->
        [
          Alcotest.test_case ("exact: " ^ p.Token.Policy.name ^ " golden workload") `Quick
            (test_golden_workload p);
          Alcotest.test_case ("exact: " ^ p.Token.Policy.name ^ " 48-cache OLTP") `Quick
            (test_oltp p);
          Alcotest.test_case ("exact: " ^ p.Token.Policy.name ^ " 16-core 4-lock") `Quick
            (test_locks p);
          Alcotest.test_case ("exact: " ^ p.Token.Policy.name ^ " 136-node OLTP") `Quick
            (test_wide p);
        ])
      policies
  @ [ QCheck_alcotest.to_alcotest prop_random_programs ]

