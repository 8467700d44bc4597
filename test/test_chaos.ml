(* Partition tolerance: the chaos link table, the reliable transport,
   and chaos campaigns driving both through the torture harness. *)

module F = Interconnect.Fabric
module C = Fault.Chaos
module L = Interconnect.Layout
module Tr = Fault.Transport

let ns = Sim.Time.ns
let us = Sim.Time.us

(* ---- chaos link table ---- *)

let layout () = L.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4

let make_fabric ?(lay = layout ()) ?(jitter = 0) () =
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let params = { F.default_params with F.jitter } in
  let fabric = F.create engine lay params traffic (Sim.Rng.create 1) in
  (engine, lay, fabric)

let pass ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ _ = F.Pass

(* A table running [spec] (by default none: every link up) over
   [inner] (by default [pass]), installed on [fabric]. *)
let arm ?(inner = pass) ?(spec = []) fabric =
  let _, links, inject = C.install ~seed:1 ~spec fabric inner in
  F.set_fault_injector fabric inject;
  links

let test_outage_requires_enable () =
  let arrivals ~armed =
    let engine, l, fabric = make_fabric ~jitter:(Sim.Time.ps 500) () in
    if armed then ignore (arm fabric);
    let seen = ref [] in
    F.set_handler fabric (fun ~dst () -> seen := (dst, Sim.Engine.now engine) :: !seen);
    F.send_set fabric ~src:(L.l1d l ~cmp:0 ~proc:0) ~dsts:(L.all_nodes_set l)
      ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
    F.send_one fabric ~src:(L.mem l ~cmp:3) ~dst:(L.l2 l ~cmp:1 ~bank:2)
      ~cls:Interconnect.Msg_class.Response_data ~bytes:72 ();
    Sim.Engine.run engine;
    List.rev !seen
  in
  Alcotest.(check (list (pair int int))) "every link up changes no arrival"
    (arrivals ~armed:false) (arrivals ~armed:true);
  let _, _, fabric = make_fabric () in
  let links = arm fabric in
  Alcotest.(check bool) "the diagonal is rejected" true
    (match C.set_link_state links ~src_site:1 ~dst_site:1 C.Link_down with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_down_link_drops () =
  let engine, l, fabric = make_fabric () in
  let links = arm fabric in
  let delivered = ref 0 in
  F.set_handler fabric (fun ~dst:_ () -> incr delivered);
  C.set_link_state links ~src_site:0 ~dst_site:1 C.Link_down;
  let src = L.l1d l ~cmp:0 ~proc:0 in
  F.send_one fabric ~src ~dst:(L.l2 l ~cmp:1 ~bank:0) ~cls:Interconnect.Msg_class.Request
    ~bytes:8 ();
  (* The reverse direction and on-chip traffic are unaffected. *)
  F.send_one fabric ~src:(L.l2 l ~cmp:1 ~bank:0) ~dst:src ~cls:Interconnect.Msg_class.Request
    ~bytes:8 ();
  F.send_one fabric ~src ~dst:(L.l2 l ~cmp:0 ~bank:1) ~cls:Interconnect.Msg_class.Request
    ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "only the down direction lost" 2 !delivered;
  Alcotest.(check int) "outage drop counted" 1 (C.outage_drops links);
  Alcotest.(check int) "also a fabric drop" 1 (F.dropped fabric);
  Alcotest.(check int) "one link down" 1 (C.links_down links)

let test_degraded_link_latency () =
  (* Arrivals of one copy over a 3x degraded link, under a wrapped
     injector that answers [verdict] to every copy. *)
  let arrivals verdict =
    let engine, l, fabric = make_fabric () in
    let links = arm ~inner:(fun ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ _ -> verdict) fabric in
    C.set_link_state links ~src_site:0 ~dst_site:1
      (C.Link_degraded { latency_mult = 3.0; drop_prob = 0. });
    let seen = ref [] in
    F.set_handler fabric (fun ~dst:_ () -> seen := Sim.Engine.now engine :: !seen);
    F.send_one fabric ~src:(L.l1d l ~cmp:0 ~proc:0) ~dst:(L.l2 l ~cmp:1 ~bank:0)
      ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
    Sim.Engine.run engine;
    List.rev !seen
  in
  (* Fault-free inter-site arrival for this path is 24625 ps (pinned in
     test_interconnect); a 3x degrade adds 2 extra inter_latency = 40 ns. *)
  let base = Sim.Time.ps 24_625 in
  Alcotest.(check (list int)) "degraded latency stacks on the link" [ base + ns 40 ]
    (arrivals F.Pass);
  Alcotest.(check (list int)) "and on a plan delay" [ base + ns 45 ] (arrivals (F.Delay (ns 5)));
  Alcotest.(check (list int)) "a plan duplicate passes un-delayed" [ base; base + ns 7 ]
    (arrivals (F.Duplicate (ns 7)))

let test_degraded_link_loss () =
  let engine, l, fabric = make_fabric () in
  let links = arm fabric in
  C.set_link_state links ~src_site:0 ~dst_site:1
    (C.Link_degraded { latency_mult = 1.0; drop_prob = 1.0 });
  let delivered = ref 0 in
  F.set_handler fabric (fun ~dst:_ () -> incr delivered);
  F.send_one fabric ~src:(L.l1d l ~cmp:0 ~proc:0) ~dst:(L.l2 l ~cmp:1 ~bank:0)
    ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "drop_prob=1 loses every copy" 0 !delivered;
  Alcotest.(check int) "counted as outage drop" 1 (C.outage_drops links)

let test_partition_heal_helpers () =
  let engine, _, fabric = make_fabric () in
  let links = arm fabric in
  C.partition links C.Link_down;
  let state a b = C.link_state links ~src_site:a ~dst_site:b in
  Alcotest.(check bool) "cross-region cut" true (state 0 2 = C.Link_down);
  Alcotest.(check bool) "cut is bidirectional" true (state 3 1 = C.Link_down);
  Alcotest.(check bool) "intra-region link stays up" true (state 0 1 = C.Link_up);
  Alcotest.(check bool) "intra-region link stays up (high)" true (state 2 3 = C.Link_up);
  (* 2 sites x 2 sites x both directions. *)
  Alcotest.(check int) "eight links down" 8 (C.links_down links);
  C.heal links;
  Alcotest.(check int) "heal restores everything" 0 (C.links_down links);
  Alcotest.(check bool) "healed link up" true (state 0 2 = C.Link_up);
  (* Downtime accounting: down from t=0 until a heal at 100 ns. *)
  C.set_link_state links ~src_site:0 ~dst_site:1 C.Link_down;
  Sim.Engine.schedule_at engine (ns 100) (fun () ->
      C.set_link_state links ~src_site:0 ~dst_site:1 C.Link_up);
  Sim.Engine.run engine;
  Alcotest.(check int) "downtime accounted" (ns 100) (C.link_downtime links);
  Alcotest.(check bool) "transitions counted" true (C.link_transitions links >= 10)

(* One inter-site link goes down, then degraded, then up: each
   transition reaches an attached trace buffer with the link's sites,
   and the Perfetto export renders it as an instant on the link's
   track. *)
let test_link_transitions_traced () =
  let engine, _, fabric = make_fabric () in
  let buf = Obs.Buffer.create ~capacity:16 () in
  Obs.Buffer.attach buf engine;
  let links = arm fabric in
  let set state () = C.set_link_state links ~src_site:1 ~dst_site:2 state in
  set C.Link_down ();
  Sim.Engine.schedule_at engine (ns 10)
    (set (C.Link_degraded { latency_mult = 4.; drop_prob = 0.25 }));
  Sim.Engine.schedule_at engine (ns 20) (set C.Link_up);
  Sim.Engine.run engine;
  let seen =
    List.map
      (fun { Obs.Buffer.at; ev } ->
        match ev with
        | Obs.Event.Link_down { src_site = 1; dst_site = 2 } -> ("down", at)
        | Obs.Event.Link_degraded
            { src_site = 1; dst_site = 2; latency_mult = 4.; drop_prob = 0.25 } ->
          ("degraded", at)
        | Obs.Event.Link_healed { src_site = 1; dst_site = 2 } -> ("healed", at)
        | _ -> ("other", at))
      (Obs.Buffer.to_list buf)
  in
  Alcotest.(check (list (pair string int))) "three transitions, in order"
    [ ("down", 0); ("degraded", ns 10); ("healed", ns 20) ]
    seen;
  let json = Obs.Perfetto.export buf in
  let events =
    match Tcjson.member "traceEvents" json with Some (Tcjson.List evs) -> evs | _ -> []
  in
  let str k ev = match Tcjson.member k ev with Some (Tcjson.String s) -> s | _ -> "" in
  let tid ev = match Tcjson.member "tid" ev with Some (Tcjson.Int t) -> t | _ -> -1 in
  let instants = List.filter (fun ev -> str "ph" ev = "i") events in
  Alcotest.(check (list string)) "rendered as link instants"
    [ "link-down"; "link-degraded"; "link-healed" ]
    (List.map (str "name") instants);
  let track =
    List.find_map
      (fun ev ->
        match Tcjson.member "args" ev with
        | Some args when str "ph" ev = "M" && str "name" args = "link 1->2" -> Some (tid ev)
        | _ -> None)
      events
  in
  Alcotest.(check (list (option int))) "all on the link's track"
    [ track; track; track ]
    (List.map (fun ev -> Some (tid ev)) instants);
  Alcotest.(check bool) "the link's track is named" true (track <> None)

(* ---- reliable transport over a Down link that heals late
   (satellite: retransmit exhaustion must not resurrect after heal) ---- *)

let test_exhaustion_then_heal_no_resurrection () =
  let engine, l, fabric = make_fabric () in
  let gave_up = ref 0 and handler_attempts = ref 0 and event_attempts = ref 0 in
  let give_up ~src:_ ~dst:_ ~cls:_ ~attempts msg =
    gave_up := msg;
    handler_attempts := attempts
  in
  let _, links, inject = C.install ~seed:1 ~spec:[] fabric pass in
  let tr, inject = Tr.wrap ~rng:(Sim.Rng.create 6) ~give_up fabric inject in
  F.set_fault_injector fabric inject;
  Sim.Engine.set_sink engine (fun _ -> function
    | Obs.Event.Retransmit_exhausted { attempts; _ } -> event_attempts := attempts
    | _ -> ());
  let deliveries = ref [] in
  F.set_handler fabric (fun ~dst:_ msg -> deliveries := msg :: !deliveries);
  C.set_link_state links ~src_site:0 ~dst_site:1 C.Link_down;
  let src = L.l1d l ~cmp:0 ~proc:0 and dst = L.l2 l ~cmp:1 ~bank:0 in
  (* Frame 1 exhausts its budget long before the heal at 400 us: its
     ten backoffs take 300 ns x (2^10 - 1) = 306.9 us plus at most 50 ns
     of jitter each. The heal must not resurrect it. *)
  F.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request ~bytes:8 1;
  Sim.Engine.schedule_at engine (us 400) (fun () -> C.heal links);
  Sim.Engine.schedule_at engine (us 401) (fun () ->
      F.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request ~bytes:8 2);
  Sim.Engine.run engine;
  Alcotest.(check int) "budget exhausted once" 1 (Tr.exhausted tr);
  Alcotest.(check int) "give-up handler saw frame 1" 1 !gave_up;
  Alcotest.(check int) "retransmits capped" Tr.max_retrans (Tr.retransmits tr);
  Alcotest.(check int) "offered max_retrans + 1 times" (Tr.max_retrans + 1) !handler_attempts;
  Alcotest.(check int) "the exhaustion event agrees" !handler_attempts !event_attempts;
  Alcotest.(check (list int)) "frame 1 stays dead; post-heal frame 2 delivers" [ 2 ]
    !deliveries

(* ---- reliable transport over multi-word destination sets
   (satellite: word-at-a-time broadcast survives the same storm at any
   node count) ---- *)

let reliable_broadcast lay =
  let engine, l, fabric = make_fabric ~lay () in
  (* Per (destination, frame) copy: first offer dropped, the retransmit
     duplicated, anything later passes — exercising retransmission and
     duplicate absorption on every copy of the broadcast. *)
  let offers = Hashtbl.create 256 in
  let inner ~now:_ ~src:_ ~dst ~cls:_ ~arrive:_ msg =
    let k = (dst, msg) in
    let n = 1 + (try Hashtbl.find offers k with Not_found -> 0) in
    Hashtbl.replace offers k n;
    match n with 1 -> F.Drop | 2 -> F.Duplicate (ns 10) | _ -> F.Pass
  in
  let tr, inject =
    Tr.wrap ~rng:(Sim.Rng.create 8)
      ~give_up:(fun ~src:_ ~dst:_ ~cls:_ ~attempts:_ _ -> ())
      fabric inner
  in
  F.set_fault_injector fabric inject;
  let received = Hashtbl.create 256 in
  F.set_handler fabric (fun ~dst msg ->
      Hashtbl.replace received (dst, msg)
        (1 + try Hashtbl.find received (dst, msg) with Not_found -> 0));
  let src = L.l1d l ~cmp:0 ~proc:0 in
  F.send_set fabric ~src ~dsts:(L.all_nodes_set l) ~cls:Interconnect.Msg_class.Request
    ~bytes:8 0;
  Sim.Engine.run engine;
  let ndsts = L.node_count l - 1 in
  let exactly_once = ref true in
  Hashtbl.iter (fun _ n -> if n <> 1 then exactly_once := false) received;
  Alcotest.(check int) "every destination reached" ndsts (Hashtbl.length received);
  Alcotest.(check bool) "each exactly once" true !exactly_once;
  Alcotest.(check int) "one retransmit per copy" ndsts (Tr.retransmits tr);
  Alcotest.(check int) "one duplicate absorbed per copy" ndsts (Tr.absorbed_duplicates tr)

let test_reliability_wide_destsets () =
  (* 16 CMPs x (2*6 L1 + 4 L2 + mem) = 272 nodes: a destset five words
     deep, past the 256-cache scale point. The 52-node layout pins the
     single-word path under the identical storm. *)
  let wide = L.create ~ncmp:16 ~procs_per_cmp:6 ~banks_per_cmp:4 in
  Alcotest.(check bool) "layout exceeds 256 nodes" true (L.node_count wide > 256);
  reliable_broadcast (layout ());
  reliable_broadcast wide

(* ---- chaos plans ---- *)

let test_chaos_spec () =
  let s = Fault.Chaos.split ~at:(us 5) ~duration:(us 50) () in
  Alcotest.(check int) "max outage is the partition" (us 50) (Fault.Chaos.max_outage s);
  let f = Fault.Chaos.flaky ~links:2 ~cycles:3 ~start:(us 2) ~down:(us 5) ~period:(us 12) () in
  Alcotest.(check int) "one cause per pair and cycle" 6 (List.length f);
  Alcotest.(check int) "flap outage" (us 5) (Fault.Chaos.max_outage f);
  (* The CLI's default plan with a 25 us cut: flaps at 2-7, 14-19 and
     26-31 us around the cut at 5-30 us, a 2-31 us union. *)
  let ci = Fault.Chaos.flaky () @ Fault.Chaos.split ~duration:(us 25) () in
  Alcotest.(check int) "stacked causes outage is their union" (us 29)
    (Fault.Chaos.max_outage ci);
  Alcotest.(check bool) "down >= period rejected" true
    (match Fault.Chaos.flaky ~down:(us 12) ~period:(us 12) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "a cut is lossy" true (Fault.Chaos.lossy s);
  Alcotest.(check bool) "burst loss is lossy" true
    (Fault.Chaos.lossy (Fault.Chaos.burst_loss ()));
  let b = Fault.Chaos.brownout_of (Fault.Chaos.burst_loss ()) in
  Alcotest.(check bool) "brownout flag" true (not (Fault.Chaos.lossy b))

(* [spec] armed on [lay]; returns each listed link's state at each
   probe time. *)
let states_over ?(lay = layout ()) spec ~links ~times =
  let engine, _, fabric = make_fabric ~lay () in
  let table = arm ~spec fabric in
  let seen = ref [] in
  List.iter
    (fun t ->
      Sim.Engine.schedule_at engine t (fun () ->
          List.iter
            (fun (a, b) ->
              seen := (t, a, b, C.link_state table ~src_site:a ~dst_site:b) :: !seen)
            links))
    times;
  Sim.Engine.run engine;
  (List.rev !seen, table)

let state_name = function
  | C.Link_up -> "up"
  | C.Link_down -> "down"
  | C.Link_degraded { latency_mult; drop_prob } ->
    Printf.sprintf "degraded(%g,%g)" latency_mult drop_prob

let check_states msg want got =
  Alcotest.(check (list (pair (pair int (pair int int)) string)))
    msg want
    (List.map (fun (t, a, b, st) -> ((t, (a, b)), state_name st)) got)

(* On 2 sites the one flapping pair is the pair the cut holds. The
   flap's heal at 7 us falls inside the 5-30 us cut and must leave
   both directions down until the cut ends. *)
let test_flap_heal_inside_partition () =
  let two = L.create ~ncmp:2 ~procs_per_cmp:2 ~banks_per_cmp:2 in
  let spec =
    Fault.Chaos.flaky ~cycles:1 ~start:(us 2) ~down:(us 5) ()
    @ Fault.Chaos.split ~at:(us 5) ~duration:(us 25) ()
  in
  let seen, table =
    states_over ~lay:two spec ~links:[ (0, 1); (1, 0) ] ~times:[ us 6; us 8; us 31 ]
  in
  check_states "the pair stays cut after the flap heals"
    [ ((us 6, (0, 1)), "down"); ((us 6, (1, 0)), "down");
      ((us 8, (0, 1)), "down"); ((us 8, (1, 0)), "down");
      ((us 31, (0, 1)), "up"); ((us 31, (1, 0)), "up") ]
    seen;
  Alcotest.(check int) "2 links x 2-30 us" (us 56) (C.link_downtime table);
  Alcotest.(check int) "one down and one up per link" 4 (C.link_transitions table)

(* A burst degrades every link from 3 to 7 us inside a 1-11 us cut:
   the cut links stay down throughout, and the burst's end lifts only
   the links the cut does not hold. *)
let test_burst_heal_inside_partition () =
  let spec = Fault.Chaos.burst_loss () @ Fault.Chaos.split ~at:(us 1) ~duration:(us 10) () in
  let seen, _ =
    states_over spec ~links:[ (0, 2); (3, 1); (0, 1); (3, 2) ] ~times:[ us 4; us 8; us 12 ]
  in
  let burst = "degraded(4,0.3)" in
  check_states "the burst's end leaves the cut in place"
    [ ((us 4, (0, 2)), "down"); ((us 4, (3, 1)), "down");
      ((us 4, (0, 1)), burst); ((us 4, (3, 2)), burst);
      ((us 8, (0, 2)), "down"); ((us 8, (3, 1)), "down");
      ((us 8, (0, 1)), "up"); ((us 8, (3, 2)), "up");
      ((us 12, (0, 2)), "up"); ((us 12, (3, 1)), "up");
      ((us 12, (0, 1)), "up"); ((us 12, (3, 2)), "up") ]
    seen

(* Two degrades on one link combine into the larger latency factor and
   the larger loss, whichever cause brings each. *)
let test_degradations_combine () =
  let degraded latency_mult drop_prob = C.Link_degraded { latency_mult; drop_prob } in
  let spec =
    [ { C.held = C.Every_link; from = us 1; until = us 10; state = degraded 4. 0.1 };
      { C.held = C.Cut; from = us 2; until = us 5; state = degraded 2. 0.5 } ]
  in
  let seen, _ = states_over spec ~links:[ (0, 2); (0, 1) ] ~times:[ us 3; us 6; us 11 ] in
  check_states "factor by factor"
    [ ((us 3, (0, 2)), "degraded(4,0.5)"); ((us 3, (0, 1)), "degraded(4,0.1)");
      ((us 6, (0, 2)), "degraded(4,0.1)"); ((us 6, (0, 1)), "degraded(4,0.1)");
      ((us 11, (0, 2)), "up"); ((us 11, (0, 1)), "up") ]
    seen

(* A cause's end is a heal only when some link it held comes back up.
   On 2 sites the flapping pair is the cut pair: in CI's plan (flaps at
   2-7, 14-19 and 26-31 us around a 5-30 us cut) the pair comes up once,
   at 31 us. Two flaps that do not overlap heal twice. *)
let test_heals_count_links_that_come_up () =
  let heals spec =
    let lay = L.create ~ncmp:2 ~procs_per_cmp:2 ~banks_per_cmp:2 in
    let engine, _, fabric = make_fabric ~lay () in
    let stats, _, _ = C.install ~seed:1 ~spec fabric pass in
    Sim.Engine.run engine;
    stats
  in
  let ci = heals (C.flaky () @ C.split ~duration:(us 25) ()) in
  Alcotest.(check (pair int int)) "three flaps and a cut start" (3, 1)
    (ci.C.flap_downs, ci.C.partitions);
  Alcotest.(check int) "the pair comes up once" 1 ci.C.heals;
  Alcotest.(check int) "separate flaps heal separately" 2
    (heals (C.flaky ~cycles:2 ())).C.heals

(* Degraded time is summed over links like downtime, and a link that
   is down is not also degraded. A burst (every link, 3-7 us) inside a
   1-11 us cut on 4 sites: the 8 cut links are down for 10 us each and
   the other 4 degraded for 4 us each. A degrade that changes factors
   stays one stretch: 12 links degraded from 1 to 10 us. *)
let test_degraded_time () =
  let times spec =
    let _, table = states_over spec ~links:[] ~times:[ us 20 ] in
    (C.link_downtime table, C.link_degraded_time table)
  in
  Alcotest.(check (pair int int)) "cut links down, the others degraded" (us 80, us 16)
    (times (C.burst_loss () @ C.split ~at:(us 1) ~duration:(us 10) ()));
  let degraded latency_mult drop_prob = C.Link_degraded { latency_mult; drop_prob } in
  Alcotest.(check (pair int int)) "one stretch per link" (0, us 108)
    (times
       [ { C.held = C.Every_link; from = us 1; until = us 10; state = degraded 4. 0.1 };
         { C.held = C.Cut; from = us 2; until = us 5; state = degraded 2. 0.5 } ])

let recovering = { Fault.Torture.default_params with Fault.Torture.p_recover = true }

(* A chaos plan whose first transition lies beyond the end of the run
   must leave the simulation bit-identical: installing it draws from a
   dedicated stream and the armed outage model (all links up) is
   transparent. *)
let test_chaos_gating_deterministic () =
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.02 Fault.Spec.default in
  let base =
    Fault.Torture.run recovering (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed:11
  in
  let dormant = Fault.Chaos.flaky ~start:(Sim.Time.us 100_000) () in
  let armed =
    Fault.Torture.run
      { recovering with Fault.Torture.p_chaos = Some dormant }
      (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed:11
  in
  Alcotest.(check int) "runtime identical" base.Fault.Torture.runtime
    armed.Fault.Torture.runtime;
  Alcotest.(check int) "ops identical" base.Fault.Torture.ops armed.Fault.Torture.ops;
  Alcotest.(check int) "retransmits identical" base.Fault.Torture.retransmits
    armed.Fault.Torture.retransmits;
  Alcotest.(check bool) "chaos stats attached but idle" true
    (match armed.Fault.Torture.chaos with
    | Some s -> s.Fault.Chaos.partitions = 0 && s.Fault.Chaos.flap_downs = 0
    | None -> false);
  Alcotest.(check int) "no link ever went down" 0
    (Sim.Time.ps 0 + armed.Fault.Torture.link_downtime)

(* Acceptance (tentpole): a token-with-recovery run rides out a hard
   2-region partition with a scheduled heal — every request retires
   with zero violations, and the verdict distinguishes that from a
   plain clean run. *)
let test_partition_survival () =
  let chaos = Fault.Chaos.split ~at:(us 5) ~duration:(us 50) () in
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.01 Fault.Spec.default in
  for seed = 1 to 3 do
    let o =
      Fault.Torture.run
        { recovering with Fault.Torture.p_chaos = Some chaos }
        (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed
    in
    (match Fault.Torture.verdict o with
    | Fault.Torture.Survived_partition -> ()
    | v ->
      Alcotest.failf "seed %d: expected survived-partition, got %a" seed
        Fault.Torture.pp_verdict v);
    Alcotest.(check bool) "all requests retired" true o.Fault.Torture.completed;
    Alcotest.(check bool) "no invariant violations" true
      (not
         (List.exists
            (fun r ->
              match r.Fault.Report.kind with Fault.Report.Invariant _ -> true | _ -> false)
            o.Fault.Torture.reports));
    (match o.Fault.Torture.chaos with
    | Some s ->
      Alcotest.(check int) "one partition" 1 s.Fault.Chaos.partitions;
      Alcotest.(check bool) "heal fired" true (s.Fault.Chaos.heals >= 1)
    | None -> Alcotest.fail "chaos stats missing");
    Alcotest.(check bool) "links accumulated downtime" true
      (o.Fault.Torture.link_downtime > Sim.Time.zero)
  done

(* A cut that holds no copy partitioned nothing: a zero-length one is
   scheduled and counted, but the run reads clean. *)
let test_hollow_cut_is_clean () =
  let o =
    Fault.Torture.run
      { recovering with
        Fault.Torture.p_chaos = Some (Fault.Chaos.split ~at:(us 3) ~duration:0 ())
      }
      (Fault.Torture.Token Token.Policy.dst1) ~spec:Fault.Spec.none ~seed:1
  in
  (match o.Fault.Torture.chaos with
  | Some s ->
    Alcotest.(check int) "the cut was scheduled" 1 s.Fault.Chaos.partitions;
    Alcotest.(check int) "and held no copy" 0 s.Fault.Chaos.cut_copies
  | None -> Alcotest.fail "chaos stats missing");
  Alcotest.(check int) "no downtime" 0 o.Fault.Torture.link_downtime;
  match Fault.Torture.verdict o with
  | Fault.Torture.Clean -> ()
  | v -> Alcotest.failf "expected clean, got %a" Fault.Torture.pp_verdict v

(* A partitioned run that fails says where. In a 400 us cut the
   transport gives up on a frame at ~312 us, before the heal at 405 us:
   that run reads as a give-up, not as a failure to converge after a
   heal that never came. The same outcome without the give-up report
   stopped inside the cut; with a link brought back up, convergence was
   owed. All three are liveness failures. *)
let test_partition_failure_verdicts () =
  let o =
    Fault.Torture.run
      { recovering with Fault.Torture.p_chaos = Some (C.split ~duration:(us 400) ()) }
      (Fault.Torture.Token Token.Policy.dst1) ~spec:Fault.Spec.none ~seed:1
  in
  let stats = match o.Fault.Torture.chaos with Some s -> s | None -> assert false in
  Alcotest.(check int) "the cut never healed" 0 stats.C.heals;
  let check name want o =
    Alcotest.(check string) name want
      (Format.asprintf "%a" Fault.Torture.pp_verdict (Fault.Torture.verdict o));
    Alcotest.(check int) (name ^ ": liveness exit code") 2 (Fault.Torture.exit_code [ o ])
  in
  check "give-up" "FAILED: transport gave up inside the partition" o;
  let stopped = { o with Fault.Torture.reports = [] } in
  check "no give-up, no heal" "FAILED: run stopped inside the partition, before it healed"
    stopped;
  check "no give-up, healed" "FAILED: livelock: did not converge after partition heal"
    { stopped with Fault.Torture.chaos = Some { stats with C.heals = 1 } }

(* Hard chaos (down links) needs the recovery stack on token targets. *)
let test_chaos_validation () =
  let invalid f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "hard chaos without recovery rejected" true
    (invalid (fun () ->
         Fault.Torture.run
           { Fault.Torture.default_params with
             Fault.Torture.p_chaos = Some (Fault.Chaos.split ~duration:(us 10) ())
           }
           (Fault.Torture.Token Token.Policy.dst1) ~spec:Fault.Spec.default ~seed:1))

(* Directory targets take the loss-free brownout rendition of the plan
   and must still retire everything (delay-only discipline). The cut
   opens at 2 us: this run sends no inter-site copy after 5 us, so a
   cut from 5 us would hold nothing. *)
let test_directory_brownout () =
  let chaos = Fault.Chaos.split ~at:(us 2) ~duration:(us 20) () in
  let o =
    Fault.Torture.run
      { Fault.Torture.default_params with Fault.Torture.p_chaos = Some chaos }
      (Fault.Torture.Directory { dram_directory = true })
      ~spec:(Fault.Spec.delay_only Fault.Spec.default) ~seed:3
  in
  Alcotest.(check bool) "completed through the brownout" true o.Fault.Torture.completed;
  (match Fault.Torture.verdict o with
  | Fault.Torture.Survived_partition -> ()
  | v -> Alcotest.failf "expected survived-partition, got %a" Fault.Torture.pp_verdict v);
  Alcotest.(check bool) "the brownout delayed cut traffic" true
    (match o.Fault.Torture.chaos with Some s -> s.Fault.Chaos.cut_copies > 0 | None -> false);
  Alcotest.(check bool) "and the outcome reports degraded time" true
    (o.Fault.Torture.link_degraded > Sim.Time.zero);
  Alcotest.(check int) "nothing dropped by the outage model" 0
    (match o.Fault.Torture.chaos with Some _ -> 0 | None -> 1)

(* The watchdog margin must budget for a chaos outage followed by
   worst-case recovery. With torture defaults (20 us x 5 windows, 200 us
   starvation bound) the recovery-mode default margin of 2.5 covers
   250 us of stall: enough for recovery alone (140 us), not for a
   200 us cut followed by it. *)
let test_margin_covers_outage_and_recovery () =
  let watchdog_interval = ns 20_000 and no_progress_windows = 5
  and starvation_bound = ns 200_000 in
  let margin ?chaos () =
    Fault.Torture.effective_margin ~base:2.5 ~recover:true ?chaos ~watchdog_interval
      ~no_progress_windows ~starvation_bound ()
  in
  let chaos = Fault.Chaos.split ~duration:(us 200) () in
  let stall = Fault.Chaos.max_outage chaos + Token.Recovery.worst_case_latency in
  (* The tightest scaled bound under the default margin. *)
  let np_total = Sim.Time.mul_f watchdog_interval (float_of_int no_progress_windows) in
  let budget m = Sim.Time.mul_f (min np_total starvation_bound) m in
  Alcotest.(check bool) "default margin out-waits recovery alone" true
    (budget 2.5 >= Token.Recovery.worst_case_latency);
  Alcotest.(check bool) "default margin cannot out-wait the cut plus recovery" true
    (budget 2.5 < stall);
  Alcotest.(check (float 1e-9)) "no outage: default margin" 2.5 (margin ());
  let m = margin ~chaos () in
  Alcotest.(check bool) "outage widens the margin" true (m > 2.5);
  Alcotest.(check bool) "widened margin out-waits the cut plus recovery" true
    (budget m >= stall);
  (* End to end: a recovery run under a drop storm completes without
     the watchdog misfiring on a legitimate recovery wait. *)
  let spec = Fault.Spec.with_drops ~tokens:true ~prob:0.03 Fault.Spec.default in
  let o =
    Fault.Torture.run recovering (Fault.Torture.Token Token.Policy.dst1) ~spec ~seed:17
  in
  match Fault.Torture.verdict o with
  | Fault.Torture.Clean -> ()
  | v -> Alcotest.failf "recovery run not clean: %a" Fault.Torture.pp_verdict v

(* Campaign-level passthrough: a small chaos campaign over token
   targets comes back all survived. *)
let test_chaos_campaign () =
  let chaos = Fault.Chaos.split ~at:(us 5) ~duration:(us 25) () in
  let outcomes =
    Fault.Torture.campaign
      ~params:{ recovering with Fault.Torture.p_chaos = Some chaos }
      ~runs:4
      ~targets:[ Fault.Torture.Token Token.Policy.dst1; Fault.Torture.Token Token.Policy.arb0 ]
      ~seed:2026 ()
  in
  Alcotest.(check int) "ran all 4" 4 (List.length outcomes);
  List.iter
    (fun o ->
      match Fault.Torture.verdict o with
      | Fault.Torture.Survived_partition | Fault.Torture.Detected -> ()
      | v ->
        Alcotest.failf "seed %d: %a" o.Fault.Torture.seed Fault.Torture.pp_verdict v)
    outcomes

let tests =
  [
    Alcotest.test_case "outage model is opt-in" `Quick test_outage_requires_enable;
    Alcotest.test_case "down link drops copies" `Quick test_down_link_drops;
    Alcotest.test_case "degraded link stacks latency" `Quick test_degraded_link_latency;
    Alcotest.test_case "degraded link loses copies" `Quick test_degraded_link_loss;
    Alcotest.test_case "partition and heal helpers" `Quick test_partition_heal_helpers;
    Alcotest.test_case "link transitions reach the trace" `Quick
      test_link_transitions_traced;
    Alcotest.test_case "exhausted frame not resurrected by heal" `Quick
      test_exhaustion_then_heal_no_resurrection;
    Alcotest.test_case "reliable transport over Wide destsets" `Slow
      test_reliability_wide_destsets;
    Alcotest.test_case "chaos spec constructors" `Quick test_chaos_spec;
    Alcotest.test_case "flap heal inside a partition leaves the pair down" `Quick
      test_flap_heal_inside_partition;
    Alcotest.test_case "burst heal inside a partition lifts only the burst" `Quick
      test_burst_heal_inside_partition;
    Alcotest.test_case "degradations combine factor by factor" `Quick
      test_degradations_combine;
    Alcotest.test_case "a heal is a cause end that brings a link up" `Quick
      test_heals_count_links_that_come_up;
    Alcotest.test_case "degraded time is summed over links" `Quick test_degraded_time;
    Alcotest.test_case "a zero-length cut reads clean" `Slow test_hollow_cut_is_clean;
    Alcotest.test_case "dormant chaos leaves runs bit-identical" `Slow
      test_chaos_gating_deterministic;
    Alcotest.test_case "partition survived and converged after heal" `Slow
      test_partition_survival;
    Alcotest.test_case "partition failures say where they failed" `Slow
      test_partition_failure_verdicts;
    Alcotest.test_case "chaos validation" `Quick test_chaos_validation;
    Alcotest.test_case "directory rides out a brownout partition" `Slow
      test_directory_brownout;
    Alcotest.test_case "watchdog margin covers an outage plus recovery" `Slow
      test_margin_covers_outage_and_recovery;
    Alcotest.test_case "chaos campaign survives" `Slow test_chaos_campaign;
  ]
