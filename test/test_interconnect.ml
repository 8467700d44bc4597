let layout () = Interconnect.Layout.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4

let test_layout_counts () =
  let l = layout () in
  Alcotest.(check int) "nodes" 52 (Interconnect.Layout.node_count l);
  Alcotest.(check int) "procs" 16 (Interconnect.Layout.nprocs l);
  Alcotest.(check int) "caches" 48 (Interconnect.Layout.ncaches l);
  Alcotest.(check int) "caches per cmp" 12 (Interconnect.Layout.caches_per_cmp l)

let test_layout_kinds () =
  let l = layout () in
  List.iter
    (fun id ->
      let open Interconnect.Layout in
      match kind l id with
      | L1d { cmp; proc } -> Alcotest.(check int) "l1d id" id (l1d l ~cmp ~proc)
      | L1i { cmp; proc } -> Alcotest.(check int) "l1i id" id (l1i l ~cmp ~proc)
      | L2 { cmp; bank } -> Alcotest.(check int) "l2 id" id (l2 l ~cmp ~bank)
      | Mem { cmp } -> Alcotest.(check int) "mem id" id (mem l ~cmp))
    (Interconnect.Layout.all_nodes l)

let test_layout_procs () =
  let l = layout () in
  for p = 0 to 15 do
    let l1 = Interconnect.Layout.l1d_of_proc l p in
    Alcotest.(check int) "proc round trip" p (Interconnect.Layout.proc_of_l1 l l1);
    Alcotest.(check int) "cmp of proc" (p / 4) (Interconnect.Layout.cmp_of_proc l p)
  done

let test_layout_groups () =
  let l = layout () in
  Alcotest.(check int) "l1s per cmp" 8 (List.length (Interconnect.Layout.l1s_of_cmp l 2));
  Alcotest.(check int) "l2s per cmp" 4 (List.length (Interconnect.Layout.l2s_of_cmp l 2));
  Alcotest.(check int) "mems" 4 (List.length (Interconnect.Layout.all_mems l));
  List.iter
    (fun id -> Alcotest.(check int) "cmp" 1 (Interconnect.Layout.cmp_of l id))
    (Interconnect.Layout.caches_of_cmp l 1)

let test_traffic_accounting () =
  let t = Interconnect.Traffic.create () in
  Interconnect.Traffic.add_intra t Interconnect.Msg_class.Request 8;
  Interconnect.Traffic.add_intra t Interconnect.Msg_class.Request 8;
  Interconnect.Traffic.add_inter t Interconnect.Msg_class.Response_data 72;
  Alcotest.(check int) "intra req" 16
    (Interconnect.Traffic.intra_bytes t Interconnect.Msg_class.Request);
  Alcotest.(check int) "inter data" 72
    (Interconnect.Traffic.inter_bytes t Interconnect.Msg_class.Response_data);
  Alcotest.(check int) "intra total" 16 (Interconnect.Traffic.intra_total t);
  Alcotest.(check int) "inter total" 72 (Interconnect.Traffic.inter_total t);
  Interconnect.Traffic.reset t;
  Alcotest.(check int) "reset" 0 (Interconnect.Traffic.intra_total t)

let make_fabric () =
  let engine = Sim.Engine.create () in
  let l = layout () in
  let traffic = Interconnect.Traffic.create () in
  let params = { Interconnect.Fabric.default_params with jitter = 0 } in
  let fabric = Interconnect.Fabric.create engine l params traffic (Sim.Rng.create 1) in
  (engine, l, traffic, fabric)

let test_fabric_intra_latency () =
  let engine, l, traffic, fabric = make_fabric () in
  let arrival = ref (-1) in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> arrival := Sim.Engine.now engine);
  let src = Interconnect.Layout.l1d l ~cmp:0 ~proc:0 in
  let dst = Interconnect.Layout.l2 l ~cmp:0 ~bank:0 in
  Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  (* serialization 8B @ 64B/ns = 125ps, plus 2ns hop *)
  Alcotest.(check int) "intra latency" (Sim.Time.ps 2125) !arrival;
  Alcotest.(check int) "intra bytes" 8 (Interconnect.Traffic.intra_total traffic);
  Alcotest.(check int) "no inter bytes" 0 (Interconnect.Traffic.inter_total traffic)

let test_fabric_inter_latency () =
  let engine, l, traffic, fabric = make_fabric () in
  let arrival = ref (-1) in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> arrival := Sim.Engine.now engine);
  let src = Interconnect.Layout.l1d l ~cmp:0 ~proc:0 in
  let dst = Interconnect.Layout.l1d l ~cmp:1 ~proc:0 in
  Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  (* exit hop 2ns + 125ps ser, link 20ns + 500ps ser, entry 2ns *)
  Alcotest.(check int) "inter latency" (Sim.Time.ps 24625) !arrival;
  Alcotest.(check int) "inter bytes once" 8 (Interconnect.Traffic.inter_total traffic);
  (* intra charged on both chips *)
  Alcotest.(check int) "intra both sides" 16 (Interconnect.Traffic.intra_total traffic)

let test_fabric_multicast_single_crossing () =
  let engine, l, traffic, fabric = make_fabric () in
  let deliveries = ref 0 in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> incr deliveries);
  let src = Interconnect.Layout.l2 l ~cmp:0 ~bank:0 in
  (* broadcast to all 8 L1s of chip 1: one link crossing, 8 local fan-outs *)
  let dsts = Interconnect.Layout.l1s_of_cmp_set l 1 in
  Interconnect.Fabric.send_set fabric ~src ~dsts ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "deliveries" 8 !deliveries;
  Alcotest.(check int) "inter crossed once" 8 (Interconnect.Traffic.inter_total traffic);
  (* src exit hop once + 8 destination-side hops *)
  Alcotest.(check int) "intra hops" (8 * 9) (Interconnect.Traffic.intra_total traffic)

let test_fabric_excludes_src () =
  let engine, l, _, fabric = make_fabric () in
  let deliveries = ref 0 in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> incr deliveries);
  let src = Interconnect.Layout.l1d l ~cmp:0 ~proc:0 in
  Interconnect.Fabric.send_set fabric ~src
    ~dsts:(Interconnect.Destset.of_list [ src; src + 1 ])
    ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "self excluded" 1 !deliveries

(* A point-to-point message to its own sender is a protocol bug (for
   token messages, dropping it would lose tokens), so send_one raises
   and charges nothing. *)
let test_send_one_to_self () =
  let engine, l, traffic, fabric = make_fabric () in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> ());
  let src = Interconnect.Layout.l2 l ~cmp:1 ~bank:2 in
  Alcotest.check_raises "self-send"
    (Invalid_argument (Printf.sprintf "Fabric.send_one: node %d sending to itself" src))
    (fun () ->
      Interconnect.Fabric.send_one fabric ~src ~dst:src ~cls:Interconnect.Msg_class.Request
        ~bytes:8 ());
  Sim.Engine.run engine;
  Alcotest.(check int) "nothing sent" 0 (Interconnect.Fabric.delivered fabric);
  Alcotest.(check int) "nothing charged" 0 (Interconnect.Traffic.intra_total traffic)

let test_fabric_mem_link () =
  let engine, l, traffic, fabric = make_fabric () in
  let arrival = ref (-1) in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> arrival := Sim.Engine.now engine);
  let src = Interconnect.Layout.l2 l ~cmp:2 ~bank:0 in
  let dst = Interconnect.Layout.mem l ~cmp:2 in
  Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  (* off-chip pin hop: 20ns + 8B @ 16B/ns = 500ps *)
  Alcotest.(check int) "mem link" (Sim.Time.ps 20500) !arrival;
  Alcotest.(check int) "counted as inter" 8 (Interconnect.Traffic.inter_total traffic)

let test_fabric_bandwidth_serialization () =
  let engine, l, _, fabric = make_fabric () in
  let arrivals = ref [] in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () ->
      arrivals := Sim.Engine.now engine :: !arrivals);
  let src = Interconnect.Layout.l1d l ~cmp:0 ~proc:0 in
  let dst = Interconnect.Layout.l1d l ~cmp:0 ~proc:1 in
  (* two 72B messages: the second waits for the first's serialization *)
  Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Response_data
    ~bytes:72 ();
  Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Response_data
    ~bytes:72 ();
  Sim.Engine.run engine;
  match List.rev !arrivals with
  | [ a; b ] ->
    Alcotest.(check int) "first" (Sim.Time.ps 3125) a;
    Alcotest.(check int) "second delayed by port occupancy" (Sim.Time.ps 4250) b
  | _ -> Alcotest.fail "expected two deliveries"

(* Fault verdicts, one arm at a time: a bare 2-CMP fabric, no jitter,
   whose injector answers each offered copy with the next scripted
   verdict (then [Pass]); [wrap] may wrap that injector before it is
   installed. One send crosses chips; returns the fabric and the
   delivery times. *)
module F = Interconnect.Fabric

let scripted ?(wrap = fun _ inject -> inject) script =
  let l = Interconnect.Layout.create ~ncmp:2 ~procs_per_cmp:1 ~banks_per_cmp:1 in
  let engine = Sim.Engine.create () in
  let params = { F.default_params with jitter = 0 } in
  let fabric = F.create engine l params (Interconnect.Traffic.create ()) (Sim.Rng.create 1) in
  let script = ref script in
  F.set_fault_injector fabric
    (wrap fabric (fun ~now:_ ~src:_ ~dst:_ ~cls:_ ~arrive:_ () ->
         match !script with
         | v :: rest ->
           script := rest;
           v
         | [] -> F.Pass));
  let arrivals = ref [] in
  F.set_handler fabric (fun ~dst:_ () -> arrivals := Sim.Engine.now engine :: !arrivals);
  F.send_one fabric ~src:(Interconnect.Layout.l1d l ~cmp:0 ~proc:0)
    ~dst:(Interconnect.Layout.l1d l ~cmp:1 ~proc:0) ~cls:Interconnect.Msg_class.Request
    ~bytes:8 ();
  Sim.Engine.run engine;
  (fabric, List.rev !arrivals)

let times = Alcotest.(list int)

let pass_arrival () =
  match scripted [ F.Pass ] with
  | _, [ t ] -> t
  | _ -> Alcotest.fail "a passed copy is delivered once"

let test_verdict_delay () =
  let t = pass_arrival () and d = Sim.Time.ns 7 in
  Alcotest.check times "lands d later" [ t + d ] (snd (scripted [ F.Delay d ]))

let test_verdict_duplicate () =
  let t = pass_arrival () and d = Sim.Time.ns 7 in
  Alcotest.check times "at t and at t + d" [ t; t + d ] (snd (scripted [ F.Duplicate d ]))

let test_verdict_drop () =
  let fabric, arrivals = scripted [ F.Drop ] in
  Alcotest.check times "nothing delivered" [] arrivals;
  Alcotest.(check int) "counted" 1 (F.dropped fabric)

(* The same send under a reliable transport whose jitter stream is
   [Sim.Rng.create 2]. *)
let reliably script =
  let transport = ref None in
  let wrap fabric inject =
    let tr, inject =
      Fault.Transport.wrap ~rng:(Sim.Rng.create 2)
        ~give_up:(fun ~src:_ ~dst:_ ~cls:_ ~attempts:_ () -> ())
        fabric inject
    in
    transport := Some tr;
    inject
  in
  let fabric, arrivals = scripted ~wrap script in
  (fabric, Option.get !transport, arrivals)

let test_reliable_duplicate () =
  let t = pass_arrival () in
  let _, tr, arrivals = reliably [ F.Duplicate (Sim.Time.ns 7) ] in
  Alcotest.check times "delivered once" [ t ] arrivals;
  Alcotest.(check int) "absorbed" 1 (Fault.Transport.absorbed_duplicates tr)

(* The retransmit leaves one base timeout plus its jitter draw after
   the lost copy's arrival, and takes the same flight again. *)
let test_reliable_drop () =
  let t = pass_arrival () in
  let fabric, tr, arrivals = reliably [ F.Drop; F.Pass ] in
  let jitter = Sim.Rng.int (Sim.Rng.create 2) (Fault.Transport.retrans_jitter + 1) in
  Alcotest.check times "delivered once after the backoff"
    [ t + Fault.Transport.retrans_timeout + jitter + t ]
    arrivals;
  Alcotest.(check int) "one retransmit" 1 (Fault.Transport.retransmits tr);
  Alcotest.(check int) "the lost copy counts" 1 (F.dropped fabric)

let tests =
  [
    Alcotest.test_case "layout counts" `Quick test_layout_counts;
    Alcotest.test_case "layout kind/id round trip" `Quick test_layout_kinds;
    Alcotest.test_case "layout proc mapping" `Quick test_layout_procs;
    Alcotest.test_case "layout groups" `Quick test_layout_groups;
    Alcotest.test_case "traffic accounting" `Quick test_traffic_accounting;
    Alcotest.test_case "fabric intra latency" `Quick test_fabric_intra_latency;
    Alcotest.test_case "fabric inter latency" `Quick test_fabric_inter_latency;
    Alcotest.test_case "multicast crosses each link once" `Quick
      test_fabric_multicast_single_crossing;
    Alcotest.test_case "fabric excludes source" `Quick test_fabric_excludes_src;
    Alcotest.test_case "send_one to itself raises" `Quick test_send_one_to_self;
    Alcotest.test_case "memory pin link" `Quick test_fabric_mem_link;
    Alcotest.test_case "port bandwidth serialization" `Quick
      test_fabric_bandwidth_serialization;
    Alcotest.test_case "verdict: delay" `Quick test_verdict_delay;
    Alcotest.test_case "verdict: duplicate" `Quick test_verdict_duplicate;
    Alcotest.test_case "verdict: drop" `Quick test_verdict_drop;
    Alcotest.test_case "reliable verdict: duplicate absorbed" `Quick test_reliable_duplicate;
    Alcotest.test_case "reliable verdict: drop retransmitted" `Quick test_reliable_drop;
  ]

(* Property: every message sent is delivered exactly once, whatever the
   multicast pattern. *)
let prop_exactly_once_delivery =
  QCheck.Test.make ~name:"fabric delivers each (src,dsts) send exactly once per dst" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 0 51) (list_of_size (Gen.int_range 0 8) (int_range 0 51))))
    (fun sends ->
      let engine = Sim.Engine.create () in
      let l = layout () in
      let traffic = Interconnect.Traffic.create () in
      let fabric =
        Interconnect.Fabric.create engine l Interconnect.Fabric.default_params traffic
          (Sim.Rng.create 5)
      in
      let received = Hashtbl.create 64 in
      Interconnect.Fabric.set_handler fabric (fun ~dst msg ->
          Hashtbl.replace received (msg, dst)
            (1 + try Hashtbl.find received (msg, dst) with Not_found -> 0));
      let expected = Hashtbl.create 64 in
      List.iteri
        (fun i (src, dsts) ->
          Interconnect.Fabric.send_set fabric ~src ~dsts:(Interconnect.Destset.of_list dsts)
            ~cls:Interconnect.Msg_class.Request ~bytes:8 i;
          List.iter
            (fun d ->
              if d <> src then
                Hashtbl.replace expected (i, d)
                  (1 + try Hashtbl.find expected (i, d) with Not_found -> 0))
            (List.sort_uniq compare dsts))
        sends;
      Sim.Engine.run engine;
      Hashtbl.length received = Hashtbl.length expected
      && Hashtbl.fold
           (fun key n ok -> ok && (try Hashtbl.find received key = n with Not_found -> false))
           expected true)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_exactly_once_delivery ]
