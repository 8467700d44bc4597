(* Smoke coverage for small leaf APIs: pretty-printers, the value
   store, counters and the protocol zoo. *)

let test_time_pp () =
  Alcotest.(check string) "ns" "2.50ns" (Format.asprintf "%a" Sim.Time.pp (Sim.Time.ps 2500));
  Alcotest.(check string) "us" "1.50us"
    (Format.asprintf "%a" Sim.Time.pp (Sim.Time.ns 1500))

let test_values () =
  let v = Mcmp.Values.create () in
  Alcotest.(check int) "default zero" 0 (Mcmp.Values.get v 42);
  Mcmp.Values.set v 42 7;
  Mcmp.Values.set v 43 8;
  Alcotest.(check int) "written" 7 (Mcmp.Values.get v 42);
  Mcmp.Values.set v 42 9;
  Alcotest.(check int) "overwritten" 9 (Mcmp.Values.get v 42);
  Alcotest.(check int) "other var untouched" 8 (Mcmp.Values.get v 43)

let test_counters_pp () =
  let c = Mcmp.Counters.create () in
  c.Mcmp.Counters.loads <- 10;
  c.Mcmp.Counters.l1_misses <- 4;
  c.Mcmp.Counters.persistent_requests <- 1;
  Sim.Stat.Histogram.add c.Mcmp.Counters.miss_histogram 120;
  let s = Format.asprintf "%a" Mcmp.Counters.pp c in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions loads" true (contains s "10 loads");
  Alcotest.(check bool) "mentions percentiles" true (contains s "p50/p90/p99");
  Alcotest.(check (float 1e-9)) "persistent fraction" 0.25 (Mcmp.Counters.persistent_fraction c);
  Alcotest.(check int) "data ops" 10 (Mcmp.Counters.data_ops c)

let test_msg_class_table () =
  Alcotest.(check int) "seven classes" 7 (List.length Interconnect.Msg_class.all);
  Alcotest.(check int) "count constant" Interconnect.Msg_class.count
    (List.length Interconnect.Msg_class.all);
  (* indices are dense and unique *)
  let idx = List.map Interconnect.Msg_class.index Interconnect.Msg_class.all in
  Alcotest.(check (list int)) "dense" [ 0; 1; 2; 3; 4; 5; 6 ] (List.sort compare idx);
  List.iter
    (fun c ->
      Alcotest.(check bool) "has a name" true
        (String.length (Interconnect.Msg_class.to_string c) > 0))
    Interconnect.Msg_class.all

let test_token_msg_pp () =
  let msgs =
    [
      Token.Msg.Transient
        { addr = 5; requester = 1; rw = Token.Msg.R; scope = `Local; force_external = false;
          hint = None };
      Token.Msg.Tokens
        { addr = 5; src = 2; count = 3; owner = true; data = true; dirty = false;
          writeback = false; epoch = 0 };
      Token.Msg.Tokens
        { addr = 5; src = 2; count = 3; owner = true; data = true; dirty = false;
          writeback = false; epoch = 2 };
      Token.Msg.Recreate_req { addr = 5; src = 1; epoch = 1 };
      Token.Msg.Epoch_bump { addr = 5; epoch = 2 };
      Token.Msg.Epoch_ack { addr = 5; src = 1; epoch = 2 };
      Token.Msg.P_activate { addr = 5; proc = 0; l1 = 1; rw = Token.Msg.W; seq = 4 };
      Token.Msg.P_deactivate { addr = 5; proc = 0; seq = 4 };
      Token.Msg.P_arb_request { addr = 5; proc = 0; l1 = 1; rw = Token.Msg.W; rid = 7 };
      Token.Msg.P_arb_done { addr = 5; proc = 0; rid = 7 };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "prints" true
        (String.length (Format.asprintf "%a" Token.Msg.pp m) > 0))
    msgs

let test_layout_pp () =
  let l = Interconnect.Layout.create ~ncmp:2 ~procs_per_cmp:2 ~banks_per_cmp:2 in
  let render id = Format.asprintf "%a" (Interconnect.Layout.pp_node l) id in
  Alcotest.(check string) "l1d" "L1d[0.0]" (render 0);
  Alcotest.(check string) "mem" "Mem[0]" (render (Interconnect.Layout.mem l ~cmp:0));
  Alcotest.(check string) "l2" "L2[1.1]" (render (Interconnect.Layout.l2 l ~cmp:1 ~bank:1))

let test_policy_pp () =
  List.iter
    (fun p ->
      let s = Format.asprintf "%a" Token.Policy.pp p in
      Alcotest.(check bool) "contains name" true
        (String.length s >= String.length p.Token.Policy.name))
    (Token.Policy.dst1_flat :: Token.Policy.dst1_mcast :: Token.Policy.all)

let test_fabric_delivered_counter () =
  let engine = Sim.Engine.create () in
  let l = Interconnect.Layout.create ~ncmp:2 ~procs_per_cmp:2 ~banks_per_cmp:2 in
  let fabric =
    Interconnect.Fabric.create engine l Interconnect.Fabric.default_params
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 2)
  in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> ());
  Interconnect.Fabric.send_set fabric ~src:0 ~dsts:(Interconnect.Destset.of_list [ 1; 2; 3 ])
    ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "three deliveries" 3 (Interconnect.Fabric.delivered fabric);
  Alcotest.(check bool) "accessors" true
    (Interconnect.Fabric.layout fabric == l && Interconnect.Fabric.engine fabric == engine)

let test_token_dump () =
  let engine = Sim.Engine.create () in
  let counters = Mcmp.Counters.create () in
  let { Token.Protocol.i_handle = handle; i_dump = dump; _ } =
    Token.Protocol.create_instrumented Token.Policy.dst0 engine Mcmp.Config.tiny
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 3) counters
  in
  (* start a write and freeze mid-flight: the dump must show the MSHR
     and the persistent table entries *)
  handle.Mcmp.Protocol.access ~proc:0 ~kind:Mcmp.Protocol.Write 777 ~commit:(fun () -> ());
  Sim.Engine.run ~until:(Sim.Time.ns 10) engine;
  let s = Format.asprintf "%a" dump () in
  Alcotest.(check bool) "dump shows pending state" true (String.length s > 0)

let tests =
  [
    Alcotest.test_case "time pretty-printing" `Quick test_time_pp;
    Alcotest.test_case "value store" `Quick test_values;
    Alcotest.test_case "counters summary" `Quick test_counters_pp;
    Alcotest.test_case "message-class table" `Quick test_msg_class_table;
    Alcotest.test_case "token message printers" `Quick test_token_msg_pp;
    Alcotest.test_case "layout node printer" `Quick test_layout_pp;
    Alcotest.test_case "policy printer" `Quick test_policy_pp;
    Alcotest.test_case "fabric delivered counter" `Quick test_fabric_delivered_counter;
    Alcotest.test_case "token protocol dump" `Quick test_token_dump;
  ]
