module J = Tcjson

let lookup node addr hit =
  Obs.Event.Lookup { node; level = Obs.Event.L1; addr; hit }

let test_buffer_ring () =
  let b = Obs.Buffer.create ~capacity:4 () in
  for i = 0 to 5 do
    Obs.Buffer.add b ~at:(Sim.Time.ns i) (lookup i i true)
  done;
  Alcotest.(check int) "recorded" 6 (Obs.Buffer.recorded b);
  Alcotest.(check int) "length" 4 (Obs.Buffer.length b);
  Alcotest.(check int) "dropped" 2 (Obs.Buffer.dropped b);
  let seen = ref [] in
  Obs.Buffer.iter b (fun ~at:_ e ->
      match e with Obs.Event.Lookup { addr; _ } -> seen := addr :: !seen | _ -> ());
  Alcotest.(check (list int)) "oldest-first window" [ 2; 3; 4; 5 ] (List.rev !seen)

let test_buffer_attach () =
  let engine = Sim.Engine.create () in
  Alcotest.(check bool) "tracing off by default" false (Sim.Engine.tracing engine);
  let b = Obs.Buffer.create ~capacity:8 () in
  Obs.Buffer.attach b engine;
  Alcotest.(check bool) "tracing on after attach" true (Sim.Engine.tracing engine);
  Sim.Engine.schedule_in engine (Sim.Time.ns 5) (fun () ->
      Sim.Engine.emit engine (lookup 1 0x40 false));
  Sim.Engine.run engine;
  match Obs.Buffer.to_list b with
  | [ { Obs.Buffer.at; ev = Obs.Event.Lookup { addr; _ } } ] ->
    Alcotest.(check bool) "timestamped at emit" true (at = Sim.Time.ns 5);
    Alcotest.(check int) "payload" 0x40 addr
  | _ -> Alcotest.fail "expected exactly the emitted event"

let test_registry () =
  let r = Obs.Registry.create () in
  let x = ref 1 in
  Obs.Registry.register_int r "b.count" (fun () -> !x);
  Obs.Registry.register_float r "a.ratio" (fun () -> 0.5);
  Alcotest.(check (list string)) "names sorted" [ "a.ratio"; "b.count" ]
    (List.map fst (Obs.Registry.gauges r));
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Obs.Registry: duplicate metric \"b.count\"") (fun () ->
      Obs.Registry.register_int r "b.count" (fun () -> 0));
  x := 7;
  Alcotest.(check (list (pair string (float 0.)))) "gauges read when asked"
    [ ("a.ratio", 0.5); ("b.count", 7.) ]
    (Obs.Registry.gauges r)

let test_span_assembly () =
  let b = Obs.Buffer.create ~capacity:64 () in
  let add at ev = Obs.Buffer.add b ~at:(Sim.Time.ns at) ev in
  add 10
    (Obs.Event.Req_issue { tid = 1; node = 0; proc = 0; addr = 0x80; rw = Obs.Event.R });
  add 12 (Obs.Event.Req_issue { tid = 2; node = 1; proc = 1; addr = 0x90; rw = Obs.Event.W });
  add 40 (Obs.Event.Req_response { tid = 1; node = 0; src = 3 });
  add 45 (Obs.Event.Req_response { tid = 1; node = 0; src = 5 });
  add 50
    (Obs.Event.Req_retire
       { tid = 1; node = 0; proc = 0; addr = 0x80; rw = Obs.Event.R;
         fill = Obs.Event.Fill_remote; cause = Obs.Event.Sharing_remote; retries = 0;
         persistent = false });
  (* tid 2 never retires: incomplete *)
  let spans = Obs.Span.assemble b in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let s1 = List.nth spans 0 in
  Alcotest.(check int) "issue order" 1 s1.Obs.Span.tid;
  Alcotest.(check (option (float 1e-9))) "request phase = issue..first response"
    (Some 30.) (Obs.Span.request_ns s1);
  Alcotest.(check (option (float 1e-9))) "fill phase = first response..retire" (Some 10.)
    (Obs.Span.fill_ns s1);
  Alcotest.(check (option (float 1e-9))) "total" (Some 40.) (Obs.Span.total_ns s1);
  let sum = Obs.Span.summarize spans in
  Alcotest.(check int) "completed" 1 sum.Obs.Span.spans;
  Alcotest.(check int) "incomplete" 1 sum.Obs.Span.incomplete;
  Alcotest.(check (float 1e-9)) "request total" 30. sum.Obs.Span.request_total_ns;
  Alcotest.(check (float 1e-9)) "fill total" 10. sum.Obs.Span.fill_total_ns

let test_span_hops () =
  let b = Obs.Buffer.create ~capacity:64 () in
  let add at ev = Obs.Buffer.add b ~at:(Sim.Time.ns at) ev in
  add 10
    (Obs.Event.Req_issue { tid = 1; node = 0; proc = 0; addr = 0x80; rw = Obs.Event.R });
  add 15 (Obs.Event.Mem_hop { requester = 0; ns = 80. });
  (* A hop whose arrival matches no response marker: charged to the
     protocol residual, not to the span's network phases. *)
  add 30
    (Obs.Event.Net_hop
       { dst = 0; src = 7; cls = "data"; queue_ns = 9.; flight_ns = 9.;
         arrive = Sim.Time.ns 30 });
  (* The satisfying copy: hop arrival and response marker coincide. *)
  add 40
    (Obs.Event.Net_hop
       { dst = 0; src = 3; cls = "data"; queue_ns = 5.; flight_ns = 12.;
         arrive = Sim.Time.ns 40 });
  add 40 (Obs.Event.Req_response { tid = 1; node = 0; src = 3 });
  add 50
    (Obs.Event.Req_retire
       { tid = 1; node = 0; proc = 0; addr = 0x80; rw = Obs.Event.R;
         fill = Obs.Event.Fill_memory; cause = Obs.Event.Cold; retries = 0;
         persistent = false });
  (* A retire with no matching issue: the ring wrapped past it. *)
  add 60
    (Obs.Event.Req_retire
       { tid = 9; node = 2; proc = 2; addr = 0x99; rw = Obs.Event.W;
         fill = Obs.Event.Fill_l2; cause = Obs.Event.Sharing_local; retries = 0;
         persistent = false });
  let spans, dropped = Obs.Span.assemble_full b in
  Alcotest.(check int) "dropped retire counted" 1 dropped;
  let s = List.hd spans in
  Alcotest.(check bool) "cause recorded" true (s.Obs.Span.cause = Some Obs.Event.Cold);
  Alcotest.(check (float 1e-9)) "mem hop" 80. s.Obs.Span.mem_ns;
  Alcotest.(check (float 1e-9)) "queue from matched hop" 5. s.Obs.Span.queue_ns;
  Alcotest.(check (float 1e-9)) "flight from matched hop" 12. s.Obs.Span.flight_ns;
  Alcotest.(check (option (float 1e-9))) "proto = total - mem - queue - flight"
    (Some (40. -. 80. -. 5. -. 12.))
    (Obs.Span.proto_ns s);
  let att, tail = Obs.Span.attribution spans in
  Alcotest.(check int) "one attributed span" 1 att.Obs.Span.att_spans;
  Alcotest.(check (float 1e-9)) "attribution sums to span total" 40.
    att.Obs.Span.att_total_ns;
  (match tail with
  | Some (threshold, t) ->
    Alcotest.(check (float 1e-9)) "tail threshold is the slowest span" 40. threshold;
    Alcotest.(check int) "tail has the one span" 1 t.Obs.Span.att_spans
  | None -> Alcotest.fail "expected a p99 tail");
  let sum = Obs.Span.summarize ~dropped_spans:dropped spans in
  Alcotest.(check int) "summary carries dropped spans" 1 sum.Obs.Span.dropped_spans

let test_sampler () =
  let engine = Sim.Engine.create () in
  let registry = Obs.Registry.create () in
  Obs.Registry.attach registry engine;
  let x = ref 0 in
  Obs.Registry.register_int registry "work.done" (fun () -> !x);
  Alcotest.check_raises "non-positive period rejected"
    (Invalid_argument "Obs.Sampler.create: period must be positive") (fun () ->
      ignore (Obs.Sampler.create engine registry ~period:Sim.Time.zero));
  let sampler = Obs.Sampler.create engine registry ~period:(Sim.Time.ns 10) in
  for i = 1 to 3 do
    Sim.Engine.schedule_in engine (Sim.Time.ns (i * 10)) (fun () -> x := i)
  done;
  (* The sampler re-arms forever; a run needs the runner's stop (or an
     explicit one) to retire the pending timer. *)
  Sim.Engine.schedule_in engine (Sim.Time.ns 35) (fun () -> Sim.Engine.stop engine);
  Sim.Engine.run engine;
  let samples = Obs.Sampler.samples sampler in
  Alcotest.(check bool) "several samples" true (List.length samples >= 3);
  let at0 = (List.hd samples).Obs.Sampler.at in
  Alcotest.(check bool) "samples at t=0 by default" true (at0 = Sim.Time.zero);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) "every gauge" [ "work.done" ]
        (List.map fst s.Obs.Sampler.values))
    samples;
  (* The series is monotone in time and tracks the gauge. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "time order" true (a.Obs.Sampler.at < b.Obs.Sampler.at);
      monotone rest
    | _ -> ()
  in
  monotone samples

let test_counter_tracks () =
  let b = Obs.Buffer.create ~capacity:8 () in
  Obs.Buffer.add b ~at:(Sim.Time.ns 1) (lookup 0 0x40 true);
  let samples =
    [
      { Obs.Sampler.at = Sim.Time.zero; values = [ ("m.x", 1.) ] };
      { Obs.Sampler.at = Sim.Time.ns 10; values = [ ("m.x", 3.) ] };
    ]
  in
  let json = Obs.Perfetto.export ~samples b in
  (match Obs.Perfetto.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "counter tracks must validate: %s" e);
  let counters =
    match J.member "traceEvents" json with
    | Some (J.List evs) ->
      List.filter
        (fun ev -> J.member "ph" ev = Some (J.String "C"))
        evs
    | _ -> []
  in
  Alcotest.(check int) "one C event per sample" 2 (List.length counters);
  List.iter
    (fun ev ->
      match J.member "args" ev with
      | Some args ->
        Alcotest.(check bool) "numeric value" true
          (match J.member "value" args with
          | Some (J.Float _) | Some (J.Int _) -> true
          | _ -> false)
      | None -> Alcotest.fail "C event without args")
    counters;
  (* A counter event without a numeric value must be rejected. *)
  let bad =
    J.Obj
      [
        ( "traceEvents",
          J.List
            [
              J.Obj
                [
                  ("name", J.String "m.x"); ("ph", J.String "C"); ("pid", J.Int 0);
                  ("tid", J.Int 0); ("ts", J.Float 0.);
                  ("args", J.Obj [ ("value", J.String "oops") ]);
                ];
            ] );
      ]
  in
  match Obs.Perfetto.validate bad with
  | Ok () -> Alcotest.fail "non-numeric counter value must be rejected"
  | Error _ -> ()

(* Recovery and outage events each render as one instant: on their
   node's track, on their link's track, or on track 0 for a token
   recreation. *)
let test_recovery_instants () =
  let open Obs.Event in
  let events =
    [
      (Retransmit { src = 1; dst = 2; cls = "request"; attempt = 1 }, `Node 1);
      (Retransmit_exhausted { src = 1; dst = 2; cls = "request"; attempts = 8 }, `Node 1);
      (Dup_absorbed { src = 1; dst = 2; cls = "request" }, `Node 2);
      (Epoch_bump { node = 3; addr = 0x40; epoch = 1 }, `Node 3);
      (Token_recreated { addr = 0x40; epoch = 1; tokens = 16 }, `Node 0);
      (Stale_discard { node = 4; addr = 0x40; epoch = 0 }, `Node 4);
      (Node_crash { node = 5 }, `Node 5);
      (Node_restart { node = 5 }, `Node 5);
      (Link_down { src_site = 0; dst_site = 1 }, `Link);
      ( Link_degraded { src_site = 0; dst_site = 1; latency_mult = 4.; drop_prob = 0.1 },
        `Link );
      (Link_healed { src_site = 0; dst_site = 1 }, `Link);
    ]
  in
  let b = Obs.Buffer.create ~capacity:16 () in
  List.iteri (fun i (ev, _) -> Obs.Buffer.add b ~at:(Sim.Time.ns (i + 1)) ev) events;
  let json = Obs.Perfetto.export b in
  (match Obs.Perfetto.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recovery instants must validate: %s" e);
  let instants =
    match J.member "traceEvents" json with
    | Some (J.List evs) -> List.filter (fun ev -> J.member "ph" ev = Some (J.String "i")) evs
    | _ -> []
  in
  Alcotest.(check int) "one instant per event" (List.length events) (List.length instants);
  let tid ev = match J.member "tid" ev with Some (J.Int t) -> t | _ -> -1 in
  let link_tids =
    List.concat
      (List.map2
         (fun (_, track) ev ->
           match track with
           | `Node n ->
             Alcotest.(check int) "on its node's track" n (tid ev);
             []
           | `Link -> [ tid ev ])
         events instants)
  in
  match link_tids with
  | t :: rest ->
    Alcotest.(check bool) "link events share the link's track" true
      (List.for_all (( = ) t) rest);
    Alcotest.(check bool) "the link's track is no node's" true
      (not (List.exists (fun (_, track) -> track = `Node t) events))
  | [] -> Alcotest.fail "no link instants"

let traced_run ?buffer ?registry () =
  let config = Mcmp.Config.tiny in
  let nprocs = Mcmp.Config.nprocs config in
  let wl = { (Workload.Locking.default ~nlocks:4) with Workload.Locking.acquires = 10 } in
  Mcmp.Runner.run ~config ?registry ?buffer
    (Token.Protocol.builder Token.Policy.dst1)
    ~programs:(Workload.Locking.programs wl ~seed:3 ~nprocs)
    ~seed:3

let test_tracing_noninvasive () =
  let plain = traced_run () in
  let buffer = Obs.Buffer.create ~capacity:1_000_000 () in
  let registry = Obs.Registry.create () in
  let traced = traced_run ~buffer ~registry () in
  Alcotest.(check bool) "events recorded" true (Obs.Buffer.recorded buffer > 0);
  Alcotest.(check bool) "runtime identical" true
    (plain.Mcmp.Runner.runtime = traced.Mcmp.Runner.runtime);
  Alcotest.(check int) "engine events identical" plain.Mcmp.Runner.events
    traced.Mcmp.Runner.events;
  Alcotest.(check int) "ops identical" plain.Mcmp.Runner.ops traced.Mcmp.Runner.ops;
  Alcotest.(check int) "misses identical"
    plain.Mcmp.Runner.counters.Mcmp.Counters.l1_misses
    traced.Mcmp.Runner.counters.Mcmp.Counters.l1_misses

let test_reconciliation_and_export () =
  let buffer = Obs.Buffer.create ~capacity:1_000_000 () in
  let registry = Obs.Registry.create () in
  let r = traced_run ~buffer ~registry () in
  Alcotest.(check int) "no ring wrap" 0 (Obs.Buffer.dropped buffer);
  let spans = Obs.Span.assemble buffer in
  let sum = Obs.Span.summarize spans in
  let w = r.Mcmp.Runner.counters.Mcmp.Counters.miss_latency in
  Alcotest.(check int) "span per miss" (Sim.Stat.Welford.count w) sum.Obs.Span.spans;
  let wtotal = float_of_int (Sim.Stat.Welford.count w) *. Sim.Stat.Welford.mean w in
  Alcotest.(check bool) "latency mass reconciles" true
    (Float.abs (sum.Obs.Span.total_ns -. wtotal) <= 1e-6 *. Float.max 1. wtotal);
  (* Miss classification: the per-cause decomposition is fed by the
     same funnel as the Welford, so it reconciles exactly. *)
  let c = r.Mcmp.Runner.counters in
  let class_count =
    List.fold_left
      (fun acc cause -> acc + Mcmp.Counters.cause_count c cause)
      0 Obs.Event.all_causes
  in
  Alcotest.(check int) "cause counts sum to misses" (Sim.Stat.Welford.count w)
    class_count;
  let class_mass =
    List.fold_left
      (fun acc cause ->
        acc + Sim.Stat.Histogram.total (Mcmp.Counters.cause_histogram c cause))
      0 Obs.Event.all_causes
  in
  Alcotest.(check int) "cause histogram mass equals overall histogram"
    (Sim.Stat.Histogram.total c.Mcmp.Counters.miss_histogram)
    class_mass;
  (* Every retired span carries the cause its retire was tagged with. *)
  List.iter
    (fun s ->
      if Obs.Span.completed s then
        Alcotest.(check bool) "completed span has a cause" true
          (s.Obs.Span.cause <> None))
    spans;
  (* Hop attribution sums to the span totals by construction. *)
  let att, _tail = Obs.Span.attribution spans in
  Alcotest.(check int) "attribution covers completed spans" sum.Obs.Span.spans
    att.Obs.Span.att_spans;
  Alcotest.(check bool) "attribution total equals span total" true
    (Float.abs (att.Obs.Span.att_total_ns -. sum.Obs.Span.total_ns)
    <= 1e-6 *. Float.max 1. sum.Obs.Span.total_ns);
  Alcotest.(check bool) "network phases attributed" true
    (att.Obs.Span.att_flight_ns > 0.);
  Alcotest.(check bool) "dram access attributed" true (att.Obs.Span.att_mem_ns > 0.);
  (* The fabric and the counters register their gauges. *)
  let gauges = Obs.Registry.gauges registry in
  Alcotest.(check bool) "fabric sampler registered" true
    (List.mem_assoc "fabric.port_busy_ns" gauges);
  Alcotest.(check (option (float 0.))) "counters registered"
    (Some (float_of_int (Sim.Stat.Welford.count w)))
    (List.assoc_opt "counters.l1_misses" gauges);
  (* Perfetto export validates, and round-trips through the parser. *)
  let json = Obs.Perfetto.export buffer in
  (match Obs.Perfetto.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  (match J.parse (J.to_string json) with
  | Ok round -> Alcotest.(check bool) "export round-trips" true (J.equal round json)
  | Error e -> Alcotest.failf "reparse: %s" e);
  match J.member "traceEvents" json with
  | Some (J.List evs) ->
    Alcotest.(check bool) "has events" true (List.length evs > 0)
  | _ -> Alcotest.fail "missing traceEvents"

let test_validate_rejects_overlap () =
  let slice ts dur =
    J.Obj
      [ ("name", J.String "x"); ("ph", J.String "X"); ("pid", J.Int 0);
        ("tid", J.Int 1); ("ts", J.Float ts); ("dur", J.Float dur) ]
  in
  let trace slices = J.Obj [ ("traceEvents", J.List slices) ] in
  (match Obs.Perfetto.validate (trace [ slice 0. 10.; slice 2. 5. ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "nested slices should validate: %s" e);
  match Obs.Perfetto.validate (trace [ slice 0. 10.; slice 5. 10. ]) with
  | Ok () -> Alcotest.fail "overlapping slices must be rejected"
  | Error _ -> ()

let tests =
  [
    Alcotest.test_case "buffer ring semantics" `Quick test_buffer_ring;
    Alcotest.test_case "buffer attach and emit" `Quick test_buffer_attach;
    Alcotest.test_case "registry gauges" `Quick test_registry;
    Alcotest.test_case "span assembly" `Quick test_span_assembly;
    Alcotest.test_case "span hop attribution and dropped retires" `Quick test_span_hops;
    Alcotest.test_case "periodic sampler" `Quick test_sampler;
    Alcotest.test_case "perfetto counter tracks" `Quick test_counter_tracks;
    Alcotest.test_case "perfetto recovery and outage instants" `Quick test_recovery_instants;
    Alcotest.test_case "tracing does not perturb the run" `Quick test_tracing_noninvasive;
    Alcotest.test_case "spans reconcile with welford; export validates" `Quick
      test_reconciliation_and_export;
    Alcotest.test_case "validator rejects overlapping slices" `Quick
      test_validate_rejects_overlap;
  ]
