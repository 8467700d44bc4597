module J = Tcjson

(* Chrome trace-event JSON ("JSON Object Format"), loadable in Perfetto
   and chrome://tracing. Timestamps are microseconds; simulated time is
   picoseconds, so ts = ps / 1e6. One pid for the whole machine, one
   tid (track) per node, plus synthetic tracks for fabric links. *)

let us_of_time t = Sim.Time.to_us t

let ev ?(args = []) ~name ~ph ~tid ~ts extra =
  J.Obj
    (("name", J.String name) :: ("ph", J.String ph) :: ("pid", J.Int 0)
     :: ("tid", J.Int tid) :: ("ts", J.Float ts)
     :: (extra @ if args = [] then [] else [ ("args", J.Obj args) ]))

let complete ?args ~name ~tid ~ts ~dur () = ev ?args ~name ~ph:"X" ~tid ~ts [ ("dur", J.Float dur) ]
let instant ?args ~name ~tid ~ts () = ev ?args ~name ~ph:"i" ~tid ~ts [ ("s", J.String "t") ]

let metadata ~name ~tid value =
  J.Obj
    [ ("name", J.String name); ("ph", J.String "M"); ("pid", J.Int 0);
      ("tid", J.Int tid); ("args", J.Obj [ ("name", J.String value) ]) ]

(* Links get tracks above any plausible node id. *)
let link_tid_base = 100_000

(* Counter events ("C") render as one named counter track per metric;
   the value rides in args. *)
let counter ~name ~ts v =
  J.Obj
    [ ("name", J.String name); ("ph", J.String "C"); ("pid", J.Int 0);
      ("tid", J.Int 0); ("ts", J.Float ts);
      ("args", J.Obj [ ("value", J.Float v) ]) ]

let export ?(process_name = "tokencmp") ?(marks = []) ?(samples = []) buf =
  let events = ref [] in
  let push e = events := e :: !events in
  let nodes = Hashtbl.create 64 in
  let see_node id = if not (Hashtbl.mem nodes id) then Hashtbl.add nodes id () in
  let links = Hashtbl.create 16 in
  let link_tid src dst =
    match Hashtbl.find_opt links (src, dst) with
    | Some tid -> tid
    | None ->
      let tid = link_tid_base + Hashtbl.length links in
      Hashtbl.add links (src, dst) tid;
      tid
  in
  let node_instant ?args ~name node ts =
    see_node node;
    push (instant ?args ~name ~tid:node ~ts ())
  in
  let link_instant ?args ~name src dst ts =
    push (instant ?args ~name ~tid:(link_tid src dst) ~ts ())
  in
  let addr a = J.String (Printf.sprintf "%#x" a) in
  (* Spans first: one "miss" slice per transaction on the requesting
     node's track, with "request"/"fill" phase slices nested inside. *)
  let spans = Span.assemble buf in
  List.iter
    (fun s ->
      see_node s.Span.node;
      match s.Span.retired with
      | None -> ()
      | Some retired ->
        let ts = us_of_time s.Span.issued in
        let dur = us_of_time retired -. ts in
        let args =
          [ ("tid", J.Int s.Span.tid); ("addr", addr s.Span.addr);
            ("rw", J.String (Event.rw_to_string s.Span.rw));
            ("fill", J.String (match s.Span.fill with
               | Some f -> Event.fill_to_string f
               | None -> "?"));
            ("cause", J.String (match s.Span.cause with
               | Some c -> Event.cause_to_string c
               | None -> "?"));
            ("retries", J.Int s.Span.retries);
            ("persistent", J.Bool s.Span.persistent) ]
        in
        push (complete ~args ~name:(Printf.sprintf "miss %#x" s.Span.addr)
                ~tid:s.Span.node ~ts ~dur ());
        let split =
          match s.Span.first_response with Some r -> us_of_time r | None -> ts +. dur
        in
        push (complete ~name:"request" ~tid:s.Span.node ~ts ~dur:(split -. ts) ());
        push (complete ~name:"fill" ~tid:s.Span.node ~ts:split ~dur:(ts +. dur -. split) ()))
    spans;
  (* Then raw events: link occupancy slices and instants. *)
  Buffer.iter buf (fun ~at e ->
      let ts = us_of_time at in
      match e with
      | Event.Link_xfer x ->
        let tid = link_tid x.src_site x.dst_site in
        let ts = us_of_time x.start in
        let dur = us_of_time x.finish -. ts in
        push
          (complete
             ~args:[ ("cls", J.String x.cls); ("bytes", J.Int x.bytes) ]
             ~name:x.cls ~tid ~ts ~dur ())
      | Event.Msg_send m ->
        node_instant
          ~args:[ ("dst", J.Int m.dst); ("cls", J.String m.cls); ("bytes", J.Int m.bytes);
                  ("label", J.String m.label) ]
          ~name:(Printf.sprintf "send [%s]" m.cls) m.src ts
      | Event.Msg_deliver m ->
        node_instant
          ~args:[ ("src", J.Int m.src); ("cls", J.String m.cls); ("label", J.String m.label) ]
          ~name:(Printf.sprintf "deliver [%s]" m.cls) m.dst ts
      | Event.Fault_action f ->
        node_instant ~args:[ ("src", J.Int f.src); ("cls", J.String f.cls) ]
          ~name:(Printf.sprintf "fault:%s" f.action) f.dst ts
      | Event.Req_reissue r ->
        node_instant ~args:[ ("tid", J.Int r.tid); ("retry", J.Int r.retry) ] ~name:"reissue"
          r.node ts
      | Event.Dir_indirection d ->
        node_instant ~args:[ ("addr", addr d.addr); ("write", J.Bool d.write) ]
          ~name:"3-hop indirection" d.node ts
      | Event.Persistent p ->
        node_instant ~args:[ ("proc", J.Int p.proc); ("addr", addr p.addr) ]
          ~name:(Printf.sprintf "persistent:%s" p.action) p.node ts
      | Event.Fsm f ->
        node_instant ~args:[ ("addr", addr f.addr) ]
          ~name:(Printf.sprintf "%s %s>%s" f.fsm f.from_state f.to_state) f.node ts
      | Event.Lookup l ->
        node_instant ~args:[ ("addr", addr l.addr) ]
          ~name:
            (Printf.sprintf "%s %s" (Event.level_to_string l.level)
               (if l.hit then "hit" else "miss"))
          l.node ts
      (* Recovery and outage events: the evidence a failed recovery
         or chaos run is judged by. *)
      | Event.Retransmit r ->
        node_instant
          ~args:[ ("dst", J.Int r.dst); ("cls", J.String r.cls); ("attempt", J.Int r.attempt) ]
          ~name:(Printf.sprintf "retransmit [%s]" r.cls) r.src ts
      | Event.Retransmit_exhausted r ->
        node_instant
          ~args:[ ("dst", J.Int r.dst); ("cls", J.String r.cls); ("attempts", J.Int r.attempts) ]
          ~name:(Printf.sprintf "retransmit-exhausted [%s]" r.cls) r.src ts
      | Event.Dup_absorbed d ->
        node_instant ~args:[ ("src", J.Int d.src); ("cls", J.String d.cls) ]
          ~name:(Printf.sprintf "dup-absorbed [%s]" d.cls) d.dst ts
      | Event.Epoch_bump b ->
        node_instant ~args:[ ("addr", addr b.addr); ("epoch", J.Int b.epoch) ]
          ~name:"epoch-bump" b.node ts
      | Event.Token_recreated r ->
        push
          (instant
             ~args:[ ("addr", addr r.addr); ("epoch", J.Int r.epoch); ("tokens", J.Int r.tokens) ]
             ~name:"token-recreated" ~tid:0 ~ts ())
      | Event.Stale_discard d ->
        node_instant ~args:[ ("addr", addr d.addr); ("epoch", J.Int d.epoch) ]
          ~name:"stale-discard" d.node ts
      | Event.Node_crash c -> node_instant ~name:"node-crash" c.node ts
      | Event.Node_restart r -> node_instant ~name:"node-restart" r.node ts
      | Event.Link_down l -> link_instant ~name:"link-down" l.src_site l.dst_site ts
      | Event.Link_degraded l ->
        link_instant
          ~args:[ ("latency_mult", J.Float l.latency_mult); ("drop_prob", J.Float l.drop_prob) ]
          ~name:"link-degraded" l.src_site l.dst_site ts
      | Event.Link_healed l -> link_instant ~name:"link-healed" l.src_site l.dst_site ts
      | _ -> ());
  List.iter
    (fun (at, text) ->
      push (instant ~name:text ~tid:0 ~ts:(us_of_time at) ()))
    marks;
  (* Counter tracks: one per sampled gauge, points at sample times. *)
  List.iter
    (fun s ->
      let ts = us_of_time s.Sampler.at in
      List.iter (fun (name, v) -> push (counter ~name ~ts v)) s.Sampler.values)
    samples;
  (* Metadata last in construction, first in output. *)
  let meta =
    J.Obj
      [ ("name", J.String "process_name"); ("ph", J.String "M"); ("pid", J.Int 0);
        ("args", J.Obj [ ("name", J.String process_name) ]) ]
    ::
    (Hashtbl.fold (fun id () acc -> id :: acc) nodes []
    |> List.sort compare
    |> List.map (fun id -> metadata ~name:"thread_name" ~tid:id (Printf.sprintf "node%d" id)))
    @ (Hashtbl.fold (fun (s, d) tid acc -> (tid, s, d) :: acc) links []
      |> List.sort compare
      |> List.map (fun (tid, s, d) ->
             metadata ~name:"thread_name" ~tid (Printf.sprintf "link %d->%d" s d)))
  in
  J.Obj
    [ ("traceEvents", J.List (meta @ List.rev !events));
      ("displayTimeUnit", J.String "ns") ]

(* --- validation ---------------------------------------------------- *)

let field name json = J.member name json

let validate json =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match field "traceEvents" json with
  | None -> Error "missing traceEvents"
  | Some events -> (
    match J.to_list_opt events with
    | None -> Error "traceEvents is not a list"
    | Some events -> (
      (* Collect X slices per track; check field shapes as we go. *)
      let tracks : (int * int, (float * float) list ref) Hashtbl.t = Hashtbl.create 64 in
      let num = function
        | Some (J.Float f) -> Some f
        | Some (J.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let check_one i e =
        match (field "name" e, field "ph" e) with
        | Some (J.String _), Some (J.String "M") -> Ok ()
        | Some (J.String _), Some (J.String "C") -> begin
          (* Counter points: coordinates plus a numeric value in args. *)
          match (num (field "pid" e), num (field "tid" e), num (field "ts" e)) with
          | Some _, Some _, Some _ -> (
            match field "args" e with
            | Some args when (match num (field "value" args) with Some _ -> true | None -> false)
              -> Ok ()
            | _ -> err "event %d: C without numeric args.value" i)
          | _ -> err "event %d: missing pid/tid/ts" i
        end
        | Some (J.String _), Some (J.String (("i" | "X") as ph)) -> begin
          match (num (field "pid" e), num (field "tid" e), num (field "ts" e)) with
          | Some pid, Some tid, Some ts ->
            if ph = "X" then begin
              match num (field "dur" e) with
              | Some dur when dur >= 0. ->
                let key = (int_of_float pid, int_of_float tid) in
                let slices =
                  match Hashtbl.find_opt tracks key with
                  | Some r -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.add tracks key r;
                    r
                in
                slices := (ts, dur) :: !slices;
                Ok ()
              | _ -> err "event %d: X without non-negative dur" i
            end
            else Ok ()
          | _ -> err "event %d: missing pid/tid/ts" i
        end
        | Some (J.String _), Some (J.String ph) -> err "event %d: unknown ph %S" i ph
        | _ -> err "event %d: missing name/ph" i
      in
      let rec check_all i = function
        | [] -> Ok ()
        | e :: rest -> (
          match check_one i e with Ok () -> check_all (i + 1) rest | Error _ as r -> r)
      in
      match check_all 0 events with
      | Error _ as r -> r
      | Ok () ->
        (* Per-track nesting: slices sorted by (start, -dur) must form a
           stack — each next slice either starts after the innermost
           open slice ends, or lies entirely inside it. *)
        let eps = 1e-9 in
        let check_track (pid, tid) slices acc =
          match acc with
          | Error _ -> acc
          | Ok () ->
            let sorted =
              List.sort
                (fun (s1, d1) (s2, d2) ->
                  if s1 <> s2 then compare s1 s2 else compare d2 d1)
                !slices
            in
            let rec go stack = function
              | [] -> Ok ()
              | (s, d) :: rest -> (
                let e = s +. d in
                let stack =
                  let rec popped = function
                    | top :: more when top <= s +. eps -> popped more
                    | st -> st
                  in
                  popped stack
                in
                match stack with
                | top :: _ when e > top +. eps ->
                  err "track (%d,%d): slice [%g,%g] overlaps enclosing slice ending %g"
                    pid tid s e top
                | _ -> go (e :: stack) rest)
            in
            go [] sorted
        in
        Hashtbl.fold check_track tracks (Ok ())))
