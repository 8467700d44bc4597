type t = {
  tid : int;
  node : int;
  proc : int;
  addr : int;
  rw : Event.rw;
  issued : Sim.Time.t;
  mutable first_response : Sim.Time.t option;
  mutable retired : Sim.Time.t option;
  mutable reissues : int;
  mutable fill : Event.fill option;
  mutable cause : Event.cause option;
  mutable persistent : bool;
  mutable retries : int;
  mutable mem_ns : float;
  mutable queue_ns : float;
  mutable flight_ns : float;
}

let completed s = s.retired <> None

let total_ns s =
  match s.retired with
  | Some at -> Some (Sim.Time.to_ns (at - s.issued))
  | None -> None

(* Request phase: issue until the first response reaches the requester.
   Spans with no observed response (e.g. protocols that fill without a
   fabric response event) attribute everything to the request phase. *)
let request_ns s =
  match (s.first_response, s.retired) with
  | Some at, _ -> Some (Sim.Time.to_ns (at - s.issued))
  | None, Some at -> Some (Sim.Time.to_ns (at - s.issued))
  | None, None -> None

let fill_ns s =
  match (s.first_response, s.retired) with
  | Some resp, Some retire -> Some (Sim.Time.to_ns (retire - resp))
  | None, Some _ -> Some 0.
  | _ -> None

(* Protocol occupancy is the residual after the measured hops, so the
   four-way attribution sums to the span total exactly by construction.
   Copies whose delivery was perturbed after send (fault retransmits,
   outage reroutes) never match a hop record and land here too — the
   honest reading is "time the fabric model cannot itself explain". *)
let proto_ns s =
  match total_ns s with
  | Some total -> Some (total -. s.mem_ns -. s.queue_ns -. s.flight_ns)
  | None -> None

let assemble_full buf =
  let by_tid : (int, t) Hashtbl.t = Hashtbl.create 1024 in
  (* node -> its open span: one MSHR per L1 means at most one. *)
  let by_node : (int, t) Hashtbl.t = Hashtbl.create 64 in
  (* (dst, arrival time) -> fabric timing of the copy delivered then;
     a response event at exactly that (node, time) claims it. *)
  let hops : (int * Sim.Time.t, float * float) Hashtbl.t = Hashtbl.create 4096 in
  let order = ref [] in
  let dropped = ref 0 in
  Buffer.iter buf (fun ~at ev ->
      match ev with
      | Event.Req_issue e ->
        let s =
          { tid = e.tid; node = e.node; proc = e.proc; addr = e.addr; rw = e.rw;
            issued = at; first_response = None; retired = None; reissues = 0;
            fill = None; cause = None; persistent = false; retries = 0;
            mem_ns = 0.; queue_ns = 0.; flight_ns = 0. }
        in
        Hashtbl.replace by_tid e.tid s;
        Hashtbl.replace by_node e.node s;
        order := s :: !order
      | Event.Net_hop e -> Hashtbl.replace hops (e.dst, e.arrive) (e.queue_ns, e.flight_ns)
      | Event.Mem_hop e -> (
        match Hashtbl.find_opt by_node e.requester with
        | Some s when s.retired = None -> s.mem_ns <- s.mem_ns +. e.ns
        | _ -> ())
      | Event.Req_response e -> (
        match Hashtbl.find_opt by_tid e.tid with
        | Some s when s.retired = None ->
          if s.first_response = None then s.first_response <- Some at;
          (* The last response before retire carried what completed the
             miss; its fabric timing is the span's network attribution. *)
          (match Hashtbl.find_opt hops (s.node, at) with
          | Some (queue, flight) ->
            s.queue_ns <- queue;
            s.flight_ns <- flight
          | None -> ())
        | _ -> ())
      | Event.Req_reissue e -> (
        match Hashtbl.find_opt by_tid e.tid with
        | Some s when s.retired = None -> s.reissues <- s.reissues + 1
        | _ -> ())
      | Event.Req_retire e -> (
        match Hashtbl.find_opt by_tid e.tid with
        | Some s when s.retired = None ->
          s.retired <- Some at;
          s.fill <- Some e.fill;
          s.cause <- Some e.cause;
          s.retries <- e.retries;
          s.persistent <- e.persistent;
          Hashtbl.remove by_node s.node
        | Some _ | None ->
          (* The matching issue fell off the ring (or was never seen):
             this latency sample exists in the Welford but not in any
             span. Count it so reconciliation can say so. *)
          incr dropped)
      | _ -> ());
  (List.rev !order, !dropped)

let assemble buf = fst (assemble_full buf)

type summary = {
  spans : int;  (** completed spans *)
  incomplete : int;
  dropped_spans : int;
  request_total_ns : float;
  fill_total_ns : float;
  total_ns : float;
}

let summarize ?(dropped_spans = 0) spans =
  let s =
    List.fold_left
      (fun acc sp ->
        if completed sp then
          { acc with
            spans = acc.spans + 1;
            request_total_ns =
              acc.request_total_ns +. Option.value ~default:0. (request_ns sp);
            fill_total_ns = acc.fill_total_ns +. Option.value ~default:0. (fill_ns sp);
            total_ns = acc.total_ns +. Option.value ~default:0. (total_ns sp) }
        else { acc with incomplete = acc.incomplete + 1 })
      { spans = 0; incomplete = 0; dropped_spans; request_total_ns = 0.;
        fill_total_ns = 0.; total_ns = 0. }
      spans
  in
  s

type attribution = {
  att_spans : int;
  att_mem_ns : float;
  att_queue_ns : float;
  att_flight_ns : float;
  att_proto_ns : float;
  att_total_ns : float;
}

let attribution_of spans =
  List.fold_left
    (fun acc sp ->
      match total_ns sp with
      | None -> acc
      | Some total ->
        { att_spans = acc.att_spans + 1;
          att_mem_ns = acc.att_mem_ns +. sp.mem_ns;
          att_queue_ns = acc.att_queue_ns +. sp.queue_ns;
          att_flight_ns = acc.att_flight_ns +. sp.flight_ns;
          att_proto_ns = acc.att_proto_ns +. Option.value ~default:0. (proto_ns sp);
          att_total_ns = acc.att_total_ns +. total })
    { att_spans = 0; att_mem_ns = 0.; att_queue_ns = 0.; att_flight_ns = 0.;
      att_proto_ns = 0.; att_total_ns = 0. }
    spans

(* Tail attribution: the slowest 1% of completed spans (at least one
   when any completed), where contention effects concentrate. *)
let p99_threshold spans =
  let totals =
    List.filter_map total_ns spans |> List.sort (fun a b -> compare b a) |> Array.of_list
  in
  let n = Array.length totals in
  if n = 0 then None
  else begin
    let tail = max 1 (n / 100) in
    Some totals.(tail - 1)
  end

let attribution spans =
  let completed_spans = List.filter completed spans in
  let overall = attribution_of completed_spans in
  match p99_threshold completed_spans with
  | None -> (overall, None)
  | Some thr ->
    let tail =
      List.filter
        (fun sp -> match total_ns sp with Some t -> t >= thr | None -> false)
        completed_spans
    in
    (overall, Some (thr, attribution_of tail))
