module E = Sim.Engine
module F = Interconnect.Fabric
module L = Interconnect.Layout

let retrans_timeout = Rtt.floor
let max_retrans = 10
let retrans_jitter = Sim.Time.ns 50

type t = {
  est : Rtt.t array option;  (* per ordered site pair, when adaptive *)
  mutable retransmits : int;
  mutable absorbed : int;
  mutable exhausted : int;
}

let retransmits t = t.retransmits
let absorbed_duplicates t = t.absorbed
let exhausted t = t.exhausted

let max_rto t =
  match t.est with
  | Some est -> Array.fold_left (fun acc e -> max acc (Rtt.rto e)) 0 est
  | None -> retrans_timeout

let emit engine ev = if E.tracing engine then E.emit engine ev

let wrap ~adaptive ~rng ~give_up fabric inner =
  let engine = F.engine fabric and layout = F.layout fabric in
  let ncmp = layout.L.ncmp in
  let est = if adaptive then Some (Array.init (ncmp * ncmp) (fun _ -> Rtt.create ())) else None in
  let t = { est; retransmits = 0; absorbed = 0; exhausted = 0 } in
  let link ~src ~dst = (L.cmp_of layout src * ncmp) + L.cmp_of layout dst in
  (* A delivery [latency] after its offer feeds its link's estimator. *)
  let observe ~src ~dst latency =
    match est with Some est -> Rtt.observe est.(link ~src ~dst) latency | None -> ()
  in
  (* The wait before retransmission [n]. Its base is the fixed
     timeout, or the link's current RTO; the jitter is drawn either
     way, from a stream of its own, so it never perturbs the fault
     plan's or the fabric's draws. *)
  let backoff ~src ~dst n =
    let base = match est with Some est -> Rtt.rto est.(link ~src ~dst) | None -> retrans_timeout in
    (base * (1 lsl (n - 1))) + Sim.Rng.int rng (retrans_jitter + 1)
  in
  (* The attempt number of the offer in progress: a retransmission sets
     it just before it re-offers its frame, and each offer takes it
     back to 1, so a fresh copy is attempt 1. *)
  let attempt = ref 1 in
  let inject ~now ~src ~dst ~cls ~arrive msg =
    let n = !attempt in
    attempt := 1;
    let cls_name () = Interconnect.Msg_class.to_string cls in
    match inner ~now ~src ~dst ~cls ~arrive msg with
    | F.Pass ->
      observe ~src ~dst (arrive - now);
      F.Pass
    | F.Delay extra as v ->
      observe ~src ~dst (arrive + extra - now);
      v
    | F.Duplicate _ ->
      (* The fabric applies only the [Pass], so the duplicate's own
         fault event is emitted here. *)
      t.absorbed <- t.absorbed + 1;
      emit engine (Obs.Event.Fault_action { src; dst; cls = cls_name (); action = "duplicate" });
      emit engine (Obs.Event.Dup_absorbed { src; dst; cls = cls_name () });
      observe ~src ~dst (arrive - now);
      F.Pass
    | F.Drop ->
      if n > max_retrans then begin
        t.exhausted <- t.exhausted + 1;
        emit engine (Obs.Event.Retransmit_exhausted { src; dst; cls = cls_name (); attempts = n });
        give_up ~src ~dst ~cls ~attempts:n msg
      end
      else begin
        t.retransmits <- t.retransmits + 1;
        emit engine (Obs.Event.Retransmit { src; dst; cls = cls_name (); attempt = n });
        let flight = max 0 (arrive - now) in
        E.schedule_at engine (arrive + backoff ~src ~dst n) (fun () ->
            attempt := n + 1;
            F.offer fabric ~src ~dst ~cls ~arrive:(E.now engine + flight) msg)
      end;
      F.Drop
  in
  (match Obs.Registry.of_engine engine with
  | Some registry ->
    let module R = Obs.Registry in
    R.register_int registry "fabric.retransmits" (fun () -> t.retransmits);
    R.register_int registry "fabric.dups_absorbed" (fun () -> t.absorbed);
    R.register_int registry "fabric.retrans_exhausted" (fun () -> t.exhausted);
    Option.iter
      (fun est ->
        R.register_float registry "fabric.rto_max_ns" (fun () -> Sim.Time.to_ns (max_rto t));
        R.register_int registry "fabric.rtt_samples" (fun () ->
            Array.fold_left (fun acc e -> acc + Rtt.samples e) 0 est))
      est
  | None -> ());
  (t, inject)
