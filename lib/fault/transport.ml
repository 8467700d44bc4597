module E = Sim.Engine
module F = Interconnect.Fabric

let retrans_timeout = Sim.Time.ns 300
let max_retrans = 10
let retrans_jitter = Sim.Time.ns 50

type t = {
  mutable retransmits : int;
  mutable absorbed : int;
  mutable exhausted : int;
}

let retransmits t = t.retransmits
let absorbed_duplicates t = t.absorbed
let exhausted t = t.exhausted

let emit engine ev = if E.tracing engine then E.emit engine ev

let wrap ~rng ~give_up fabric inner =
  let engine = F.engine fabric in
  let t = { retransmits = 0; absorbed = 0; exhausted = 0 } in
  (* The wait before retransmission [n]. The jitter comes from a
     stream of its own, so it never perturbs the fault plan's or the
     fabric's draws. *)
  let backoff n = (retrans_timeout * (1 lsl (n - 1))) + Sim.Rng.int rng (retrans_jitter + 1) in
  (* The attempt number of the offer in progress: a retransmission sets
     it just before it re-offers its frame, and each offer takes it
     back to 1, so a fresh copy is attempt 1. *)
  let attempt = ref 1 in
  let inject ~now ~src ~dst ~cls ~arrive msg =
    let n = !attempt in
    attempt := 1;
    let cls_name () = Interconnect.Msg_class.to_string cls in
    match inner ~now ~src ~dst ~cls ~arrive msg with
    | (F.Pass | F.Delay _) as v -> v
    | F.Duplicate _ ->
      (* The fabric applies only the [Pass], so the duplicate's own
         fault event is emitted here. *)
      t.absorbed <- t.absorbed + 1;
      emit engine (Obs.Event.Fault_action { src; dst; cls = cls_name (); action = "duplicate" });
      emit engine (Obs.Event.Dup_absorbed { src; dst; cls = cls_name () });
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
        E.schedule_at engine (arrive + backoff n) (fun () ->
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
    R.register_int registry "fabric.retrans_exhausted" (fun () -> t.exhausted)
  | None -> ());
  (t, inject)
