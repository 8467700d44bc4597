type t = {
  engine : Sim.Engine.t;
  probe : Mcmp.Probe.t;
  plan : Plan.t;
  interval : Sim.Time.t;
  running : unit -> bool;
  report : Report.t -> unit;
  mutable drops_seen : int;
}

(* An invariant violation is blamed on the most recent destructive
   plan event: the only faults the protocol is not expected to absorb
   are token drops (without recovery) and token-minting duplicates, so
   when the periodic check trips, the last such injection is the
   forensic cause. *)
let emit_violations t vs =
  let blame = Plan.last_destructive t.plan in
  List.iter
    (fun v ->
      t.report
        { Report.at = Sim.Engine.now t.engine;
          kind = Report.Invariant { violation = v; blame } })
    vs

(* Unrecoverable injected drops surface as reports exactly once each.
   The plan's counter says whether any are new, so a quiet tick never
   scans the log. *)
let emit_new_drops t =
  let n = (Plan.stats t.plan).Plan.drops_unrecoverable in
  if n > t.drops_seen then begin
    List.iteri
      (fun i e ->
        if i >= t.drops_seen then
          t.report { Report.at = e.Plan.ev_time; kind = Report.Unrecoverable_drop e })
      (Plan.unrecoverable_drops t.plan);
    t.drops_seen <- n
  end

let check t =
  emit_violations t (t.probe.Mcmp.Probe.check ());
  emit_new_drops t

let rec tick t =
  if t.running () then begin
    check t;
    Sim.Engine.schedule_in t.engine t.interval (fun () -> tick t)
  end

let attach engine ~probe ~plan ~interval ~running ~report =
  let t =
    { engine; probe; plan; interval; running; report; drops_seen = 0 }
  in
  Sim.Engine.schedule_in engine interval (fun () -> tick t);
  t
