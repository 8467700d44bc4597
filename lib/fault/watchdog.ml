type t = {
  engine : Sim.Engine.t;
  probe : Mcmp.Probe.t;
  counters : Mcmp.Counters.t;
  interval : Sim.Time.t;
  no_progress_windows : int;
  starvation_bound : Sim.Time.t;
  running : unit -> bool;
  report : Report.t -> unit;
  on_stall : unit -> unit;
  mutable last_ops : int;
  mutable stalled_windows : int;
  mutable retries_at_stall : int;  (* counter value when progress last ceased *)
  mutable fired : bool;
  starving : (int * Cache.Addr.t * Sim.Time.t, unit) Hashtbl.t;  (* already reported *)
}

let retired c =
  c.Mcmp.Counters.loads + c.Mcmp.Counters.stores + c.Mcmp.Counters.atomics
  + c.Mcmp.Counters.ifetches

let retries c =
  c.Mcmp.Counters.transient_retries + c.Mcmp.Counters.persistent_requests

let check_starvation t =
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun (o : Mcmp.Probe.outstanding) ->
      let key = (o.o_node, o.o_addr, o.o_issued) in
      if now - o.o_issued > t.starvation_bound && not (Hashtbl.mem t.starving key) then begin
        Hashtbl.add t.starving key ();
        t.report { Report.at = now; kind = Report.Starvation o }
      end)
    (t.probe.Mcmp.Probe.outstanding ())

let check_progress t =
  let ops = retired t.counters in
  if ops > t.last_ops then begin
    t.last_ops <- ops;
    t.stalled_windows <- 0
  end
  else begin
    if t.stalled_windows = 0 then t.retries_at_stall <- retries t.counters;
    t.stalled_windows <- t.stalled_windows + 1;
    if t.stalled_windows >= t.no_progress_windows && not t.fired then begin
      t.fired <- true;
      let mode =
        if retries t.counters > t.retries_at_stall then `Livelock else `Deadlock
      in
      t.report
        {
          Report.at = Sim.Engine.now t.engine;
          kind = Report.No_progress { window = t.interval * t.stalled_windows; mode };
        };
      (* Deadlock or livelock is established; nothing left to learn. *)
      t.on_stall ()
    end
  end

let rec tick t =
  if t.running () then begin
    check_progress t;
    check_starvation t;
    if not t.fired then Sim.Engine.schedule_in t.engine t.interval (fun () -> tick t)
  end

let attach engine ~probe ~counters ~interval ~no_progress_windows ~starvation_bound ~running
    ~report ~on_stall =
  let t =
    {
      engine;
      probe;
      counters;
      interval;
      no_progress_windows;
      starvation_bound;
      running;
      report;
      on_stall;
      last_ops = retired counters;
      stalled_windows = 0;
      retries_at_stall = 0;
      fired = false;
      starving = Hashtbl.create 8;
    }
  in
  Sim.Engine.schedule_in engine interval (fun () -> tick t)
