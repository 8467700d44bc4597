type stop = Finished | Unfinished | Event_cap

type result = {
  seed : int;
  runtime : Sim.Time.t;
  total_runtime : Sim.Time.t;
  completed : bool;
  stop : stop;
  traffic : Interconnect.Traffic.t;
  counters : Counters.t;
  events : int;
  ops : int;
}

let run ?(config = Config.default) ?registry ?buffer ?on_start builder ~programs ~seed =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run: " ^ msg));
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let rng = Sim.Rng.create (seed + 7_919) in
  let counters = Counters.create () in
  (* Observability hooks go in before the builder runs so the fabric
     (and anything else built inside) can discover them. *)
  Option.iter (fun b -> Obs.Buffer.attach b engine) buffer;
  Option.iter
    (fun r ->
      Obs.Registry.attach r engine;
      Counters.register r counters;
      Interconnect.Traffic.register r traffic)
    registry;
  let protocol = builder engine config traffic rng counters in
  let values = Values.create () in
  let nprocs = Config.nprocs config in
  let remaining = ref nprocs in
  let finish_time = ref Sim.Time.zero in
  let on_done ~proc:_ =
    remaining := !remaining - 1;
    if !remaining = 0 then begin
      finish_time := Sim.Engine.now engine;
      Sim.Engine.stop engine
    end
  in
  let cores =
    List.init nprocs (fun proc ->
        Core.create engine values protocol counters ~proc ~program:(programs ~proc) ~on_done)
  in
  Option.iter (fun f -> f engine ~running:(fun () -> !remaining > 0)) on_start;
  List.iter Core.start cores;
  let max_events = config.Config.max_events in
  (* The engine's event cap is the one [Failure] that becomes a value;
     any other exception out of a handler is a bug and propagates. *)
  let capped =
    match Sim.Engine.run ~max_events engine with
    | () -> false
    | exception (Failure _ as e) ->
      if Sim.Engine.events_processed engine > max_events then true else raise e
  in
  let completed = !remaining = 0 in
  let finish = if completed then !finish_time else Sim.Engine.now engine in
  (* Measured runtime starts once every processor passed its warmup
     mark (if all programs emit one). *)
  let marks = List.map Core.mark_time cores in
  let measured_start =
    if List.for_all (fun m -> m <> None) marks then
      List.fold_left (fun acc m -> match m with Some v -> max acc v | None -> acc) 0 marks
    else 0
  in
  {
    seed;
    runtime = max 0 (finish - measured_start);
    total_runtime = finish;
    completed;
    stop = (if completed then Finished else if capped then Event_cap else Unfinished);
    traffic;
    counters;
    events = Sim.Engine.events_processed engine;
    ops = Counters.ops counters;
  }

let uncapped r =
  match r.stop with
  | Event_cap ->
    failwith
      (Printf.sprintf "Runner.run: seed %d stopped at the event cap after %d events" r.seed
         r.events)
  | Finished | Unfinished -> r
