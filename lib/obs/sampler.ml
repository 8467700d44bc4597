(* Periodic time-series sampler: a self-rearming engine timer that
   reads the registry's gauges every [period]. Only armed when
   explicitly created, so default runs never see its events; the
   runner stops the engine when all processors finish, which also
   retires the pending timer — a sampler cannot keep a run alive. *)

type sample = { at : Sim.Time.t; values : (string * float) list }

type t = {
  engine : Sim.Engine.t;
  registry : Registry.t;
  period : Sim.Time.t;
  mutable samples : sample list;  (* newest first *)
}

let take t =
  t.samples <- { at = Sim.Engine.now t.engine; values = Registry.gauges t.registry } :: t.samples

let rec arm t =
  ignore
    (Sim.Engine.timer_in t.engine t.period (fun () ->
         take t;
         arm t))

let create engine registry ~period =
  if Sim.Time.to_ns period <= 0. then invalid_arg "Obs.Sampler.create: period must be positive";
  let t = { engine; registry; period; samples = [] } in
  take t;
  arm t;
  t

let samples t = List.rev t.samples
