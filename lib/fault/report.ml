type kind =
  | Invariant of { violation : Mcmp.Violation.t; blame : Plan.event option }
  | Unrecoverable_drop of Plan.event
  | No_progress of { window : Sim.Time.t; mode : [ `Deadlock | `Livelock ] }
  | Starvation of Mcmp.Probe.outstanding
  | Retransmit_exhausted of {
      src : int;
      dst : int;
      cls : Interconnect.Msg_class.t;
      attempts : int;
      blame : Plan.event option;
    }

type t = { at : Sim.Time.t; kind : kind }

let blame r =
  match r.kind with
  | Invariant { blame; _ } | Retransmit_exhausted { blame; _ } -> blame
  | Unrecoverable_drop _ | No_progress _ | Starvation _ -> None

let severity r =
  match r.kind with
  | Invariant _ -> `Fatal
  | Unrecoverable_drop _ -> `Expected
  | No_progress _ -> `Fatal
  | Starvation _ -> `Fatal
  | Retransmit_exhausted _ -> `Fatal

let pp_blame fmt = function
  | None -> ()
  | Some e ->
    Format.fprintf fmt " (blame: plan event #%d at %a)" e.Plan.ev_index Sim.Time.pp e.Plan.ev_time

let pp fmt r =
  match r.kind with
  | Invariant { violation; blame } ->
    Format.fprintf fmt "%a: INVARIANT %a%a" Sim.Time.pp r.at Mcmp.Violation.pp violation
      pp_blame blame
  | Unrecoverable_drop e ->
    Format.fprintf fmt "%a: FAULT %a DROPPED-UNRECOVERABLE %d->%d [%s] %s" Sim.Time.pp r.at
      Sim.Time.pp e.Plan.ev_time e.Plan.ev_src e.Plan.ev_dst
      (Interconnect.Msg_class.to_string e.Plan.ev_cls)
      e.Plan.ev_label
  | No_progress { window; mode } ->
    Format.fprintf fmt "%a: %s (no operation retired for %a)" Sim.Time.pp r.at
      (match mode with `Deadlock -> "DEADLOCK" | `Livelock -> "LIVELOCK")
      Sim.Time.pp window
  | Starvation o ->
    Format.fprintf fmt "%a: STARVATION %a" Sim.Time.pp r.at Mcmp.Probe.pp_outstanding o
  | Retransmit_exhausted { src; dst; cls; attempts; blame } ->
    Format.fprintf fmt "%a: RETRANSMIT-EXHAUSTED %d->%d [%s] after %d attempts%a" Sim.Time.pp
      r.at src dst
      (Interconnect.Msg_class.to_string cls)
      attempts pp_blame blame

let to_string r = Format.asprintf "%a" pp r

let kind_name r =
  match r.kind with
  | Invariant _ -> "invariant"
  | Unrecoverable_drop _ -> "unrecoverable-drop"
  | No_progress { mode = `Deadlock; _ } -> "deadlock"
  | No_progress { mode = `Livelock; _ } -> "livelock"
  | Starvation _ -> "starvation"
  | Retransmit_exhausted _ -> "retransmit-exhausted"
