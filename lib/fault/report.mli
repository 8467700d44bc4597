(** Structured result of a detected problem during a torture run.

    A report that blames the fault schedule carries the logged
    {!Plan.event} itself (its offer index, time, link and action): the
    torture harness fills it from {!Plan.last_destructive} /
    {!Plan.last_drop_on}, and it is [None] when no plan event is a
    plausible cause (e.g. chaos-induced failures). *)

type kind =
  | Invariant of { violation : Mcmp.Violation.t; blame : Plan.event option }
      (** safety: a monitor/protocol check failed *)
  | Unrecoverable_drop of Plan.event
      (** a logged token-carrying drop — expected to appear whenever
          the plan's corruption mode fired; its {e absence} after such
          a fault is the bug *)
  | No_progress of { window : Sim.Time.t; mode : [ `Deadlock | `Livelock ] }
      (** liveness: no operation retired for [window]. [`Livelock] if
          retry/persistent counters still advanced during the window,
          [`Deadlock] if nothing moved at all *)
  | Starvation of Mcmp.Probe.outstanding
      (** one request outstanding beyond the starvation bound while the
          rest of the system makes progress *)
  | Retransmit_exhausted of {
      src : int;
      dst : int;
      cls : Interconnect.Msg_class.t;
      attempts : int;
      blame : Plan.event option;
    }
      (** reliable transport gave up on a link after its retransmit cap
          — the network is lossier than the recovery layer was
          provisioned for *)

type t = { at : Sim.Time.t; kind : kind }

(** The blamed plan event, if this report kind carries one. *)
val blame : t -> Plan.event option

(** [`Expected] marks reports that injected unsurvivable faults are
    {e supposed} to produce (detection working as intended); [`Fatal]
    reports are genuine protocol failures. *)
val severity : t -> [ `Fatal | `Expected ]

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Stable short name of the report kind ("invariant", "livelock",
    "retransmit-exhausted", ...) — what bundles and JSON dumps key on. *)
val kind_name : t -> string
