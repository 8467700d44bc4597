(** Discrete-event simulation engine.

    The engine maintains a priority queue of timestamped events (unit
    closures). Events scheduled at the same instant fire in scheduling
    order, so the simulation is fully deterministic. *)

(** Structured trace events. The engine itself defines no constructors;
    observability layers extend this type (see [Obs.Event]) and
    instrumented components emit through {!emit}. Keeping the type here
    lets every layer of the stack record events without depending on
    the observability library. *)
type event = ..

(** Extensible per-engine context. Higher layers attach values (e.g. a
    metrics registry) that components created later can discover
    without threading extra arguments through every constructor. *)
type ext = ..

type t

val create : unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** Number of events executed so far. *)
val events_processed : t -> int

(** [schedule_in t delay f] runs [f] at [now t + delay].
    [delay] must be non-negative. *)
val schedule_in : t -> Time.t -> (unit -> unit) -> unit

(** [schedule_at t time f] runs [f] at absolute [time >= now t]. *)
val schedule_at : t -> Time.t -> (unit -> unit) -> unit

(** [reserve t] takes the sequence number the next {!schedule_at} would
    have used, without scheduling anything. An event later scheduled
    with it through {!schedule_reserved} sits in the queue exactly
    where it would have been, had it been scheduled at the
    reservation. *)
val reserve : t -> int

(** [schedule_reserved t time ~seq f] runs [f] at [time] with a
    sequence number from {!reserve}. The place [(time, seq)] must be
    after the running event's: [time] after [now t], or [time = now t]
    with [seq] after the running event's, so the event runs later in
    this instant. An earlier place would need to run before an event
    that has already run. *)
val schedule_reserved : t -> Time.t -> seq:int -> (unit -> unit) -> unit

(** [passed t time ~seq] is true when the engine has run past the place
    [(time, seq)]: an event scheduled there would already have run. *)
val passed : t -> Time.t -> seq:int -> bool

(** Cancellable timer handle. *)
type timer

(** [timer_in t delay f] schedules [f] like {!schedule_in} but returns a
    handle that can cancel the callback before it fires. *)
val timer_in : t -> Time.t -> (unit -> unit) -> timer

val cancel : timer -> unit

(** [run t] processes events until the queue drains.
    @param until stop (leaving the queue intact) once simulated time
    would exceed this bound.
    @param max_events safety valve against runaway simulations; raises
    [Failure] when exceeded. *)
val run : ?until:Time.t -> ?max_events:int -> t -> unit

(** [stop t] makes {!run} return after the current event. *)
val stop : t -> unit

(** True when a trace sink is attached. Instrumented call sites guard
    with [if tracing t then emit t (Ev ...)] so that untraced runs pay
    a single branch — no allocation, no formatting. *)
val tracing : t -> bool

(** [set_sink t f] routes every {!emit} to [f], stamped with the
    current simulated time. Off by default. *)
val set_sink : t -> (Time.t -> event -> unit) -> unit

val clear_sink : t -> unit

(** [emit t ev] passes [ev] to the attached sink; no-op when tracing is
    off (but the event value has already been allocated — guard with
    {!tracing} on hot paths). *)
val emit : t -> event -> unit

(** [add_ext t e] attaches an extension value to the engine. *)
val add_ext : t -> ext -> unit

(** [find_ext t f] returns the first attached extension [f] recognises
    (most recently added first). The lookup is a plain list walk and
    deliberately unmemoised: [exts] stays tiny (a single metrics
    registry today) and call sites run at component construction, not
    inside the event loop. *)
val find_ext : t -> (ext -> 'a option) -> 'a option
