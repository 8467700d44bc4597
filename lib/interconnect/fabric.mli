(** Message fabric for an M-CMP system.

    Models the two-level physical interconnect of the paper's Table 3:

    - on-chip: directly-connected crossbar, [intra_latency] (2 ns) per
      hop, [intra_bytes_per_ns] (64 GB/s) serialization at the sender's
      port;
    - between chips: directly-connected point-to-point links,
      [inter_latency] (20 ns, including interface/wire/sync) and
      [inter_bytes_per_ns] (16 GB/s) per ordered site pair;
    - chip to its off-chip memory controller: [mem_link_latency] (20 ns).

    [send_set] is multicast-aware: a message leaving a chip crosses the
    global link {e once per destination site} and then fans out on the
    destination chip, which is what the paper's traffic accounting
    (Fig. 7) assumes. Intra-CMP byte counters are charged per on-chip
    hop; inter-CMP counters once per site copy.

    Delivery order between two nodes is not guaranteed (unordered
    network), exactly as both protocols assume. An optional per-hop
    random jitter perturbs latencies to create run-to-run variability
    for confidence intervals (Alameldeen & Wood).

    Every fault reaches the fabric through one hook, the fault injector
    ({!set_fault_injector}). A fault plan's injector (per-copy faults,
    node stalls), the chaos link table of [Fault.Chaos] and the
    reliable transport of [Fault.Transport] are each an injector, and
    the table and the transport each wrap the one before. The fabric
    itself never retransmits: a transport re-offers a lost copy through
    {!offer}. *)

type params = {
  intra_latency : Sim.Time.t;
  inter_latency : Sim.Time.t;
  mem_link_latency : Sim.Time.t;
  intra_bytes_per_ns : float;
  inter_bytes_per_ns : float;
  jitter : Sim.Time.t;  (** max uniform extra latency per message *)
}

val default_params : params

(** Verdict of a fault injector on one message copy, applied after the
    fault-free arrival time is computed:

    - [Pass]: deliver normally;
    - [Delay d]: deliver [d] later (extreme values model delay spikes
      and, relative to unfaulted traffic, adversarial reordering);
    - [Drop]: never deliver this copy;
    - [Duplicate d]: deliver normally {e and} again [d] later. *)
type fault_action =
  | Pass
  | Delay of Sim.Time.t
  | Drop
  | Duplicate of Sim.Time.t

(** Consulted once per offer of a (message, destination) copy, with
    the copy's fault-free arrival time [arrive]. *)
type 'msg injector =
  now:Sim.Time.t ->
  src:int ->
  dst:int ->
  cls:Msg_class.t ->
  arrive:Sim.Time.t ->
  'msg ->
  fault_action

type 'msg t

(** When the engine carries a metrics registry, [create] registers the
    delivery counters and the queue-occupancy and utilization samplers
    ([fabric.delivered], [fabric.port_busy_ns],
    [fabric.link_utilization], [fabric.port_backlog_ns], ...). *)
val create :
  Sim.Engine.t -> Layout.t -> params -> Traffic.t -> Sim.Rng.t -> 'msg t

(** Must be called before the first send; [dst] is the destination node. *)
val set_handler : 'msg t -> (dst:int -> 'msg -> unit) -> unit

(** Attach the fault injector, replacing any earlier one. It is
    consulted on every offer of a copy: each copy a send makes, and
    each {!offer}. Injected faults (and, when the engine has a trace
    sink, ordinary sends/deliveries/link transfers) are emitted as
    structured {!Obs.Event} values through the engine. *)
val set_fault_injector : 'msg t -> 'msg injector -> unit

(** [offer t ~src ~dst ~cls ~arrive msg] offers one copy to the fault
    injector as if a send had just computed its fault-free arrival
    [arrive], and applies the verdict; without an injector the copy is
    scheduled for [arrive]. It claims no port or link, charges no
    traffic and emits no [Msg_send] or [Net_hop]: it is how a
    retransmission re-enters the fault hook. *)
val offer : 'msg t -> src:int -> dst:int -> cls:Msg_class.t -> arrive:Sim.Time.t -> 'msg -> unit

(** Label messages in trace events (defaults to the empty string; the
    message class always accompanies it). *)
val set_msg_label : 'msg t -> ('msg -> string) -> unit

val layout : 'msg t -> Layout.t

(** The parameters the fabric was created with. *)
val params : 'msg t -> params
val engine : 'msg t -> Sim.Engine.t

(** [send_set t ~src ~dsts ~cls ~bytes msg] delivers a copy of [msg]
    to every node in [dsts] except [src]. The destination walk is bit
    operations over the destset's words against per-site word masks
    precomputed at {!create} — no per-send allocation, at any node
    count. Copies (and their jitter draws) go in a fixed order: local
    destinations ascending, then remote sites ascending, each site's
    destinations descending. *)
val send_set :
  'msg t -> src:int -> dsts:Destset.t -> cls:Msg_class.t -> bytes:int -> 'msg -> unit

(** [send_set_parkable t ~park ...] is {!send_set} whose copies may
    park under the key [park] (the protocol's block address); see
    {!set_parkable}. A negative key parks nothing. The key is a plain
    argument, not an optional one on {!send_set}: an optional argument
    boxes its value at every call. The send asks {!set_parkable}'s
    function once, before its first copy, and tests one bit of the
    answer per copy. *)
val send_set_parkable :
  'msg t -> park:int -> src:int -> dsts:Destset.t -> cls:Msg_class.t -> bytes:int -> 'msg -> unit

(** [send_one t ~src ~dst ~cls ~bytes msg] is [send_set] on the
    one-node set [{dst}]: the same timing, traffic charges and rng
    draws, without the word scans.
    @raise Invalid_argument if [dst = src]: no protocol messages
    itself, so such a send is a bug, and dropping it quietly would (for
    token messages) lose tokens. *)
val send_one :
  'msg t -> src:int -> dst:int -> cls:Msg_class.t -> bytes:int -> 'msg -> unit

(** {2 Parked copies}

    A protocol can tell the fabric that a copy would do nothing at its
    destination unless something the protocol does later wakes it.
    Such a copy is {e parked}: it takes its engine sequence number at
    send time but is not scheduled. A wake puts it back on the queue
    at its original (arrival, sequence number). A send that parks
    copies keeps one record of what they share, and each copy is three
    ints in it; the record is freed, oldest first, when a later send
    parks and every copy of it arrived before then. The events that
    still run keep their order; only the parked copies' own events go.
    A copy never woken emits no [Msg_deliver] trace event; [Msg_send]
    and [Net_hop] are emitted at send as always.

    A parked copy is of one of two kinds, fixed per send by
    {!set_filer}'s [files]. A {e dropped} copy that is never woken did
    nothing, and is forgotten. A {e filed} copy that is never woken
    still changes its destination's state, which the filer writes
    without running the handler: the protocol calls {!file} before it
    reads or writes that state, and a record retires only after its
    filed copies are applied. *)

(** [set_parkable t f] installs the per-send test: [f key msg] gives
    the destset words of the nodes at which the copies of a
    [send_set_parkable ~park:key] of [msg] park (bit
    [i mod Destset.word_bits] of word [i / Destset.word_bits] for node
    [i]; words past the end of the array are zero). The fabric calls
    [f] once per such send, when it has no fault injector, and reads
    the array only until the send returns, so [f] may fill and return
    one buffer every time. No handler runs during a send, so the words
    hold for all of its copies. Installed once, at construction;
    without it nothing parks. *)
val set_parkable : 'msg t -> (int -> 'msg -> int array) -> unit

(** [set_filer t ~files filer]: the copies a send of a message [files]
    accepts park as filed copies, and [filer ~dst msg] applies one of
    them at [dst]. The filer must only write protocol state: it runs
    inside {!file}, inside a send that retires records, or inside a
    wake, and must not send, file or wake. [files] is asked once per
    parking send. Installed once, at construction. *)
val set_filer : 'msg t -> files:('msg -> bool) -> (dst:int -> 'msg -> unit) -> unit

(** [file t ~dst] applies [dst]'s filed copies whose place the engine
    has passed and that were not woken, in (arrival, sequence number)
    order, the order their deliveries would have run in. With none
    parked at [dst] it is one counter test. *)
val file : 'msg t -> dst:int -> unit

(** [wake t ~dst ~key] schedules [dst]'s dropped copies with key [key]
    whose arrival is after now, each once. Other copies stay parked; a
    copy the engine has run past is freed with its record, by a later
    parking send, not here. Allocates nothing once the fabric's buffers
    have grown. *)
val wake : 'msg t -> dst:int -> key:int -> unit

(** [wake_filed t ~dst ~key] schedules [dst]'s filed copies with key
    [key] whose place the engine has not passed, those later in the
    running instant included ({!Sim.Engine.schedule_reserved}). The
    passed ones stay, for {!file}. *)
val wake_filed : 'msg t -> dst:int -> key:int -> unit

(** [wake_filed_where t ~dst pick] is {!wake_filed} over every key,
    for the copies whose message [pick] accepts. *)
val wake_filed_where : 'msg t -> dst:int -> ('msg -> bool) -> unit

(** The latest fault-free arrival among the copies of the last send. *)
val last_arrival : 'msg t -> Sim.Time.t

(** The least time from a send to the delivery of a [bytes]-byte copy
    at a cache node, over every source and route. *)
val min_cache_latency : params -> bytes:int -> Sim.Time.t

(** Messages delivered so far. A parked copy counts once the engine has
    run past the place its delivery would have had, so the count is the
    one a run without parking shows at the same point. *)
val delivered : 'msg t -> int

(** Message copies eliminated by an injector's [Drop] verdicts. *)
val dropped : 'msg t -> int
