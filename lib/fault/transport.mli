(** Reliable transport: ack-timeout retransmission and duplicate
    absorption, behind the fabric's one fault hook.

    A transport is a fault injector wrapped over the injector that
    decides what the network does to each copy (a {!Plan}'s, or the
    {!Chaos} link table wrapped over it), the way the link table wraps
    a plan's. Every copy is a frame the sender keeps until it is known
    delivered:

    - the receiver absorbs a duplicate, so the copy is delivered once;
    - a lost frame is offered again ({!Interconnect.Fabric.offer}) an
      ack timeout after the lost copy's fault-free arrival, and takes
      the first offer's flight again. The timeout is
      [retrans_timeout * 2^(n-1)] before the [n]th retransmission, plus
      a uniform jitter of up to [retrans_jitter]. The wrapped injector
      is consulted afresh on every offer. After [max_retrans]
      retransmissions the frame is given up.

    The simulation collapses each ack round-trip into that schedule.
    A copy that passes unharmed is delivered exactly as without a
    transport, and no randomness is drawn for it: the jitter comes from
    the transport's own stream, so a fault plan's schedule is untouched. *)

(** 300 ns: the base ack timeout before the first retransmission. *)
val retrans_timeout : Sim.Time.t

(** 10: a frame is offered up to [max_retrans + 1] times. *)
val max_retrans : int

(** 50 ns: the largest uniform extra wait per retransmission. *)
val retrans_jitter : Sim.Time.t

type t

(** [wrap ~rng ~give_up fabric inner] is the transport and the
    injector to install on [fabric] in place of [inner]. [rng] should
    be a stream split off for it. [give_up] runs when a frame
    exhausts its retransmissions, after the structured
    {!Obs.Event.Retransmit_exhausted} event, with the number of times
    it was offered, [max_retrans + 1]. Registers [fabric.retransmits],
    [fabric.dups_absorbed] and [fabric.retrans_exhausted] when the
    engine carries a metrics registry.

    The returned injector must be the one the fabric consults on every
    offer: a retransmission passes its attempt number to the offer it
    makes through the transport. *)
val wrap :
  rng:Sim.Rng.t ->
  give_up:(src:int -> dst:int -> cls:Interconnect.Msg_class.t -> attempts:int -> 'msg -> unit) ->
  'msg Interconnect.Fabric.t ->
  'msg Interconnect.Fabric.injector ->
  t * 'msg Interconnect.Fabric.injector

val retransmits : t -> int
val absorbed_duplicates : t -> int

(** Frames given up. *)
val exhausted : t -> int
