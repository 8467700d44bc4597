(** TokenCMP's correctness substrate: the token state of every cache and
    memory controller, and every change to it. DESIGN.md ("Token
    substrate") maps each operation to its {!Mc.Token_model} or
    {!Mc.Recovery_model} action. [line] is abstract, so only this module
    writes a line's tokens, owner bit or valid bit, and a cache line
    appears only when {!receive} merges a [Tokens] delivery. Transfers
    raise {!Mcmp.Violation.Invariant_violation} on the spot:
    [empty-token-message], [owner-without-data], [token-overdraw],
    [phantom-owner], [negative-inflight], [negative-inflight-owner]. *)

type t
type line

(** [recovery] turns on epochs: stale-epoch discard, bumps and mints. *)
val create :
  recovery:bool -> Mcmp.Config.t -> Msg.t Interconnect.Fabric.t -> Mcmp.Counters.t -> t

val home_mem : t -> Cache.Addr.t -> int
val home_l2 : t -> cmp:int -> Cache.Addr.t -> int

(** A resident cache line (LRU untouched), or the line at the block's home
    controller, which holds all T tokens until first stored. *)
val find : t -> int -> Cache.Addr.t -> line option

val tokens : line -> int
val owner : line -> bool
val valid : line -> bool
val dirty : line -> bool
val mark_dirty : line -> unit

(** The policy's response-delay window. *)
val hold_until : line -> Sim.Time.t
val set_hold_until : line -> Sim.Time.t -> unit

(** Valid data and one token ([R]) or all T tokens ([W]). *)
val permits : t -> line -> Msg.rw -> bool

val touch : t -> int -> Cache.Addr.t -> unit

(** The destset words of the L1s whose tag array holds a line for the
    block: bit [i mod Destset.word_bits] of word [i / Destset.word_bits]
    stands for node [i], and there is one word per word of the layout's
    node count. The substrate keeps them beside the tag arrays' only
    insert and remove, so they equal the set of L1s {!find} answers
    [Some] for. The array is the substrate's own and changes in place
    as lines come and go; callers only read it. *)
val l1_holders : t -> Cache.Addr.t -> int array

(** Take tokens out of a line and send them to [dst] in one message,
    waking request copies parked there. A cache line left empty is
    dropped. *)
val give :
  t -> src:int -> dst:int -> Cache.Addr.t -> line -> count:int -> owner:bool -> data:bool ->
  dirty:bool -> writeback:bool -> unit

(** Give to the active persistent requester [l1]: everything for a write
    or from memory; a cache keeps one token from a read, and data moves
    only with the owner token. *)
val forward : t -> int -> Cache.Addr.t -> line -> l1:int -> rw:Msg.rw -> unit

(** [false]: a superseded epoch, destroyed. [true]: merged into the node's
    line, which a cache allocates, writing back its LRU victim. *)
val receive :
  t -> int -> Cache.Addr.t -> count:int -> owner:bool -> data:bool -> dirty:bool -> epoch:int ->
  bool

(** Tokens delivered to a crashed node die. *)
val discard : t -> Cache.Addr.t -> count:int -> owner:bool -> epoch:int -> unit

(** A crashed cache loses its lines but keeps its epochs. *)
val crash : t -> int -> unit

val node_epoch : t -> int -> Cache.Addr.t -> int

(** Start a collect at the home controller unless one runs; the bump is
    rebroadcast to caches that have not acked every [retry]. *)
val recreate : t -> int -> Cache.Addr.t -> retry:Sim.Time.t -> unit

(** A cache adopts a newer epoch and destroys what it holds. *)
val bump : t -> int -> Cache.Addr.t -> epoch:int -> unit

(** Record an ack; [true] when the last one minted a full set. *)
val ack : t -> int -> Cache.Addr.t -> src:int -> epoch:int -> bool

val recreating : t -> bool

(** The token half of the invariant probe, which also reports a block
    whose {!l1_holders} differ from the L1 tag arrays ([l1-holders]). *)
val check : t -> Mcmp.Violation.t list

(** Reads; none stores memory's implicit line. *)
val held : t -> Cache.Addr.t -> int

val node_tokens : t -> int -> Cache.Addr.t -> int
val node_owner : t -> int -> Cache.Addr.t -> bool
val inflight : t -> Cache.Addr.t -> int
val inflight_total : t -> int
val recreations : t -> int
val epoch_bumps : t -> int
val stale_discards : t -> int
val dump : t -> Format.formatter -> unit
