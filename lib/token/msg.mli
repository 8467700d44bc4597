(** TokenCMP message vocabulary.

    Token-carrying messages are self-describing: safety follows from
    token counting alone, so no message ever needs an acknowledgment,
    and any message can be processed in any order. *)

type rw = R | W

(** Scope of a transient request: [`Local] is the intra-CMP broadcast,
    [`External] the inter-CMP broadcast (or a flat-policy global one). *)
type scope = [ `Local | `External ]

type t =
  | Transient of {
      addr : Cache.Addr.t;
      requester : int;  (** L1 node to send tokens/data to *)
      rw : rw;
      scope : scope;
      force_external : bool;
          (** retries force the home L2 bank to escalate off-chip *)
      hint : int option;
          (** destination-set prediction: the chip the requester last saw
              tokens for this block come from *)
    }
  | Tokens of {
      addr : Cache.Addr.t;
      src : int;
      count : int;  (** >= 1 *)
      owner : bool;
      data : bool;  (** message carries the 64 B block *)
      dirty : bool;
      writeback : bool;  (** traffic-accounting only *)
      epoch : int;
          (** token-recreation epoch these tokens belong to; always 0
              without the recovery layer. Receivers discard tokens from
              superseded epochs, which is what keeps recreation safe
              under arbitrary message reordering. *)
    }
  | P_activate of { addr : Cache.Addr.t; proc : int; l1 : int; rw : rw; seq : int }
  | P_deactivate of { addr : Cache.Addr.t; proc : int; seq : int }
  | P_arb_request of { addr : Cache.Addr.t; proc : int; l1 : int; rw : rw; rid : int }
      (** starving L1 -> home arbiter; [rid] is the per-processor
          request id, so a done can never retract a later request *)
  | P_arb_done of { addr : Cache.Addr.t; proc : int; rid : int }
      (** satisfied requester -> home arbiter *)
  | Recreate_req of { addr : Cache.Addr.t; src : int; epoch : int }
      (** starving persistent requester -> home memory: please recreate
          this block's tokens ([epoch] is the requester's view; stale
          asks are ignored) *)
  | Epoch_bump of { addr : Cache.Addr.t; epoch : int }
      (** home memory -> all caches: raise your epoch for [addr] to
          [epoch], destroying anything held under older epochs, and ack *)
  | Epoch_ack of { addr : Cache.Addr.t; src : int; epoch : int }
      (** cache -> home memory: bump applied; once every cache acked,
          memory mints a fresh full token set *)

val pp : Format.formatter -> t -> unit

val label : t -> string

val addr : t -> Cache.Addr.t

(** Tokens moved by the message: positive for [Tokens], 0 otherwise.
    Dropping a message with [tokens_carried > 0] is unrecoverable. *)
val tokens_carried : t -> int
