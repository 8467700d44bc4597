(** DirectoryCMP message vocabulary.

    Two coupled protocols: an intra-CMP directory protocol between L1s
    and their home L2 bank ([L1_*] messages), and an inter-CMP directory
    protocol between L2 banks and the home memory controller ([C_*]
    messages). Both levels use per-block busy states with deferral, and
    three-phase writebacks. *)

(** Where a data grant was satisfied, for fill statistics. *)
type origin = Chip | Remote | Memdram

type t =
  (* ---- intra-CMP: L1 <-> home L2 bank ---- *)
  | L1_gets of { addr : Cache.Addr.t; l1 : int }
  | L1_getm of { addr : Cache.Addr.t; l1 : int }
  | L1_data of {
      addr : Cache.Addr.t;
      excl : bool;
      dirty : bool;
      origin : origin;
      unblock : bool;
    }
      (** L2 -> requesting L1: data grant ([excl]: M/E permission) *)
  | L1_fwd_gets of { addr : Cache.Addr.t }
      (** L2 -> owner L1: supply data, downgrade (or migrate) *)
  | L1_fwd_getm of { addr : Cache.Addr.t }
      (** L2 -> owner L1: supply data, invalidate *)
  | L1_inv of { addr : Cache.Addr.t }  (** L2 -> sharer L1 *)
  | L1_inv_ack of { addr : Cache.Addr.t; l1 : int }
  | L1_owner_data of { addr : Cache.Addr.t; l1 : int; dirty : bool; migrated : bool }
      (** owner L1 -> L2 response to a fwd; [migrated] means the owner
          self-invalidated (migratory-sharing optimization) *)
  | L1_unblock of { addr : Cache.Addr.t; l1 : int }
  | L1_wb_req of { addr : Cache.Addr.t; l1 : int; dirty : bool; serial : int }
  | L1_wb_grant of { addr : Cache.Addr.t; serial : int }
  | L1_wb_cancel of { addr : Cache.Addr.t; serial : int }
  | L1_wb_data of { addr : Cache.Addr.t; l1 : int; dirty : bool; valid : bool }
      (** clean writebacks are control-sized, dirty carry the block *)
  (* ---- inter-CMP: L2 bank <-> home memory controller, L2 <-> L2 ---- *)
  | C_gets of { addr : Cache.Addr.t; l2 : int }
  | C_getm of { addr : Cache.Addr.t; l2 : int }
  | C_data of {
      addr : Cache.Addr.t;
      excl : bool;
      dirty : bool;
      from_home : bool;
      acks : int;  (** sharer-CMP invalidation acks the requester must collect *)
    }
  | C_fwd_gets of { addr : Cache.Addr.t; requester_l2 : int }
      (** home -> owner chip's L2 bank *)
  | C_fwd_getm of { addr : Cache.Addr.t; requester_l2 : int; acks : int }
  | C_inv of { addr : Cache.Addr.t; requester_l2 : int }
      (** home -> sharer chip; chip invalidates local copies then acks
          the requester *)
  | C_inv_ack of { addr : Cache.Addr.t }
  | C_acks_expected of { addr : Cache.Addr.t; acks : int }
      (** home -> requester L2 when data comes from a forwarded owner *)
  | C_unblock of { addr : Cache.Addr.t; cmp : int; excl : bool; shared : bool }
      (** requester L2 -> home: transaction done; resulting chip state *)
  | C_wb_req of { addr : Cache.Addr.t; cmp : int; l2 : int; dirty : bool; still_shared : bool }
  | C_wb_grant of { addr : Cache.Addr.t }
  | C_wb_cancel of { addr : Cache.Addr.t }
  | C_wb_data of { addr : Cache.Addr.t; cmp : int; dirty : bool; still_shared : bool; cancelled : bool }

val pp : Format.formatter -> t -> unit

(** The block a message is about. *)
val addr : t -> Cache.Addr.t

(** Block and message, e.g. ["0x1a40 C_data(excl=true,...)"] — the
    trace label {!Interconnect.Fabric.set_msg_label} takes. *)
val label : t -> string
