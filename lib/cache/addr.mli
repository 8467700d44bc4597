(** Block-grain physical addresses.

    The coherence protocols operate on 64-byte blocks, so an address is
    simply the block number. Helpers map blocks to their home memory
    controller (block-interleaved across CMPs) and to the L2 bank
    responsible for them within a CMP. *)

type t = int

val of_byte_address : int -> t
val to_byte_address : t -> int

(** [home_cmp ~ncmp a] — CMP whose memory controller is home for [a]. *)
val home_cmp : ncmp:int -> t -> int

(** [l2_bank ~nbanks a] — on-chip L2 bank holding [a] (the same bank
    index on every CMP, as in shared-L2 CMP designs). *)
val l2_bank : nbanks:int -> t -> int

(** [set_index ~sets a] — cache set for [a]. *)
val set_index : sets:int -> t -> int

val pp : Format.formatter -> t -> unit
