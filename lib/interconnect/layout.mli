(** Naming of coherence endpoints in an M-CMP system.

    Every cache (L1 data, L1 instruction, L2 bank) and every per-CMP
    memory controller is a node with a dense integer id. The token
    substrate treats each cache as a "node" in the token-coherence
    sense; DirectoryCMP uses L2 banks as intra-CMP directories and
    memory controllers as inter-CMP directories. *)

type kind =
  | L1d of { cmp : int; proc : int }
  | L1i of { cmp : int; proc : int }
  | L2 of { cmp : int; bank : int }
  | Mem of { cmp : int }

type t = { ncmp : int; procs_per_cmp : int; banks_per_cmp : int }

val create : ncmp:int -> procs_per_cmp:int -> banks_per_cmp:int -> t

val node_count : t -> int

(** Total processor count. *)
val nprocs : t -> int

(** Total cache count (L1d + L1i + L2 banks over all CMPs). *)
val ncaches : t -> int

(** Caches per CMP (the paper's [C]). *)
val caches_per_cmp : t -> int

val kind : t -> int -> kind

(** The CMP a node belongs to (its "site"; memory controllers belong to
    the CMP they are attached to). *)
val cmp_of : t -> int -> int

val is_cache : t -> int -> bool
val is_mem : t -> int -> bool
val is_l1 : t -> int -> bool

(* Id accessors. *)
val l1d : t -> cmp:int -> proc:int -> int
val l1i : t -> cmp:int -> proc:int -> int
val l2 : t -> cmp:int -> bank:int -> int
val mem : t -> cmp:int -> int

(** Global processor number of an L1 node's processor
    ([cmp * procs_per_cmp + proc]). *)
val proc_of_l1 : t -> int -> int

(** L1 data cache of a global processor number. *)
val l1d_of_proc : t -> int -> int

val cmp_of_proc : t -> int -> int

(** All cache nodes of one CMP (L1d, L1i, then L2 banks). *)
val caches_of_cmp : t -> int -> int list

(** L1 nodes (data and instruction) of one CMP. *)
val l1s_of_cmp : t -> int -> int list

val l2s_of_cmp : t -> int -> int list
val all_caches : t -> int list
val all_mems : t -> int list

val all_nodes : t -> int list

(** {!Destset} twins of the list accessors above, for precomputing
    broadcast destination masks at component-creation time. *)
val all_caches_set : t -> Destset.t

val all_nodes_set : t -> Destset.t
val nodes_of_cmp_set : t -> int -> Destset.t
val l1s_of_cmp_set : t -> int -> Destset.t
val all_l1s_set : t -> Destset.t
val pp_node : t -> Format.formatter -> int -> unit
