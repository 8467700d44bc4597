(** Byte counters for intra-CMP and inter-CMP traffic, by message class. *)

type t

val create : unit -> t

val add_intra : t -> Msg_class.t -> int -> unit
val add_inter : t -> Msg_class.t -> int -> unit

val intra_bytes : t -> Msg_class.t -> int
val inter_bytes : t -> Msg_class.t -> int

val intra_total : t -> int
val inter_total : t -> int

(** Per-class breakdown in {!Msg_class.all} order. *)
val intra_breakdown : t -> (Msg_class.t * int) list

val inter_breakdown : t -> (Msg_class.t * int) list
val reset : t -> unit

(** [merge ~into src] adds [src]'s byte counters into [into]. *)
val merge : into:t -> t -> unit

(** Register totals and per-class byte counters into a metrics
    registry (names [traffic.intra_bytes], [traffic.inter_bytes.req],
    ...). *)
val register : Obs.Registry.t -> t -> unit
