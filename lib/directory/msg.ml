(** Where a data grant was satisfied, for fill statistics. *)
type origin = Chip | Remote | Memdram

type t =
  | L1_gets of { addr : Cache.Addr.t; l1 : int }
  | L1_getm of { addr : Cache.Addr.t; l1 : int }
  | L1_data of { addr : Cache.Addr.t; excl : bool; dirty : bool; origin : origin; unblock : bool }
  | L1_fwd_gets of { addr : Cache.Addr.t }
  | L1_fwd_getm of { addr : Cache.Addr.t }
  | L1_inv of { addr : Cache.Addr.t }
  | L1_inv_ack of { addr : Cache.Addr.t; l1 : int }
  | L1_owner_data of { addr : Cache.Addr.t; l1 : int; dirty : bool; migrated : bool }
  | L1_unblock of { addr : Cache.Addr.t; l1 : int }
  | L1_wb_req of { addr : Cache.Addr.t; l1 : int; dirty : bool; serial : int }
  | L1_wb_grant of { addr : Cache.Addr.t; serial : int }
  | L1_wb_cancel of { addr : Cache.Addr.t; serial : int }
  | L1_wb_data of { addr : Cache.Addr.t; l1 : int; dirty : bool; valid : bool }
  | C_gets of { addr : Cache.Addr.t; l2 : int }
  | C_getm of { addr : Cache.Addr.t; l2 : int }
  | C_data of { addr : Cache.Addr.t; excl : bool; dirty : bool; from_home : bool; acks : int }
  | C_fwd_gets of { addr : Cache.Addr.t; requester_l2 : int }
  | C_fwd_getm of { addr : Cache.Addr.t; requester_l2 : int; acks : int }
  | C_inv of { addr : Cache.Addr.t; requester_l2 : int }
  | C_inv_ack of { addr : Cache.Addr.t }
  | C_acks_expected of { addr : Cache.Addr.t; acks : int }
  | C_unblock of { addr : Cache.Addr.t; cmp : int; excl : bool; shared : bool }
  | C_wb_req of { addr : Cache.Addr.t; cmp : int; l2 : int; dirty : bool; still_shared : bool }
  | C_wb_grant of { addr : Cache.Addr.t }
  | C_wb_cancel of { addr : Cache.Addr.t }
  | C_wb_data of { addr : Cache.Addr.t; cmp : int; dirty : bool; still_shared : bool; cancelled : bool }

let pp fmt m =
  let p = Format.fprintf in
  match m with
  | L1_gets { l1; _ } -> p fmt "L1_gets(from %d)" l1
  | L1_getm { l1; _ } -> p fmt "L1_getm(from %d)" l1
  | L1_data { excl; dirty; unblock; _ } ->
    p fmt "L1_data(excl=%b,dirty=%b,ub=%b)" excl dirty unblock
  | L1_fwd_gets _ -> p fmt "L1_fwd_gets"
  | L1_fwd_getm _ -> p fmt "L1_fwd_getm"
  | L1_inv _ -> p fmt "L1_inv"
  | L1_inv_ack _ -> p fmt "L1_inv_ack"
  | L1_owner_data { dirty; migrated; _ } -> p fmt "L1_owner_data(dirty=%b,mig=%b)" dirty migrated
  | L1_unblock _ -> p fmt "L1_unblock"
  | L1_wb_req _ -> p fmt "L1_wb_req"
  | L1_wb_grant _ -> p fmt "L1_wb_grant"
  | L1_wb_cancel _ -> p fmt "L1_wb_cancel"
  | L1_wb_data { dirty; valid; _ } -> p fmt "L1_wb_data(dirty=%b,valid=%b)" dirty valid
  | C_gets { l2; _ } -> p fmt "C_gets(from l2 %d)" l2
  | C_getm { l2; _ } -> p fmt "C_getm(from l2 %d)" l2
  | C_data { excl; dirty; from_home; acks; _ } ->
    p fmt "C_data(excl=%b,dirty=%b,home=%b,acks=%d)" excl dirty from_home acks
  | C_fwd_gets { requester_l2; _ } -> p fmt "C_fwd_gets(req l2 %d)" requester_l2
  | C_fwd_getm { requester_l2; acks; _ } -> p fmt "C_fwd_getm(req l2 %d,acks=%d)" requester_l2 acks
  | C_inv { requester_l2; _ } -> p fmt "C_inv(req l2 %d)" requester_l2
  | C_inv_ack _ -> p fmt "C_inv_ack"
  | C_acks_expected { acks; _ } -> p fmt "C_acks_expected(%d)" acks
  | C_unblock { cmp; excl; shared; _ } -> p fmt "C_unblock(cmp %d,excl=%b,sh=%b)" cmp excl shared
  | C_wb_req { cmp; _ } -> p fmt "C_wb_req(cmp %d)" cmp
  | C_wb_grant _ -> p fmt "C_wb_grant"
  | C_wb_cancel _ -> p fmt "C_wb_cancel"
  | C_wb_data { cancelled; _ } -> p fmt "C_wb_data(cancelled=%b)" cancelled

let addr = function
  | L1_gets { addr; _ } | L1_getm { addr; _ } | L1_data { addr; _ }
  | L1_fwd_gets { addr } | L1_fwd_getm { addr } | L1_inv { addr }
  | L1_inv_ack { addr; _ } | L1_owner_data { addr; _ } | L1_unblock { addr; _ }
  | L1_wb_req { addr; _ } | L1_wb_grant { addr; _ } | L1_wb_cancel { addr; _ }
  | L1_wb_data { addr; _ } | C_gets { addr; _ } | C_getm { addr; _ }
  | C_data { addr; _ } | C_fwd_gets { addr; _ } | C_fwd_getm { addr; _ }
  | C_inv { addr; _ } | C_inv_ack { addr } | C_acks_expected { addr; _ }
  | C_unblock { addr; _ } | C_wb_req { addr; _ } | C_wb_grant { addr }
  | C_wb_cancel { addr } | C_wb_data { addr; _ } ->
    addr

let label m = Format.asprintf "%a %a" Cache.Addr.pp (addr m) pp m
