type rw = R | W

type scope = [ `Local | `External ]

type t =
  | Transient of {
      addr : Cache.Addr.t;
      requester : int;
      rw : rw;
      scope : scope;
      force_external : bool;
      hint : int option;  (* requester-predicted holder chip *)
    }
  | Tokens of {
      addr : Cache.Addr.t;
      src : int;
      count : int;
      owner : bool;
      data : bool;
      dirty : bool;
      writeback : bool;
      epoch : int;
    }
  | P_activate of { addr : Cache.Addr.t; proc : int; l1 : int; rw : rw; seq : int }
  | P_deactivate of { addr : Cache.Addr.t; proc : int; seq : int }
  | P_arb_request of { addr : Cache.Addr.t; proc : int; l1 : int; rw : rw; rid : int }
  | P_arb_done of { addr : Cache.Addr.t; proc : int; rid : int }
  | Recreate_req of { addr : Cache.Addr.t; src : int; epoch : int }
  | Epoch_bump of { addr : Cache.Addr.t; epoch : int }
  | Epoch_ack of { addr : Cache.Addr.t; src : int; epoch : int }

let pp_rw fmt = function R -> Format.pp_print_string fmt "R" | W -> Format.pp_print_string fmt "W"

let pp fmt = function
  | Transient { addr; requester; rw; scope; _ } ->
    Format.fprintf fmt "Transient(%a,%a,req=%d,%s)" Cache.Addr.pp addr pp_rw rw requester
      (match scope with `Local -> "local" | `External -> "external")
  | Tokens { addr; count; owner; data; epoch; _ } ->
    Format.fprintf fmt "Tokens(%a,%d%s%s%s)" Cache.Addr.pp addr count
      (if owner then ",owner" else "")
      (if data then ",data" else "")
      (if epoch > 0 then Printf.sprintf ",e%d" epoch else "")
  | P_activate { addr; proc; seq; _ } ->
    Format.fprintf fmt "P_activate(%a,p%d,#%d)" Cache.Addr.pp addr proc seq
  | P_deactivate { addr; proc; seq } ->
    Format.fprintf fmt "P_deactivate(%a,p%d,#%d)" Cache.Addr.pp addr proc seq
  | P_arb_request { addr; proc; rid; _ } ->
    Format.fprintf fmt "P_arb_request(%a,p%d,r%d)" Cache.Addr.pp addr proc rid
  | P_arb_done { addr; proc; rid } ->
    Format.fprintf fmt "P_arb_done(%a,p%d,r%d)" Cache.Addr.pp addr proc rid
  | Recreate_req { addr; src; epoch } ->
    Format.fprintf fmt "Recreate_req(%a,n%d,e%d)" Cache.Addr.pp addr src epoch
  | Epoch_bump { addr; epoch } -> Format.fprintf fmt "Epoch_bump(%a,e%d)" Cache.Addr.pp addr epoch
  | Epoch_ack { addr; src; epoch } ->
    Format.fprintf fmt "Epoch_ack(%a,n%d,e%d)" Cache.Addr.pp addr src epoch

let label m = Format.asprintf "%a" pp m

let addr = function
  | Transient { addr; _ } | Tokens { addr; _ } | P_activate { addr; _ }
  | P_deactivate { addr; _ } | P_arb_request { addr; _ } | P_arb_done { addr; _ }
  | Recreate_req { addr; _ } | Epoch_bump { addr; _ } | Epoch_ack { addr; _ } ->
    addr

let tokens_carried = function Tokens { count; _ } -> count | _ -> 0
