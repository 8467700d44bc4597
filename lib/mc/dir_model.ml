type params = { caches : int; max_writes : int; net_cap : int }

let default_params = { caches = 2; max_writes = 2; net_cap = 5 }

let writer = 0
let reader = 1

type cstate = I | S | O | E | M

type trans =
  | TNone
  | TWaitS
  | TWaitM of { have_data : bool; got : int; need : int option; txn : int option }

type cache = {
  st : cstate;
  ver : int;
  tr : trans;
  wb : (cstate * int) option;  (* three-phase writeback buffer *)
  wb_serial : int;  (* serial of the current buffer; 0 when none *)
}

type msg =
  | GetS of { src : int }
  | GetM of { src : int }
  | DataS of { dst : int; ver : int; txn : int }
  | DataE of { dst : int; ver : int; acks : int; txn : int }
  | FwdS of { dst : int; req : int; txn : int }
  | FwdM of { dst : int; req : int; acks : int; txn : int }
  | Inv of { dst : int; req : int }
  | InvAck of { dst : int }
  | AckCount of { dst : int; acks : int; txn : int }
  | Unblock of { src : int; txn : int }
  | WbReq of { src : int; serial : int }
  | WbGrant of { dst : int; serial : int }
  | WbCancel of { dst : int; serial : int }
  | WbData of { src : int; ver : int; valid : bool }

type dstate = {
  owner : int option;
  sharers : int;  (* bitmask *)
  busy : bool;
  cur : (int * int) option;  (* requester and txn id holding [busy] *)
  txn_next : int;
  defer : msg list;  (* FIFO of deferred GetS/GetM/WbReq *)
  wb_from : int option;
}

type state = {
  cs : cache list;
  dir : dstate;
  memver : int;
  net : msg list;
  written : int;
  reqs : int list;
}

let nth = List.nth
let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l
let norm_net net = List.sort compare net

let initial_state p =
  {
    cs =
      List.init p.caches (fun _ -> { st = I; ver = 0; tr = TNone; wb = None; wb_serial = 0 });
    dir =
      {
        owner = None;
        sharers = 0;
        busy = false;
        cur = None;
        txn_next = 0;
        defer = [];
        wb_from = None;
      };
    memver = 0;
    net = [];
    written = 0;
    reqs = [ 0; 0 ];
  }

let bits_to_list bits n = List.filter (fun i -> bits land (1 lsl i) <> 0) (List.init n (fun i -> i))

(* Send messages if the network has room. *)
let send p s msgs =
  if List.length s.net + List.length msgs > p.net_cap then None
  else Some { s with net = norm_net (msgs @ s.net) }

(* The directory serializes one transaction per block; this processes a
   request when the block is not busy. *)
let dir_process p s msg =
  let d = s.dir in
  assert (not d.busy);
  let txn = d.txn_next in
  match msg with
  | GetS { src } -> (
    let claim s =
      Some
        {
          s with
          dir =
            {
              d with
              busy = true;
              cur = Some (src, txn);
              txn_next = txn + 1;
              sharers = d.sharers lor (1 lsl src);
            };
        }
    in
    match d.owner with
    | Some o when o <> src -> (
      (* 3-hop indirection through the current owner. *)
      match send p s [ FwdS { dst = o; req = src; txn } ] with
      | None -> None
      | Some s -> claim s)
    | Some _ | None -> (
      match send p s [ DataS { dst = src; ver = s.memver; txn } ] with
      | None -> None
      | Some s -> claim s))
  | GetM { src } -> (
    let invs = bits_to_list (d.sharers land lnot (1 lsl src)) p.caches in
    let inv_msgs = List.map (fun c -> Inv { dst = c; req = src }) invs in
    let nacks = List.length invs in
    let finish s =
      Some
        {
          s with
          dir =
            {
              d with
              busy = true;
              cur = Some (src, txn);
              txn_next = txn + 1;
              owner = Some src;
              sharers = 0;
            };
        }
    in
    match d.owner with
    | Some o when o <> src -> (
      (* invalidation-ack counts ride the owner's data response: the
         requester must not complete before the owner's copy dies (the
         early-grant race this model originally caught) *)
      match send p s (FwdM { dst = o; req = src; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s)
    | Some _ -> (
      (* Upgrade by the current owner: permissions and acks only. *)
      match send p s (AckCount { dst = src; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s)
    | None -> (
      match send p s (DataE { dst = src; ver = s.memver; acks = nacks; txn } :: inv_msgs) with
      | None -> None
      | Some s -> finish s))
  | WbReq { src; serial } -> (
    if d.owner = Some src then
      match send p s [ WbGrant { dst = src; serial } ] with
      | None -> None
      | Some s -> Some { s with dir = { d with busy = true; wb_from = Some src } }
    else
      match send p s [ WbCancel { dst = src; serial } ] with
      | None -> None
      | Some s -> Some { s with dir = { d with busy = false } })
  | _ -> assert false

(* Writeback serials grow without bound; only their relative order
   matters, so rebase each cache's serial space to keep the state space
   finite (an order-preserving symmetry reduction). *)
let normalize_txns s =
  let refs = ref [ s.dir.txn_next ] in
  let note t = refs := t :: !refs in
  (match s.dir.cur with Some (_, t) -> note t | None -> ());
  List.iter
    (fun c ->
      match c.tr with TWaitM { txn = Some t; _ } -> note t | TWaitM _ | TWaitS | TNone -> ())
    s.cs;
  List.iter
    (fun m ->
      match m with
      | DataS { txn; _ } | DataE { txn; _ } | AckCount { txn; _ }
      | FwdS { txn; _ } | FwdM { txn; _ } | Unblock { txn; _ } ->
        note txn
      | _ -> ())
    (s.net @ s.dir.defer);
  let offset = List.fold_left min max_int !refs in
  let fix t = t - offset in
  let cs =
    List.map
      (fun c ->
        match c.tr with
        | TWaitM { have_data; got; need; txn = Some t } ->
          { c with tr = TWaitM { have_data; got; need; txn = Some (fix t) } }
        | TWaitM _ | TWaitS | TNone -> c)
      s.cs
  in
  let fix_msg m =
    match m with
    | DataS r -> DataS { r with txn = fix r.txn }
    | DataE r -> DataE { r with txn = fix r.txn }
    | AckCount r -> AckCount { r with txn = fix r.txn }
    | FwdS r -> FwdS { r with txn = fix r.txn }
    | FwdM r -> FwdM { r with txn = fix r.txn }
    | Unblock r -> Unblock { r with txn = fix r.txn }
    | other -> other
  in
  let net = List.map fix_msg s.net in
  let dir =
    {
      s.dir with
      txn_next = fix s.dir.txn_next;
      cur = (match s.dir.cur with Some (c, t) -> Some (c, fix t) | None -> None);
      defer = List.map fix_msg s.dir.defer;
    }
  in
  { s with cs; net = norm_net net; dir }

(* Only the order of one cache's live writeback serials matters (a
   grant or cancel answers the buffer whose serial it carries; a fresh
   serial exceeds every one in flight), so map them onto 1..k in order:
   the serial space stays finite however many writebacks came before. *)
let normalize_serials p s =
  let live = Array.make p.caches [] in
  List.iteri (fun c cache -> if cache.wb <> None then live.(c) <- [ cache.wb_serial ]) s.cs;
  List.iter
    (function
      | WbReq { src = c; serial } | WbGrant { dst = c; serial } | WbCancel { dst = c; serial } ->
        live.(c) <- serial :: live.(c)
      | _ -> ())
    (s.net @ s.dir.defer);
  let live = Array.map (List.sort_uniq compare) live in
  let rank c serial = 1 + Option.get (List.find_index (( = ) serial) live.(c)) in
  let fix_msg = function
    | WbReq { src; serial } -> WbReq { src; serial = rank src serial }
    | WbGrant { dst; serial } -> WbGrant { dst; serial = rank dst serial }
    | WbCancel { dst; serial } -> WbCancel { dst; serial = rank dst serial }
    | m -> m
  in
  let cs =
    List.mapi
      (fun c cache ->
        { cache with wb_serial = (if cache.wb <> None then rank c cache.wb_serial else 0) })
      s.cs
  in
  normalize_txns
    {
      s with
      cs;
      net = norm_net (List.map fix_msg s.net);
      dir = { s.dir with defer = List.map fix_msg s.dir.defer };
    }

(* Caches other than the designated writer (0) and reader (1) are
   interchangeable; the directory/memory is the home and has no index
   in [cs]. *)
let movable p = List.init (max 0 (p.caches - 2)) (fun i -> i + 2)

let apply_perm p f s =
  let permute_positions l =
    match l with
    | [] -> []
    | hd :: _ ->
      let out = Array.make p.caches hd in
      List.iteri (fun i x -> out.(f i) <- x) l;
      Array.to_list out
  in
  let fbits bits =
    List.fold_left
      (fun acc i -> acc lor (1 lsl f i))
      0
      (bits_to_list bits p.caches)
  in
  let fmsg = function
    | GetS { src } -> GetS { src = f src }
    | GetM { src } -> GetM { src = f src }
    | DataS r -> DataS { r with dst = f r.dst }
    | DataE r -> DataE { r with dst = f r.dst }
    | FwdS r -> FwdS { r with dst = f r.dst; req = f r.req }
    | FwdM r -> FwdM { r with dst = f r.dst; req = f r.req }
    | Inv { dst; req } -> Inv { dst = f dst; req = f req }
    | InvAck { dst } -> InvAck { dst = f dst }
    | AckCount r -> AckCount { r with dst = f r.dst }
    | Unblock r -> Unblock { r with src = f r.src }
    | WbReq r -> WbReq { r with src = f r.src }
    | WbGrant r -> WbGrant { r with dst = f r.dst }
    | WbCancel r -> WbCancel { r with dst = f r.dst }
    | WbData r -> WbData { r with src = f r.src }
  in
  {
    s with
    cs = permute_positions s.cs;
    dir =
      {
        s.dir with
        owner = Option.map f s.dir.owner;
        sharers = fbits s.dir.sharers;
        cur = Option.map (fun (c, t) -> (f c, t)) s.dir.cur;
        defer = List.map fmsg s.dir.defer;  (* FIFO: order is meaningful, keep it *)
        wb_from = Option.map f s.dir.wb_from;
      };
    net = norm_net (List.map fmsg s.net);
  }

let canonicalize p = Symmetry.canonical ~apply:(apply_perm p) ~movable:(movable p)

let flat_sym p : (module Explore.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name = Printf.sprintf "Flat directory MOESI (%d caches)" p.caches
    let initial = [ initial_state p ]

    (* a TWaitM completes only once its grant (with txn id) arrived *)
    let try_complete_m c =
      match c.tr with
      | TWaitM { have_data = true; got; need = Some n; txn = Some txn } when got >= n ->
        Some ({ c with st = M; tr = TNone }, txn)
      | TWaitM _ | TWaitS | TNone -> None

    (* Deliver network message index [i]. *)
    let deliver s i =
      let msg = nth s.net i in
      let net = norm_net (List.filteri (fun j _ -> j <> i) s.net) in
      let s = { s with net } in
      let cache dst = nth s.cs dst in
      let setc dst c = { s with cs = set_nth s.cs dst c } in
      match msg with
      | GetS _ | GetM _ | WbReq _ ->
        (* FIFO, as the simulator's home: an arrival at an idle
           directory still queues behind older deferred requests *)
        if s.dir.busy || s.dir.defer <> [] then
          Some ("defer", { s with dir = { s.dir with defer = s.dir.defer @ [ msg ] } })
        else Option.map (fun s -> ("dir", s)) (dir_process p s msg)
      | DataS { dst; ver; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitS ->
          let s = setc dst { c with st = S; ver; tr = TNone } in
          Option.map (fun s -> ("dataS", s)) (send p s [ Unblock { src = dst; txn } ])
        | TWaitM _ | TNone -> Some ("dataS-drop", s))
      | DataE { dst; ver; acks; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data = _; got; need; txn = _ } ->
          let need = Some (acks + match need with Some n -> n | None -> 0) in
          let c = { c with ver; tr = TWaitM { have_data = true; got; need; txn = Some txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> ("dataE", s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some ("dataE", s))
        | TWaitS | TNone -> Some ("dataE-drop", s))
      | AckCount { dst; acks; txn } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data; got; need; txn = _ } ->
          let have_data = have_data || (match c.st with O | E | M -> true | S | I -> false) in
          let need = Some (acks + match need with Some n -> n | None -> 0) in
          let c = { c with tr = TWaitM { have_data; got; need; txn = Some txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> ("acks", s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some ("acks", s))
        | TWaitS | TNone -> Some ("acks-drop", s))
      | InvAck { dst } -> (
        let c = cache dst in
        match c.tr with
        | TWaitM { have_data; got; need; txn } ->
          let c = { c with tr = TWaitM { have_data; got = got + 1; need; txn } } in
          let c, completed =
            match try_complete_m c with Some (c, txn) -> (c, Some txn) | None -> (c, None)
          in
          let s = setc dst c in
          (match completed with
          | Some txn ->
            Option.map (fun s -> ("invack", s)) (send p s [ Unblock { src = dst; txn } ])
          | None -> Some ("invack", s))
        | TWaitS | TNone -> Some ("invack-drop", s))
      | FwdS { dst; req; txn } -> (
        let c = cache dst in
        match c.st with
        | M | E | O ->
          let st = match c.st with M -> O | E -> S | other -> other in
          let s = setc dst { c with st } in
          Option.map
            (fun s -> ("fwdS", s))
            (send p s [ DataS { dst = req; ver = c.ver; txn } ])
        | S | I -> (
          match c.wb with
          | Some (wst, wver) ->
            let wst = match wst with M -> O | E -> S | other -> other in
            let s = setc dst { c with wb = Some (wst, wver) } in
            Option.map
              (fun s -> ("fwdS-wb", s))
              (send p s [ DataS { dst = req; ver = wver; txn } ])
          | None -> Some ("fwdS-stale", s)))
      | FwdM { dst; req; acks; txn } -> (
        let c = cache dst in
        match c.st with
        | M | E | O ->
          let s = setc dst { c with st = I } in
          Option.map
            (fun s -> ("fwdM", s))
            (send p s [ DataE { dst = req; ver = c.ver; acks; txn } ])
        | S | I -> (
          match c.wb with
          | Some (_, wver) ->
            let s = setc dst { c with wb = None; wb_serial = 0 } in
            Option.map
              (fun s -> ("fwdM-wb", s))
              (send p s [ DataE { dst = req; ver = wver; acks; txn } ])
          | None -> Some ("fwdM-stale", s)))
      | Inv { dst; req } ->
        let c = cache dst in
        let c = match c.st with S | O -> { c with st = I } | M | E | I -> c in
        (* an upgrade in flight loses its cached data with the copy *)
        let c =
          match c.tr with
          | TWaitM { have_data = true; got; need; txn } when c.st = I ->
            { c with tr = TWaitM { have_data = false; got; need; txn } }
          | TWaitM _ | TWaitS | TNone -> c
        in
        let s = setc dst c in
        Option.map (fun s -> ("inv", s)) (send p s [ InvAck { dst = req } ])
      | Unblock { src; txn } ->
        if s.dir.cur = Some (src, txn) then
          Some ("unblock", { s with dir = { s.dir with busy = false; cur = None } })
        else Some ("unblock-drop", s)
      | WbGrant { dst; serial } -> (
        let c = cache dst in
        match c.wb with
        | Some (_, wver) when serial = c.wb_serial ->
          let s = setc dst { c with wb = None; wb_serial = 0 } in
          Option.map
            (fun s -> ("wbgrant", s))
            (send p s [ WbData { src = dst; ver = wver; valid = true } ])
        | Some _ | None ->
          (* stale grant for an already-consumed buffer instance *)
          Option.map
            (fun s -> ("wbgrant-stale", s))
            (send p s [ WbData { src = dst; ver = 0; valid = false } ]))
      | WbCancel { dst; serial } ->
        let c = cache dst in
        (* a cancel may only kill the buffer instance it answers *)
        let c =
          if serial = c.wb_serial && c.wb <> None then { c with wb = None; wb_serial = 0 }
          else c
        in
        Some ("wbcancel", setc dst c)
      | WbData { src; ver; valid } ->
        let d = s.dir in
        if d.wb_from = Some src then begin
          let d =
            if valid then { d with owner = None; busy = false; wb_from = None }
            else { d with busy = false; wb_from = None }
          in
          Some ("wbdata", { s with dir = d; memver = (if valid then ver else s.memver) })
        end
        else Some ("wbdata-drop", s)

    let next s =
      let moves = ref [] in
      let add label st = moves := (label, normalize_serials p st) :: !moves in
      (* deliveries *)
      List.iteri
        (fun i _ -> match deliver s i with Some (l, st) -> add l st | None -> ())
        s.net;
      (* directory pops a deferred request once idle *)
      (match s.dir.defer with
      | first :: rest when not s.dir.busy -> (
        let s' = { s with dir = { s.dir with defer = rest } } in
        match dir_process p s' first with Some st -> add "dir-pop" st | None -> ())
      | _ -> ());
      (* cache-initiated actions *)
      List.iteri
        (fun c cache ->
          if cache.tr = TNone then begin
            (* requests: goal requesters re-request until their goal
               operation lands (an Inv can race ahead of it); others
               request freely *)
            let may_request = if c = writer || c = reader then nth s.reqs c <= 1 else true in
            if may_request && cache.wb = None then begin
              (if cache.st = I then
                 let tr = TWaitS in
                 let s' = { s with cs = set_nth s.cs c { cache with tr } } in
                 let s' =
                   if c = writer || c = reader then { s' with reqs = set_nth s.reqs c 1 }
                   else s'
                 in
                 match send p s' [ GetS { src = c } ] with
                 | Some st -> if c <> writer then add (Printf.sprintf "getS%d" c) st
                 | None -> ());
              match cache.st with
              | I | S | O ->
                let have_data = cache.st <> I in
                let tr = TWaitM { have_data; got = 0; need = None; txn = None } in
                let s' = { s with cs = set_nth s.cs c { cache with tr } } in
                let s' =
                  if c = writer || c = reader then { s' with reqs = set_nth s.reqs c 1 } else s'
                in
                (match send p s' [ GetM { src = c } ] with
                | Some st -> if c <> reader then add (Printf.sprintf "getM%d" c) st
                | None -> ())
              | E | M -> ()
            end;
            (* evictions *)
            match cache.st with
            | M | E | O when cache.wb = None -> (
              (* a fresh serial must exceed every serial still in
                 flight for this cache, or a floating stale cancel
                 could collide with the new buffer *)
              let serial =
                1
                + List.fold_left
                    (fun acc m ->
                      match m with
                      | WbReq { src; serial } when src = c -> max acc serial
                      | WbGrant { dst; serial } | WbCancel { dst; serial } when dst = c ->
                        max acc serial
                      | _ -> acc)
                    0
                    (s.net @ s.dir.defer)
              in
              let s' =
                {
                  s with
                  cs =
                    set_nth s.cs c
                      { cache with st = I; wb = Some (cache.st, cache.ver); wb_serial = serial };
                }
              in
              match send p s' [ WbReq { src = c; serial } ] with
              | Some st -> add (Printf.sprintf "evict%d" c) st
              | None -> ())
            | S ->
              add
                (Printf.sprintf "drop%d" c)
                { s with cs = set_nth s.cs c { cache with st = I } }
            | M | E | O | I -> ()
          end)
        s.cs;
      (* goal operations *)
      let w = nth s.cs writer in
      if nth s.reqs writer = 1 && (w.st = M || w.st = E) && s.written < p.max_writes then
        add "write"
          {
            s with
            written = s.written + 1;
            cs = set_nth s.cs writer { w with st = M; ver = s.written + 1 };
            reqs = set_nth s.reqs writer 2;
          };
      let r = nth s.cs reader in
      if nth s.reqs reader = 1 && r.st <> I && r.tr = TNone then
        add "read" { s with reqs = set_nth s.reqs reader 2 };
      !moves

    let invariant s =
      let excl =
        List.length (List.filter (fun c -> c.st = M || c.st = E) s.cs)
      in
      let valid = List.filter (fun c -> c.st <> I) s.cs in
      if excl > 1 then Error "two exclusive copies"
      else if excl = 1 && List.length valid > 1 then Error "exclusive copy alongside other copies"
      else if List.exists (fun c -> c.st <> I && c.ver <> s.written) s.cs then
        Error "readable copy with stale data (serial view broken)"
      else if
        List.exists
          (fun m ->
            match m with
            | DataS { ver; _ } | DataE { ver; _ } -> ver <> s.written
            | WbData { ver; valid = true; _ } -> ver <> s.written
            | _ -> false)
          s.net
      then Error "in-flight data is stale (serial view broken)"
      else Ok ()

    let goal s = s.reqs = [ 2; 2 ]
    let canonicalize = canonicalize p

    let pp fmt s =
      let st_name = function I -> "I" | S -> "S" | O -> "O" | E -> "E" | M -> "M" in
      Format.fprintf fmt "written=%d memver=%d reqs=%s@." s.written s.memver
        (String.concat "," (List.map string_of_int s.reqs));
      Format.fprintf fmt "  dir: owner=%s sharers=%x busy=%b cur=%s wb_from=%s defer=%d@."
        (match s.dir.owner with Some o -> string_of_int o | None -> "-")
        s.dir.sharers s.dir.busy
        (match s.dir.cur with Some (c, t) -> Printf.sprintf "%d.t%d" c t | None -> "-")
        (match s.dir.wb_from with Some c -> string_of_int c | None -> "-")
        (List.length s.dir.defer);
      List.iteri
        (fun i c ->
          Format.fprintf fmt "  cache%d: %s ver=%d tr=%s wb=%s#%d@." i (st_name c.st) c.ver
            (match c.tr with
            | TNone -> "-"
            | TWaitS -> "WaitS"
            | TWaitM { have_data; got; need; txn } ->
              Printf.sprintf "WaitM(data=%b,got=%d,need=%s,txn=%s)" have_data got
                (match need with Some n -> string_of_int n | None -> "?")
                (match txn with Some t -> string_of_int t | None -> "?"))
            (match c.wb with
            | Some (st, v) -> Printf.sprintf "%s@v%d" (st_name st) v
            | None -> "-")
            c.wb_serial)
        s.cs;
      List.iter
        (fun m ->
          Format.fprintf fmt "  net: %s@."
            (match m with
            | GetS { src } -> Printf.sprintf "GetS(%d)" src
            | GetM { src } -> Printf.sprintf "GetM(%d)" src
            | DataS { dst; ver; txn } -> Printf.sprintf "DataS(dst=%d,v=%d,t%d)" dst ver txn
            | DataE { dst; ver; acks; txn } ->
              Printf.sprintf "DataE(dst=%d,v=%d,acks=%d,t%d)" dst ver acks txn
            | FwdS { dst; req; txn } -> Printf.sprintf "FwdS(dst=%d,req=%d,t%d)" dst req txn
            | FwdM { dst; req; acks; txn } ->
              Printf.sprintf "FwdM(dst=%d,req=%d,acks=%d,t%d)" dst req acks txn
            | Inv { dst; req } -> Printf.sprintf "Inv(dst=%d,req=%d)" dst req
            | InvAck { dst } -> Printf.sprintf "InvAck(dst=%d)" dst
            | AckCount { dst; acks; txn } -> Printf.sprintf "AckCount(dst=%d,%d,t%d)" dst acks txn
            | Unblock { src; txn } -> Printf.sprintf "Unblock(%d,t%d)" src txn
            | WbReq { src; serial } -> Printf.sprintf "WbReq(%d,#%d)" src serial
            | WbGrant { dst; serial } -> Printf.sprintf "WbGrant(%d,#%d)" dst serial
            | WbCancel { dst; serial } -> Printf.sprintf "WbCancel(%d,#%d)" dst serial
            | WbData { src; ver; valid } -> Printf.sprintf "WbData(%d,v=%d,valid=%b)" src ver valid))
        s.net
  end)

let flat p = (flat_sym p :> (module Explore.MODEL))
