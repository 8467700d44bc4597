module E = Sim.Engine
module L = Interconnect.Layout
module F = Interconnect.Fabric
module MC = Interconnect.Msg_class

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type l1_state = M | O | Es | S

let l1_state_name = function M -> "M" | O -> "O" | Es -> "E" | S -> "S"

type l1_line = { mutable st : l1_state; mutable hold_until : Sim.Time.t }

(* Chip-level view kept by the home L2 bank, mirroring (with bounded
   staleness) the inter-CMP directory's opinion of this chip. *)
type chip_state =
  | CInv  (* chip holds nothing *)
  | CSh  (* chip holds read-only copies *)
  | COwn  (* chip owns the (possibly dirty) block, other chips share *)
  | CEx  (* chip is the exclusive holder *)

(* Local (intra-CMP) transaction at the home L2 bank. *)
type ltrans = {
  lt_kind : [ `S | `M ];
  lt_l1 : int;
  lt_home_bound : bool;  (* involves the inter-CMP directory *)
  mutable lt_await_data : bool;
  mutable lt_acks_expected : int;  (* chip-level inv acks *)
  mutable lt_acks_known : bool;
  mutable lt_acks_got : int;
  mutable lt_dirty : bool;
  mutable lt_excl : bool;
  mutable lt_origin : Msg.origin;
  mutable lt_done : bool;  (* data grant sent; awaiting only the unblock *)
}

(* External transaction (home forwarded another chip's request here). *)
type etrans = {
  et_kind : [ `S | `M ];
  et_requester_l2 : int;
  et_acks : int;  (* sharer-chip inv acks the requester must collect *)
}

type ldir = {
  mutable owner_l1 : int option;
  mutable sharers : int;  (* bitmask over local L1 index *)
  mutable chip : chip_state;
  mutable busy : bool;
  defer : (unit -> unit) Queue.t;  (* local requests *)
  defer_ext : (unit -> unit) Queue.t;  (* forwards from the home *)
  mutable tr : ltrans option;
  mutable ext : etrans option;
  mutable wb_from : int option;  (* L1 writeback being granted *)
}

type l2_line = { mutable l2_dirty : bool }

type l2_wb = { mutable wb_dirty : bool; mutable wb_stale : bool }

type mshr = {
  m_addr : Cache.Addr.t;
  m_rw : [ `R | `W ];
  m_upgrade : bool;  (* write miss on a line already present read-only *)
  m_commit : unit -> unit;
  m_issued : Sim.Time.t;
  m_tid : int;  (* transaction id for trace spans; unused by the protocol *)
  m_proc : int;
}

(* Inter-CMP directory entry at the home memory controller. *)
type cdir = {
  mutable owner : int option;  (* cmp *)
  mutable csharers : int;  (* cmp bitmask *)
  mutable cbusy : bool;
  cdefer : (unit -> unit) Queue.t;
}

type node = {
  id : int;
  kind : L.kind;
  (* L1 *)
  l1_lines : l1_line Cache.Sarray.t;
  l1_wb : (Cache.Addr.t, l1_state * int) Hashtbl.t;  (* buffered state, serial *)
  mutable wb_serial : int;
  mutable mshr : mshr option;
  (* L2 *)
  l2_data : l2_line Cache.Sarray.t;
  ldir : (Cache.Addr.t, ldir) Hashtbl.t;
  l2_wb : (Cache.Addr.t, l2_wb) Hashtbl.t;
  (* Mem *)
  cdir : (Cache.Addr.t, cdir) Hashtbl.t;
}

type t = {
  engine : E.t;
  cfg : Mcmp.Config.t;
  layout : L.t;
  fabric : Msg.t F.t;
  counters : Mcmp.Counters.t;
  nodes : node array;
  migratory : bool;
  dram_directory : bool;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let now t = E.now t.engine

let node_cmp n =
  match n.kind with
  | L.L1d { cmp; _ } | L.L1i { cmp; _ } | L.L2 { cmp; _ } | L.Mem { cmp } -> cmp

let home_mem t addr = L.mem t.layout ~cmp:(Cache.Addr.home_cmp ~ncmp:t.cfg.Mcmp.Config.ncmp addr)

let home_l2 t ~cmp addr =
  L.l2 t.layout ~cmp ~bank:(Cache.Addr.l2_bank ~nbanks:t.cfg.Mcmp.Config.l2_banks addr)

let local_l1_bit t id =
  match L.kind t.layout id with
  | L.L1d { proc; _ } -> 1 lsl proc
  | L.L1i { proc; _ } -> 1 lsl (t.layout.L.procs_per_cmp + proc)
  | L.L2 _ | L.Mem _ -> 0

(* Sharer-bitmap bit [i] is node [first_l1 + i] (see [local_l1_bit]),
   so the bitmap lifts straight into a destination mask. *)
let l1_dstset t cmp bits =
  Interconnect.Destset.of_bitfield ~bits ~base:(L.l1d t.layout ~cmp ~proc:0)

let get_ldir node addr =
  match Hashtbl.find_opt node.ldir addr with
  | Some d -> d
  | None ->
    let d =
      {
        owner_l1 = None;
        sharers = 0;
        chip = CInv;
        busy = false;
        defer = Queue.create ();
        defer_ext = Queue.create ();
        tr = None;
        ext = None;
        wb_from = None;
      }
    in
    Hashtbl.add node.ldir addr d;
    d

let get_cdir node addr =
  match Hashtbl.find_opt node.cdir addr with
  | Some d -> d
  | None ->
    let d = { owner = None; csharers = 0; cbusy = false; cdefer = Queue.create () } in
    Hashtbl.add node.cdir addr d;
    d

(* The chip's current data copy for [addr], if any: the L2 array or a
   pending chip-level writeback buffer. *)
let l2_chip_data node addr =
  match Cache.Sarray.find node.l2_data addr with
  | Some line -> Some line.l2_dirty
  | None -> (
    match Hashtbl.find_opt node.l2_wb addr with
    | Some wb when not wb.wb_stale -> Some wb.wb_dirty
    | Some _ | None -> None)

let ctrl t = t.cfg.Mcmp.Config.ctrl_bytes
let datab t = t.cfg.Mcmp.Config.data_bytes

let send1 t ~src ~dst ~cls ~bytes msg = F.send_one t.fabric ~src ~dst ~cls ~bytes msg

(* Directory state lives in DRAM alongside the data: a transaction that
   fetches data pays one DRAM access for both; state-only decisions
   (forwards, grants) pay the DRAM lookup only in the dram-directory
   configuration. *)
let dir_lookup t k =
  let d = if t.dram_directory then t.cfg.Mcmp.Config.dram_latency else 0 in
  E.schedule_in t.engine d k

(* ------------------------------------------------------------------ *)
(* Gating                                                              *)

(* Gating discipline for one block at an L2 bank.

   Local requests run only when no local transaction is busy and no
   external (home-forwarded) transaction is in flight. External
   forwards additionally may run while a HOME-BOUND local transaction
   waits: that transaction is deferred at the home behind the very
   transaction that produced the forward, so blocking the forward on it
   would deadlock the hierarchy -- the classic coupled-protocol race of
   Section 1. Chip-internal local transactions (which may have a
   forward of their own outstanding to a local L1) do block externals.
   Deferred work re-checks its gate when popped, and every release
   drains until something claims the block again. *)
let can_run_ext d =
  d.ext = None && d.wb_from = None
  &&
  (* Home-bound transactions must admit external forwards (the home may
     be serving another chip and waiting on us), but not once the data
     grant has been sent: until the grantee's unblock arrives the grant
     is still in flight, and a forward or invalidation racing ahead of
     it would reach an L1 that has not received its data yet. That
     window is bounded by local latency, so deferring is deadlock-free. *)
  match d.tr with
  | Some tr -> tr.lt_home_bound && not tr.lt_done
  | None -> not d.busy

let rec drain_ldir node addr =
  let d = get_ldir node addr in
  if can_run_ext d && not (Queue.is_empty d.defer_ext) then begin
    (match Queue.take_opt d.defer_ext with Some k -> k () | None -> ());
    drain_ldir node addr
  end
  else if (not d.busy) && d.ext = None && not (Queue.is_empty d.defer) then begin
    (match Queue.take_opt d.defer with Some k -> k () | None -> ());
    drain_ldir node addr
  end

let release_ldir node addr =
  let d = get_ldir node addr in
  d.busy <- false;
  drain_ldir node addr

let gate_local node addr start =
  let d = get_ldir node addr in
  let rec k () =
    let d = get_ldir node addr in
    if d.busy || d.ext <> None then Queue.push k d.defer else start ()
  in
  if d.busy || d.ext <> None then Queue.push k d.defer
  else begin
    start ();
    (* the transaction just started may be home-bound, unblocking
       queued external forwards *)
    drain_ldir node addr
  end

(* The home directory runs a request at once when the block is idle and
   queues it otherwise. *)
let gate_home d start = if d.cbusy then Queue.push start d.cdefer else start ()

(* Start deferred requests while the home stays idle: a deferred
   writeback request that has gone stale is cancelled and leaves the
   home idle. *)
let release_cdir node addr =
  let d = get_cdir node addr in
  d.cbusy <- false;
  while (not d.cbusy) && not (Queue.is_empty d.cdefer) do
    (Queue.pop d.cdefer) ()
  done

(* A local transaction of [kind] for [l1]. Only a home-bound one waits
   for the home to say how many chip-level acks to collect; only a GETM
   grants exclusively from the start. *)
let local_trans kind ~l1 ~home_bound ~await_data ~origin =
  {
    lt_kind = kind;
    lt_l1 = l1;
    lt_home_bound = home_bound;
    lt_await_data = await_data;
    lt_acks_expected = 0;
    lt_acks_known = not home_bound;
    lt_acks_got = 0;
    lt_dirty = false;
    lt_excl = kind = `M;
    lt_origin = origin;
    lt_done = false;
  }

(* ------------------------------------------------------------------ *)
(* Forward declarations via mutual recursion                           *)

(* ---- L2 data array management ---- *)

(* Evict the LRU L2 data line to make room; dirty chip-owned data (and
   clean exclusively-held data) relinquishes chip ownership with a
   three-phase writeback to home. *)
let rec evict_l2_data t node vaddr (vline : l2_line) =
  Cache.Sarray.remove node.l2_data vaddr;
  let d = get_ldir node vaddr in
  let chip_responsible = d.owner_l1 = None && (d.chip = CEx || d.chip = COwn) in
  if chip_responsible then begin
    t.counters.Mcmp.Counters.writebacks <- t.counters.Mcmp.Counters.writebacks + 1;
    let still_shared = d.sharers <> 0 in
    Hashtbl.replace node.l2_wb vaddr { wb_dirty = vline.l2_dirty; wb_stale = false };
    send1 t ~src:node.id ~dst:(home_mem t vaddr) ~cls:MC.Writeback_control ~bytes:(ctrl t)
      (Msg.C_wb_req
         { addr = vaddr; cmp = node_cmp node; l2 = node.id; dirty = vline.l2_dirty; still_shared })
  end

and install_l2_data t node addr ~dirty =
  match Cache.Sarray.find node.l2_data addr with
  | Some line -> line.l2_dirty <- line.l2_dirty || dirty
  | None ->
    (match Cache.Sarray.victim_for node.l2_data addr with
    | Some (vaddr, vline) -> evict_l2_data t node vaddr vline
    | None -> ());
    Cache.Sarray.insert node.l2_data addr { l2_dirty = dirty }

and drop_l2_data node addr =
  Cache.Sarray.remove node.l2_data addr;
  match Hashtbl.find_opt node.l2_wb addr with
  | Some wb -> wb.wb_stale <- true
  | None -> ()

(* ---- Local invalidations (fire-and-forget; acks are traffic-only) ---- *)

and invalidate_local_sharers t node addr ~except =
  let d = get_ldir node addr in
  let bits = d.sharers land lnot except in
  d.sharers <- d.sharers land except;
  let dsts = l1_dstset t (node_cmp node) bits in
  if not (Interconnect.Destset.is_empty dsts) then
    F.send_set t.fabric ~src:node.id ~dsts ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
      (Msg.L1_inv { addr })

(* ------------------------------------------------------------------ *)
(* L1 side                                                             *)

and l1_line node addr = Cache.Sarray.find node.l1_lines addr

(* Trace an L1 line's state change ("I": no line). *)
and l1_fsm t node addr ~from_state ~to_state =
  if E.tracing t.engine then
    E.emit t.engine (Obs.Event.Fsm { node = node.id; addr; fsm = "l1"; from_state; to_state })

(* Install a granted block at the requesting L1, evicting if needed. *)
and l1_install t node addr st =
  let line, from_state =
    match Cache.Sarray.find node.l1_lines addr with
    | Some line ->
      let from_state = l1_state_name line.st in
      line.st <- st;
      Cache.Sarray.touch node.l1_lines addr;
      (line, from_state)
    | None ->
      (match Cache.Sarray.victim_for node.l1_lines addr with
      | Some (vaddr, vline) -> l1_evict t node vaddr vline
      | None -> ());
      let line = { st; hold_until = 0 } in
      Cache.Sarray.insert node.l1_lines addr line;
      (line, "I")
  in
  l1_fsm t node addr ~from_state ~to_state:(l1_state_name st);
  line

and l1_evict t node vaddr (vline : l1_line) =
  Cache.Sarray.remove node.l1_lines vaddr;
  l1_fsm t node vaddr ~from_state:(l1_state_name vline.st) ~to_state:"I";
  match vline.st with
  | S -> ()  (* silent drop; stale sharer bits are tolerated *)
  | M | O | Es ->
    t.counters.Mcmp.Counters.writebacks <- t.counters.Mcmp.Counters.writebacks + 1;
    node.wb_serial <- node.wb_serial + 1;
    Hashtbl.replace node.l1_wb vaddr (vline.st, node.wb_serial);
    let dirty = vline.st <> Es in
    send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) vaddr) ~cls:MC.Writeback_control
      ~bytes:(ctrl t)
      (Msg.L1_wb_req { addr = vaddr; l1 = node.id; dirty; serial = node.wb_serial })

(* Owner L1 answers a forward from its L2 bank, possibly from the
   writeback buffer. Deferred by the response-delay window. *)
and l1_handle_fwd t node addr ~getm =
  let rec attempt () =
    let buffered = Hashtbl.find_opt node.l1_wb addr in
    let line = l1_line node addr in
    let st =
      match (line, buffered) with
      | Some l, _ -> Some l.st
      | None, Some (st, _) -> Some st
      | None, None -> None
    in
    match st with
    | None ->
      (* Reachable only through the writeback race: our wb_grant
         consumed the buffer and the wb_data carrying the block is in
         flight to the L2, which still records us as owner. Answer
         clean so the L2 falls back to the arriving writeback copy.
         (Forwards deferred during grant-in-flight windows and
         fire-and-forget migrate cleanups keep every other stale-owner
         path closed; answering from one of those here is how stale
         forwards used to steal live grants.) *)
      send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr) ~cls:MC.Response_data
        ~bytes:(datab t)
        (Msg.L1_owner_data { addr; l1 = node.id; dirty = false; migrated = false })
    | Some st ->
      let hold = match line with Some l -> l.hold_until | None -> 0 in
      if now t < hold then E.schedule_at t.engine hold attempt
      else begin
        let dirty = st = M || st = O in
        let migrated = getm || (t.migratory && st = M) in
        (* State update: GETM or migratory GETS invalidates; GETS
           downgrades M/Es to O/S. *)
        (if migrated then begin
           (match line with Some _ -> Cache.Sarray.remove node.l1_lines addr | None -> ());
           Hashtbl.remove node.l1_wb addr
         end
         else begin
           (match line with
           | Some l -> l.st <- (match l.st with M -> O | Es -> S | O -> O | S -> S)
           | None -> ());
           match Hashtbl.find_opt node.l1_wb addr with
           | Some (st, serial) ->
             Hashtbl.replace node.l1_wb addr
               ((match st with M -> O | Es -> S | other -> other), serial)
           | None -> ()
         end);
        send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr) ~cls:MC.Response_data
          ~bytes:(datab t)
          (Msg.L1_owner_data { addr; l1 = node.id; dirty; migrated })
      end
  in
  E.schedule_in t.engine t.cfg.Mcmp.Config.l1_latency attempt

and l1_handle_inv t node addr =
  E.schedule_in t.engine t.cfg.Mcmp.Config.l1_latency (fun () ->
      (match l1_line node addr with
      | Some line ->
        Cache.Sarray.remove node.l1_lines addr;
        l1_fsm t node addr ~from_state:(l1_state_name line.st) ~to_state:"I"
      | None -> ());
      (* Ack is traffic-only: local invalidations are serialized at the
         L2 bank, so nothing waits on it. *)
      send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr) ~cls:MC.Inv_fwd_ack_tokens
        ~bytes:(ctrl t)
        (Msg.L1_inv_ack { addr; l1 = node.id }))

and l1_handle_data t node addr ~excl ~dirty ~origin ~unblock =
  let m =
    match node.mshr with
    | Some m when m.m_addr = addr -> m
    | Some _ | None -> assert false
  in
  (* Runs at delivery time, so this response marker lands at the exact
     instant the fabric's hop record says the data arrived — that
     match is what charges the hop's queue/flight to the span. *)
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Req_response
         { tid = m.m_tid; node = node.id; src = home_l2 t ~cmp:(node_cmp node) addr });
  node.mshr <- None;
  let st =
    if excl then if m.m_rw = `W || dirty then M else Es
    else S
  in
  let line = l1_install t node addr st in
  if m.m_rw = `W then begin
    line.st <- M;
    line.hold_until <- now t + t.cfg.Mcmp.Config.response_delay
  end;
  let c = t.counters in
  let lat_ns = Sim.Time.to_ns (now t - m.m_issued) in
  (* Upgrade outranks the fill origin: a write miss on a resident line
     is a permission fetch even when acks come from another chip. *)
  let cause =
    if m.m_upgrade then Obs.Event.Upgrade
    else
      match origin with
      | Msg.Chip -> Obs.Event.Sharing_local
      | Msg.Remote -> Obs.Event.Sharing_remote
      | Msg.Memdram -> Obs.Event.Cold
  in
  Mcmp.Counters.record_miss c ~cause lat_ns;
  (match origin with
  | Msg.Chip -> c.Mcmp.Counters.l2_local_fills <- c.Mcmp.Counters.l2_local_fills + 1
  | Msg.Remote -> c.Mcmp.Counters.remote_fills <- c.Mcmp.Counters.remote_fills + 1
  | Msg.Memdram -> c.Mcmp.Counters.mem_fills <- c.Mcmp.Counters.mem_fills + 1);
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Req_retire
         { tid = m.m_tid; node = node.id; proc = m.m_proc; addr;
           rw = (match m.m_rw with `W -> Obs.Event.W | `R -> Obs.Event.R);
           fill =
             (match origin with
             | Msg.Chip -> Obs.Event.Fill_l2
             | Msg.Remote -> Obs.Event.Fill_remote
             | Msg.Memdram -> Obs.Event.Fill_memory);
           cause; retries = 0; persistent = false });
  (* Only transaction grants hold the block busy at the L2; a direct
     response must not emit an unblock that could clear an unrelated
     in-flight transaction. *)
  if unblock then
    send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr) ~cls:MC.Unblock
      ~bytes:(ctrl t)
      (Msg.L1_unblock { addr; l1 = node.id });
  m.m_commit ()

(* ------------------------------------------------------------------ *)
(* L2 bank: local transactions                                         *)

and maybe_complete_local t node addr =
  let d = get_ldir node addr in
  match d.tr with
  | None -> ()
  | Some tr ->
    if
      (not tr.lt_done) && (not tr.lt_await_data) && tr.lt_acks_known
      && tr.lt_acks_got >= tr.lt_acks_expected
    then begin
      tr.lt_done <- true;
      let excl = tr.lt_excl in
      (* Origin stays Memdram exactly when the home memory served the
         data after its DRAM wait, so charge that wait to the span. *)
      if E.tracing t.engine && tr.lt_origin = Msg.Memdram then
        E.emit t.engine
          (Obs.Event.Mem_hop
             { requester = tr.lt_l1;
               ns = Sim.Time.to_ns t.cfg.Mcmp.Config.dram_latency });
      send1 t ~src:node.id ~dst:tr.lt_l1 ~cls:MC.Response_data ~bytes:(datab t)
        (Msg.L1_data
           { addr; excl; dirty = tr.lt_dirty; origin = tr.lt_origin; unblock = true });
      if excl then begin
        d.owner_l1 <- Some tr.lt_l1;
        d.sharers <- 0;
        d.chip <- CEx;
        drop_l2_data node addr
      end
      else begin
        d.sharers <- d.sharers lor local_l1_bit t tr.lt_l1;
        if d.chip = CInv then d.chip <- CSh
      end;
      if tr.lt_home_bound then
        send1 t ~src:node.id ~dst:(home_mem t addr) ~cls:MC.Unblock ~bytes:(ctrl t)
          (Msg.C_unblock { addr; cmp = node_cmp node; excl; shared = not excl })
      (* busy stays set until the L1's unblock *)
    end

and l2_handle_local_gets t node addr ~l1 =
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Lookup
         { node = node.id; level = Obs.Event.L2; addr;
           hit = l2_chip_data node addr <> None });
  let d = get_ldir node addr in
  let start () =
    match d.owner_l1 with
    | Some o when o <> l1 ->
      (* Data lives in a local L1: forward; completes on owner data. *)
      d.busy <- true;
      d.tr <-
        Some (local_trans `S ~l1 ~home_bound:false ~await_data:true ~origin:Msg.Chip);
      send1 t ~src:node.id ~dst:o ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
        (Msg.L1_fwd_gets { addr })
    | Some _ | None -> (
      match l2_chip_data node addr with
      | Some dirty ->
        (* Direct response, no busy state needed. *)
        d.sharers <- d.sharers lor local_l1_bit t l1;
        if d.chip = CInv then d.chip <- CSh;
        Cache.Sarray.touch node.l2_data addr;
        send1 t ~src:node.id ~dst:l1 ~cls:MC.Response_data ~bytes:(datab t)
          (Msg.L1_data { addr; excl = false; dirty; origin = Msg.Chip; unblock = false })
      | None ->
        (* Chip has nothing usable: ask the inter-CMP directory. *)
        d.busy <- true;
        d.tr <-
          Some (local_trans `S ~l1 ~home_bound:true ~await_data:true ~origin:Msg.Memdram);
        send1 t ~src:node.id ~dst:(home_mem t addr) ~cls:MC.Request ~bytes:(ctrl t)
          (Msg.C_gets { addr; l2 = node.id }))
  in
  gate_local node addr start

and l2_handle_local_getm t node addr ~l1 =
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Lookup
         { node = node.id; level = Obs.Event.L2; addr;
           hit = l2_chip_data node addr <> None });
  let d = get_ldir node addr in
  let start () =
    d.busy <- true;
    let chip_satisfiable = d.chip = CEx in
    let requester_has_data =
      match d.owner_l1 with Some o -> o = l1 | None -> false
    in
    let tr =
      local_trans `M ~l1 ~home_bound:(not chip_satisfiable) ~await_data:false ~origin:Msg.Chip
    in
    d.tr <- Some tr;
    invalidate_local_sharers t node addr ~except:(local_l1_bit t l1);
    if chip_satisfiable then begin
      (match d.owner_l1 with
      | Some o when o <> l1 ->
        tr.lt_await_data <- true;
        send1 t ~src:node.id ~dst:o ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
          (Msg.L1_fwd_getm { addr })
      | Some _ -> ()  (* upgrading owner keeps its data *)
      | None -> (
        match l2_chip_data node addr with
        | Some dirty -> tr.lt_dirty <- dirty
        | None -> assert false (* CEx chips hold data somewhere *)));
      maybe_complete_local t node addr
    end
    else begin
      (* Need the inter-CMP directory: permissions, remote invs, and
         possibly data. Data may be local (L2 copy or an owning L1) but
         is only trusted once the home confirms this chip still owns
         the block (C_acks_expected); otherwise the forwarded owner's
         C_data supplies it. lt_acks_known stays false until then, so
         no early grant can race with a concurrent remote writer. *)
      if not requester_has_data then
        tr.lt_await_data <- (match l2_chip_data node addr with
          | Some dirty ->
            tr.lt_dirty <- dirty;
            false
          | None -> true);
      send1 t ~src:node.id ~dst:(home_mem t addr) ~cls:MC.Request ~bytes:(ctrl t)
        (Msg.C_getm { addr; l2 = node.id });
      maybe_complete_local t node addr
    end
  in
  gate_local node addr start

and l2_handle_owner_data t node addr ~dirty ~migrated =
  let d = get_ldir node addr in
  match (d.ext, d.tr) with
  | Some ext, _ -> l2_ext_owner_data t node addr ext ~dirty ~migrated
  | None, Some tr when tr.lt_await_data ->
    tr.lt_await_data <- false;
    tr.lt_dirty <- dirty;
    (match tr.lt_kind with
    | `M ->
      d.owner_l1 <- None  (* invalidated by the fwd *)
    | `S ->
      if migrated then begin
        tr.lt_excl <- true;
        d.owner_l1 <- None
      end
      else
        (* Owner downgraded to O and keeps supplying data; cache a copy
           at the L2 as well. *)
        install_l2_data t node addr ~dirty);
    maybe_complete_local t node addr
  | None, (Some _ | None) -> ()

and l2_handle_unblock node addr =
  let d = get_ldir node addr in
  match d.tr with
  | Some _ ->
    d.tr <- None;
    release_ldir node addr
  | None -> ()  (* unblock of a direct response: nothing was held *)

(* ---- L1 writebacks at the L2 ---- *)

and l2_handle_wb_req t node addr ~l1 ~serial =
  let d = get_ldir node addr in
  let start () =
    if d.owner_l1 = Some l1 then begin
      d.busy <- true;
      d.wb_from <- Some l1;
      send1 t ~src:node.id ~dst:l1 ~cls:MC.Writeback_control ~bytes:(ctrl t)
        (Msg.L1_wb_grant { addr; serial })
    end
    else
      send1 t ~src:node.id ~dst:l1 ~cls:MC.Writeback_control ~bytes:(ctrl t)
        (Msg.L1_wb_cancel { addr; serial })
  in
  gate_local node addr start

and l2_handle_wb_data t node addr ~dirty ~valid =
  let d = get_ldir node addr in
  (* an invalid reply answers a stale grant: nothing was written back,
     so neither data nor ownership state may change *)
  if valid then begin
    install_l2_data t node addr ~dirty;
    d.owner_l1 <- None
  end;
  d.wb_from <- None;
  release_ldir node addr

(* ------------------------------------------------------------------ *)
(* L2 bank: external (inter-CMP) traffic                               *)

and l2_defer_ext_if_internal node addr k =
  let d = get_ldir node addr in
  if can_run_ext d then k () else Queue.push k d.defer_ext

and l2_handle_c_fwd t node addr ~requester_l2 ~getm ~acks =
  l2_defer_ext_if_internal node addr (fun () ->
      let d = get_ldir node addr in
      d.ext <-
        Some { et_kind = (if getm then `M else `S); et_requester_l2 = requester_l2; et_acks = acks };
      if getm then invalidate_local_sharers t node addr ~except:0;
      match d.owner_l1 with
      | Some o -> l1_send_fwd_for_ext t node addr o ~getm
      | None -> (
        match l2_chip_data node addr with
        | Some dirty -> l2_ext_owner_data t node addr
                          (match d.ext with Some e -> e | None -> assert false)
                          ~dirty ~migrated:false
        | None ->
          (* Lost data (should not happen): fall back to a clean reply. *)
          l2_ext_owner_data t node addr
            (match d.ext with Some e -> e | None -> assert false)
            ~dirty:false ~migrated:false))

and l1_send_fwd_for_ext t node addr o ~getm =
  send1 t ~src:node.id ~dst:o ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
    (if getm then Msg.L1_fwd_getm { addr } else Msg.L1_fwd_gets { addr })

(* The chip's data (from an L1 or the L2 itself) is ready to ship to the
   external requester. *)
and l2_ext_owner_data t node addr ext ~dirty ~migrated =
  let d = get_ldir node addr in
  let getm = ext.et_kind = `M in
  let migrate_chip =
    getm || migrated || (t.migratory && dirty && d.sharers = 0 && d.owner_l1 <> None)
  in
  let migrate_chip =
    (* L2-held dirty data migrates on GETS too when nothing local shares. *)
    migrate_chip || (t.migratory && dirty && d.sharers = 0 && d.owner_l1 = None && getm = false)
  in
  let excl = getm || migrate_chip in
  (match ext.et_kind with
  | `M ->
    d.owner_l1 <- None;
    d.sharers <- 0;
    d.chip <- CInv;
    drop_l2_data node addr
  | `S ->
    if migrate_chip then begin
      (* A mig=true responder already invalidated itself; an O-state
         responder kept its line and must be told to drop it. Use a
         fire-and-forget invalidation, not a forward: a forward elicits
         an owner-data response, and that stray response could arrive
         epochs later and be mistaken for a live transaction's data. *)
      (match d.owner_l1 with
      | Some o when not migrated ->
        send1 t ~src:node.id ~dst:o ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
          (Msg.L1_inv { addr })
      | Some _ | None -> ());
      d.owner_l1 <- None;
      d.sharers <- 0;
      d.chip <- CInv;
      drop_l2_data node addr
    end
    else begin
      if not migrated then install_l2_data t node addr ~dirty;
      d.chip <- COwn
    end);
  d.ext <- None;
  send1 t ~src:node.id ~dst:ext.et_requester_l2 ~cls:MC.Response_data ~bytes:(datab t)
    (Msg.C_data { addr; excl; dirty; from_home = false; acks = ext.et_acks });
  drain_ldir node addr

and l2_handle_c_inv t node addr ~requester_l2 =
  let d = get_ldir node addr in
  invalidate_local_sharers t node addr ~except:0;
  drop_l2_data node addr;
  d.chip <- CInv;
  send1 t ~src:node.id ~dst:requester_l2 ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
    (Msg.C_inv_ack { addr })

and l2_handle_c_data t node addr ~excl ~dirty ~from_home ~acks =
  let d = get_ldir node addr in
  match d.tr with
  | Some tr ->
    tr.lt_await_data <- false;
    tr.lt_dirty <- tr.lt_dirty || dirty;
    if excl then tr.lt_excl <- true;
    tr.lt_acks_expected <- tr.lt_acks_expected + acks;
    tr.lt_acks_known <- true;
    tr.lt_origin <- (if from_home then Msg.Memdram else Msg.Remote);
    if not tr.lt_excl then install_l2_data t node addr ~dirty;
    maybe_complete_local t node addr
  | None -> ()

and l2_handle_c_acks_expected t node addr ~acks =
  let d = get_ldir node addr in
  match d.tr with
  | Some tr ->
    tr.lt_acks_expected <- tr.lt_acks_expected + acks;
    tr.lt_acks_known <- true;
    (* The home replied instead of forwarding: this chip holds the
       data. The home stays busy until our unblock, so no external
       transaction can interfere with a local fetch. *)
    if tr.lt_await_data then begin
      match d.owner_l1 with
      | Some o when o <> tr.lt_l1 ->
        send1 t ~src:node.id ~dst:o ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
          (Msg.L1_fwd_getm { addr })
      | Some _ | None -> (
        match l2_chip_data node addr with
        | Some dirty ->
          tr.lt_await_data <- false;
          tr.lt_dirty <- tr.lt_dirty || dirty
        | None -> ())
    end;
    maybe_complete_local t node addr
  | None -> ()

and l2_handle_c_inv_ack t node addr =
  let d = get_ldir node addr in
  match d.tr with
  | Some tr ->
    tr.lt_acks_got <- tr.lt_acks_got + 1;
    maybe_complete_local t node addr
  | None -> ()

(* A grant with no buffer left (or a stale one) is answered cancelled,
   control-sized. *)
and l2_handle_c_wb_grant t node addr =
  let cancelled, dirty, still_shared =
    match Hashtbl.find_opt node.l2_wb addr with
    | Some wb ->
      Hashtbl.remove node.l2_wb addr;
      let d = get_ldir node addr in
      let still_shared = d.sharers <> 0 in
      if not wb.wb_stale then d.chip <- (if still_shared then CSh else CInv);
      (wb.wb_stale, wb.wb_dirty, still_shared)
    | None -> (true, false, false)
  in
  send1 t ~src:node.id ~dst:(home_mem t addr)
    ~cls:(if cancelled then MC.Writeback_control else MC.Writeback_data)
    ~bytes:(if cancelled then ctrl t else datab t)
    (Msg.C_wb_data { addr; cmp = node_cmp node; dirty; still_shared; cancelled })

and l2_handle_c_wb_cancel node addr = Hashtbl.remove node.l2_wb addr

(* ------------------------------------------------------------------ *)
(* Home memory controller (inter-CMP directory)                        *)

and cmp_bits_to_l2s t addr bits ~except =
  List.concat_map
    (fun cmp ->
      if cmp = except || bits land (1 lsl cmp) = 0 then [] else [ home_l2 t ~cmp addr ])
    (List.init t.cfg.Mcmp.Config.ncmp (fun c -> c))

and mem_handle_gets t node addr ~l2 =
  let d = get_cdir node addr in
  let cmp = L.cmp_of t.layout l2 in
  let start () =
    d.cbusy <- true;
    match d.owner with
    | Some oc when oc <> cmp ->
      t.counters.Mcmp.Counters.dir_indirections <-
        t.counters.Mcmp.Counters.dir_indirections + 1;
      if E.tracing t.engine then
        E.emit t.engine (Obs.Event.Dir_indirection { node = node.id; addr; write = false });
      dir_lookup t (fun () ->
          send1 t ~src:node.id ~dst:(home_l2 t ~cmp:oc addr) ~cls:MC.Inv_fwd_ack_tokens
            ~bytes:(ctrl t)
            (Msg.C_fwd_gets { addr; requester_l2 = l2 }))
    | Some _ | None ->
      (* Grant from memory data: shared when the requester owns it at
         chip level or another chip shares it, else exclusive. *)
      let excl = d.owner = None && d.csharers = 0 in
      E.schedule_in t.engine t.cfg.Mcmp.Config.dram_latency (fun () ->
          send1 t ~src:node.id ~dst:l2 ~cls:MC.Response_data ~bytes:(datab t)
            (Msg.C_data { addr; excl; dirty = false; from_home = true; acks = 0 }))
  in
  gate_home d start

and mem_handle_getm t node addr ~l2 =
  let d = get_cdir node addr in
  let cmp = L.cmp_of t.layout l2 in
  let start () =
    d.cbusy <- true;
    let others = d.csharers land lnot (1 lsl cmp) in
    let inv_targets = cmp_bits_to_l2s t addr others ~except:cmp in
    List.iter
      (fun dst ->
        send1 t ~src:node.id ~dst ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
          (Msg.C_inv { addr; requester_l2 = l2 }))
      inv_targets;
    let nacks = List.length inv_targets in
    match d.owner with
    | Some oc when oc <> cmp ->
      t.counters.Mcmp.Counters.dir_indirections <-
        t.counters.Mcmp.Counters.dir_indirections + 1;
      if E.tracing t.engine then
        E.emit t.engine (Obs.Event.Dir_indirection { node = node.id; addr; write = true });
      send1 t ~src:node.id ~dst:(home_l2 t ~cmp:oc addr) ~cls:MC.Inv_fwd_ack_tokens
        ~bytes:(ctrl t)
        (Msg.C_fwd_getm { addr; requester_l2 = l2; acks = nacks })
    | Some _ ->
      (* Upgrade by the owning chip: permissions + acks only. *)
      send1 t ~src:node.id ~dst:l2 ~cls:MC.Inv_fwd_ack_tokens ~bytes:(ctrl t)
        (Msg.C_acks_expected { addr; acks = nacks })
    | None ->
      E.schedule_in t.engine t.cfg.Mcmp.Config.dram_latency (fun () ->
          send1 t ~src:node.id ~dst:l2 ~cls:MC.Response_data ~bytes:(datab t)
            (Msg.C_data { addr; excl = true; dirty = false; from_home = true; acks = nacks }))
  in
  gate_home d start

and mem_handle_unblock node addr ~cmp ~excl ~shared =
  let d = get_cdir node addr in
  if excl then begin
    d.owner <- Some cmp;
    d.csharers <- 0
  end
  else if shared then d.csharers <- d.csharers lor (1 lsl cmp);
  release_cdir node addr

and mem_handle_wb_req t node addr ~cmp ~l2 =
  let d = get_cdir node addr in
  let start () =
    if d.owner = Some cmp then begin
      d.cbusy <- true;
      dir_lookup t (fun () ->
          send1 t ~src:node.id ~dst:l2 ~cls:MC.Writeback_control ~bytes:(ctrl t)
            (Msg.C_wb_grant { addr }))
    end
    else
      dir_lookup t (fun () ->
          send1 t ~src:node.id ~dst:l2 ~cls:MC.Writeback_control ~bytes:(ctrl t)
            (Msg.C_wb_cancel { addr }))
  in
  gate_home d start

and mem_handle_wb_data node addr ~cmp ~still_shared ~cancelled =
  let d = get_cdir node addr in
  if not cancelled then begin
    d.owner <- None;
    if still_shared then d.csharers <- d.csharers lor (1 lsl cmp)
    else d.csharers <- d.csharers land lnot (1 lsl cmp)
  end;
  release_cdir node addr

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let l2_delay t k = E.schedule_in t.engine t.cfg.Mcmp.Config.l2_latency k

let mem_delay t k = E.schedule_in t.engine t.cfg.Mcmp.Config.mem_ctrl_latency k

let handle t ~dst msg =
  let node = t.nodes.(dst) in
  match msg with
  (* L1-side *)
  | Msg.L1_fwd_gets { addr } -> l1_handle_fwd t node addr ~getm:false
  | Msg.L1_fwd_getm { addr } -> l1_handle_fwd t node addr ~getm:true
  | Msg.L1_inv { addr } -> l1_handle_inv t node addr
  | Msg.L1_data { addr; excl; dirty; origin; unblock } ->
    l1_handle_data t node addr ~excl ~dirty ~origin ~unblock
  | Msg.L1_wb_grant { addr; serial } ->
    (* A stale grant, whose buffer instance is gone, gets an invalid
       control-sized reply. *)
    let valid, dirty =
      match Hashtbl.find_opt node.l1_wb addr with
      | Some (st, s') when s' = serial ->
        Hashtbl.remove node.l1_wb addr;
        (true, st = M || st = O)
      | Some _ | None -> (false, false)
    in
    send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr)
      ~cls:(if valid then MC.Writeback_data else MC.Writeback_control)
      ~bytes:(if valid then datab t else ctrl t)
      (Msg.L1_wb_data { addr; l1 = node.id; dirty; valid })
  | Msg.L1_wb_cancel { addr; serial } -> (
    (* a cancel may only kill the buffer instance it answers *)
    match Hashtbl.find_opt node.l1_wb addr with
    | Some (_, s') when s' = serial -> Hashtbl.remove node.l1_wb addr
    | Some _ | None -> ())
  (* L2-side, intra *)
  | Msg.L1_gets { addr; l1 } -> l2_delay t (fun () -> l2_handle_local_gets t node addr ~l1)
  | Msg.L1_getm { addr; l1 } -> l2_delay t (fun () -> l2_handle_local_getm t node addr ~l1)
  | Msg.L1_owner_data { addr; dirty; migrated; _ } ->
    l2_delay t (fun () -> l2_handle_owner_data t node addr ~dirty ~migrated)
  | Msg.L1_unblock { addr; _ } -> l2_handle_unblock node addr
  | Msg.L1_inv_ack _ -> ()  (* traffic only; serialization makes acks redundant *)
  | Msg.L1_wb_req { addr; l1; serial; _ } ->
    l2_delay t (fun () -> l2_handle_wb_req t node addr ~l1 ~serial)
  | Msg.L1_wb_data { addr; dirty; valid; _ } ->
    l2_delay t (fun () -> l2_handle_wb_data t node addr ~dirty ~valid)
  (* L2-side, inter *)
  | Msg.C_fwd_gets { addr; requester_l2 } ->
    l2_delay t (fun () -> l2_handle_c_fwd t node addr ~requester_l2 ~getm:false ~acks:0)
  | Msg.C_fwd_getm { addr; requester_l2; acks } ->
    l2_delay t (fun () -> l2_handle_c_fwd t node addr ~requester_l2 ~getm:true ~acks)
  | Msg.C_inv { addr; requester_l2 } ->
    l2_delay t (fun () -> l2_handle_c_inv t node addr ~requester_l2)
  | Msg.C_data { addr; excl; dirty; from_home; acks } ->
    l2_delay t (fun () -> l2_handle_c_data t node addr ~excl ~dirty ~from_home ~acks)
  | Msg.C_acks_expected { addr; acks } ->
    l2_delay t (fun () -> l2_handle_c_acks_expected t node addr ~acks)
  | Msg.C_inv_ack { addr } -> l2_delay t (fun () -> l2_handle_c_inv_ack t node addr)
  | Msg.C_wb_grant { addr } -> l2_delay t (fun () -> l2_handle_c_wb_grant t node addr)
  | Msg.C_wb_cancel { addr } -> l2_handle_c_wb_cancel node addr
  (* Memory-side *)
  | Msg.C_gets { addr; l2 } -> mem_delay t (fun () -> mem_handle_gets t node addr ~l2)
  | Msg.C_getm { addr; l2 } -> mem_delay t (fun () -> mem_handle_getm t node addr ~l2)
  | Msg.C_unblock { addr; cmp; excl; shared } ->
    mem_delay t (fun () -> mem_handle_unblock node addr ~cmp ~excl ~shared)
  | Msg.C_wb_req { addr; cmp; l2; _ } -> mem_delay t (fun () -> mem_handle_wb_req t node addr ~cmp ~l2)
  | Msg.C_wb_data { addr; cmp; still_shared; cancelled; _ } ->
    mem_delay t (fun () -> mem_handle_wb_data node addr ~cmp ~still_shared ~cancelled)

(* ------------------------------------------------------------------ *)
(* Processor-side entry point                                          *)

let access t ~proc ~kind addr ~commit =
  let cmp = proc / t.layout.L.procs_per_cmp and p = proc mod t.layout.L.procs_per_cmp in
  let l1id =
    match kind with
    | Mcmp.Protocol.Ifetch -> L.l1i t.layout ~cmp ~proc:p
    | Mcmp.Protocol.Read | Mcmp.Protocol.Write | Mcmp.Protocol.Atomic ->
      L.l1d t.layout ~cmp ~proc:p
  in
  let node = t.nodes.(l1id) in
  let write = Mcmp.Protocol.is_write kind in
  E.schedule_in t.engine t.cfg.Mcmp.Config.l1_latency (fun () ->
      let line = l1_line node addr in
      let hit =
        match line with
        | Some l -> ( match l.st with M | Es -> true | O | S -> not write)
        | None -> false
      in
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Lookup { node = node.id; level = Obs.Event.L1; addr; hit });
      if hit then begin
        t.counters.Mcmp.Counters.l1_hits <- t.counters.Mcmp.Counters.l1_hits + 1;
        Cache.Sarray.touch node.l1_lines addr;
        (match line with
        | Some l when write ->
          l.st <- M;
          l.hold_until <- now t + t.cfg.Mcmp.Config.response_delay
        | _ -> ());
        commit ()
      end
      else begin
        t.counters.Mcmp.Counters.l1_misses <- t.counters.Mcmp.Counters.l1_misses + 1;
        assert (node.mshr = None);
        let tid = t.counters.Mcmp.Counters.l1_misses in
        node.mshr <-
          Some { m_addr = addr; m_rw = (if write then `W else `R);
                 m_upgrade = line <> None && write; m_commit = commit;
                 m_issued = now t; m_tid = tid; m_proc = proc };
        if E.tracing t.engine then
          E.emit t.engine
            (Obs.Event.Req_issue
               { tid; node = node.id; proc; addr;
                 rw = (if write then Obs.Event.W else Obs.Event.R) });
        let msg =
          if write then Msg.L1_getm { addr; l1 = node.id } else Msg.L1_gets { addr; l1 = node.id }
        in
        send1 t ~src:node.id ~dst:(home_l2 t ~cmp:(node_cmp node) addr) ~cls:MC.Request
          ~bytes:(ctrl t) msg
      end)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_node layout cfg id =
  let kind = L.kind layout id in
  let l1_geom, l2_geom =
    match kind with
    | L.L1d _ | L.L1i _ -> ((cfg.Mcmp.Config.l1_sets, cfg.Mcmp.Config.l1_ways), (1, 1))
    | L.L2 _ -> ((1, 1), (cfg.Mcmp.Config.l2_sets, cfg.Mcmp.Config.l2_ways))
    | L.Mem _ -> ((1, 1), (1, 1))
  in
  {
    id;
    kind;
    l1_lines = Cache.Sarray.create ~sets:(fst l1_geom) ~ways:(snd l1_geom);
    l1_wb = Hashtbl.create 8;
    wb_serial = 0;
    mshr = None;
    l2_data = Cache.Sarray.create ~sets:(fst l2_geom) ~ways:(snd l2_geom);
    ldir = Hashtbl.create (match kind with L.L2 _ -> 1024 | _ -> 1);
    l2_wb = Hashtbl.create 8;
    cdir = Hashtbl.create (match kind with L.Mem _ -> 1024 | _ -> 1);
  }

let name ~dram_directory = if dram_directory then "DirectoryCMP" else "DirectoryCMP-zero"

(* Diagnostic dump of all in-flight protocol state (tests/debugging). *)
let dump t fmt () =
  let lay = t.layout in
  Array.iter
    (fun node ->
      (match node.mshr with
      | Some m ->
        Format.fprintf fmt "%a: MSHR %a %s issued@%a@." (L.pp_node lay) node.id Cache.Addr.pp
          m.m_addr
          (match m.m_rw with `R -> "R" | `W -> "W")
          Sim.Time.pp m.m_issued
      | None -> ());
      Hashtbl.iter
        (fun addr (st, serial) ->
          Format.fprintf fmt "%a: wb buffer %a (%s #%d)@." (L.pp_node lay) node.id Cache.Addr.pp
            addr
            (match st with M -> "M" | O -> "O" | Es -> "E" | S -> "S")
            serial)
        node.l1_wb;
      Hashtbl.iter
        (fun addr (d : ldir) ->
          if
            d.busy || d.ext <> None
            || not (Queue.is_empty d.defer)
            || not (Queue.is_empty d.defer_ext)
          then
            Format.fprintf fmt "%a: ldir %a busy=%b tr=%s ext=%b wb_from=%s defer=%d@."
              (L.pp_node lay) node.id Cache.Addr.pp addr d.busy
              (match d.tr with
              | None -> "-"
              | Some tr ->
                Printf.sprintf "%s l1=%d home=%b await=%b acks=%d/%s done=%b"
                  (match tr.lt_kind with `S -> "S" | `M -> "M")
                  tr.lt_l1 tr.lt_home_bound tr.lt_await_data tr.lt_acks_got
                  (if tr.lt_acks_known then string_of_int tr.lt_acks_expected else "?")
                  tr.lt_done)
              (d.ext <> None)
              (match d.wb_from with Some i -> string_of_int i | None -> "-")
              (Queue.length d.defer + Queue.length d.defer_ext))
        node.ldir;
      Hashtbl.iter
        (fun addr (d : cdir) ->
          if d.cbusy || not (Queue.is_empty d.cdefer) then
            Format.fprintf fmt "%a: cdir %a busy=%b owner=%s sharers=%x defer=%d@."
              (L.pp_node lay) node.id Cache.Addr.pp addr d.cbusy
              (match d.owner with Some c -> string_of_int c | None -> "-")
              d.csharers (Queue.length d.cdefer))
        node.cdir)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Runtime invariant checking (the fault-injection monitor's probe)    *)

(* Conservative snapshot checks. Directory invalidations of local
   sharers are fire-and-forget (no wait for the ack before the grant in
   some races), so sharer-list cross-checks would false-positive;
   exclusivity of write permission is the safety property that must
   hold at every event boundary regardless. *)
let check_invariants t =
  let time = now t in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  (* At most one L1 anywhere may hold write permission (M or Es). *)
  let excl_l1 : (Cache.Addr.t, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun node ->
      Cache.Sarray.iter
        (fun addr (line : l1_line) ->
          match line.st with
          | M | Es -> (
            match Hashtbl.find_opt excl_l1 addr with
            | Some prev ->
              add
                (Mcmp.Violation.make ~kind:"double-exclusive-l1" ~addr ~node:node.id ~time
                   (Printf.sprintf "L1 nodes %d and %d both hold M/E" prev node.id))
            | None -> Hashtbl.replace excl_l1 addr node.id)
          | O | S -> ())
        node.l1_lines)
    t.nodes;
  (* At most one chip may be the exclusive holder. The chip-level view
     lives at each chip's home L2 bank for the block. *)
  let excl_chip : (Cache.Addr.t, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun node ->
      match node.kind with
      | L.L2 { cmp; _ } ->
        Hashtbl.iter
          (fun addr (d : ldir) ->
            match d.chip with
            | CEx -> (
              match Hashtbl.find_opt excl_chip addr with
              | Some prev ->
                add
                  (Mcmp.Violation.make ~kind:"double-exclusive-chip" ~addr ~node:node.id
                     ~time (Printf.sprintf "chips %d and %d both believe they are CEx" prev cmp))
              | None -> Hashtbl.replace excl_chip addr cmp)
            | CInv | CSh | COwn -> ())
          node.ldir
      | L.L1d _ | L.L1i _ | L.Mem _ -> ())
    t.nodes;
  (* An L1 in M/E on a chip whose own view says the chip holds nothing
     means a lost invalidation. *)
  Hashtbl.iter
    (fun addr l1 ->
      let cmp = node_cmp t.nodes.(l1) in
      let home_bank = home_l2 t ~cmp addr in
      match Hashtbl.find_opt t.nodes.(home_bank).ldir addr with
      | Some d when d.chip = CInv && not d.busy ->
        add
          (Mcmp.Violation.make ~kind:"exclusive-on-invalid-chip" ~addr ~node:l1 ~time
             (Printf.sprintf "L1 %d holds M/E but its chip's directory entry is CInv" l1))
      | Some _ | None -> ())
    excl_l1;
  List.rev !vs

let outstanding_of t =
  Array.fold_left
    (fun acc node ->
      match node.mshr with
      | Some m ->
        {
          Mcmp.Probe.o_node = node.id;
          o_addr = m.m_addr;
          o_issued = m.m_issued;
          o_retries = 0;
          o_persistent = false;
        }
        :: acc
      | None -> acc)
    [] t.nodes

type instrumented = {
  i_handle : Mcmp.Protocol.handle;
  i_probe : Mcmp.Probe.t;
  i_dump : Format.formatter -> unit -> unit;
  i_fabric : Msg.t F.t;
}

let create_instrumented ~dram_directory () engine cfg traffic rng counters =
  let layout = Mcmp.Config.layout cfg in
  let fabric = F.create engine layout cfg.Mcmp.Config.fabric traffic (Sim.Rng.split rng) in
  let t =
    {
      engine;
      cfg;
      layout;
      fabric;
      counters;
      nodes = Array.init (L.node_count layout) (fun id -> make_node layout cfg id);
      migratory = cfg.Mcmp.Config.migratory;
      dram_directory;
    }
  in
  F.set_handler fabric (fun ~dst msg -> handle t ~dst msg);
  (match Obs.Registry.of_engine engine with
  | Some reg ->
    Obs.Registry.register_int reg "directory.outstanding_misses" (fun () ->
        Array.fold_left (fun acc n -> if n.mshr = None then acc else acc + 1) 0 t.nodes)
  | None -> ());
  {
    i_handle =
      {
        Mcmp.Protocol.name = name ~dram_directory;
        access = (fun ~proc ~kind addr ~commit -> access t ~proc ~kind addr ~commit);
      };
    i_probe =
      {
        Mcmp.Probe.check = (fun () -> check_invariants t);
        outstanding = (fun () -> outstanding_of t);
      };
    i_dump = dump t;
    i_fabric = fabric;
  }

let builder ~dram_directory () : Mcmp.Protocol.builder =
 fun engine cfg traffic rng counters ->
  (create_instrumented ~dram_directory () engine cfg traffic rng counters).i_handle
