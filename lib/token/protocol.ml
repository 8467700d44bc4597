module E = Sim.Engine
module L = Interconnect.Layout
module F = Interconnect.Fabric
module MC = Interconnect.Msg_class
module DS = Interconnect.Destset
module S = Substrate

(* L2-bank approximate knowledge of its chip: which local L1s probably
   hold the block (the dst1-filt filter) and roughly how many tokens
   live in local L1s (drives write-escalation). Being wrong only costs
   a retry; the substrate guarantees safety regardless. *)
type l2meta = {
  mutable sharers : int;  (* conservative, for escalation decisions *)
  mutable filter_sharers : int;  (* optimistic, for the dst1-filt filter *)
  mutable l1_tokens : int;
  mutable owner_hint : int option;  (* chip last seen requesting the block *)
}

type mshr = {
  m_addr : Cache.Addr.t;
  m_rw : Msg.rw;
  m_commit : unit -> unit;
  m_issued : Sim.Time.t;
  m_tid : int;  (* transaction id for trace spans; unused by the protocol *)
  mutable m_retries : int;
  mutable m_timer : E.timer option;
  mutable m_rec_timer : E.timer option;  (* recovery: recreation-ask timer *)
  mutable m_persistent : bool;
  mutable m_counted : bool;
  mutable m_pending_persistent : bool;  (* blocked by marked entries *)
  mutable m_saw_mem : bool;
  mutable m_saw_remote : bool;
  m_upgrade : bool;  (* write to a line already held readable *)
  mutable m_recovery : bool;  (* recreation ask sent / crash-restart reissue *)
}

(* Distributed-activation table entry (one slot per processor). *)
type pentry = {
  pe_addr : Cache.Addr.t;
  pe_rw : Msg.rw;
  pe_l1 : int;
  mutable pe_marked : bool;
  mutable pe_expires : Sim.Time.t;
      (* recovery: lease end (refreshed by activation rebroadcast);
         0 = no lease, the non-recovery default *)
}

type node = {
  id : int;
  kind : L.kind;
  meta : (Cache.Addr.t, l2meta) Hashtbl.t;  (* L2 only *)
  mutable mshr : mshr option;  (* L1 only *)
  ptable : pentry option array;  (* distributed activation *)
  peer_seq : int array;  (* distributed: last activation seq applied, per proc *)
  parb_active : (Cache.Addr.t, int * int * Msg.rw) Hashtbl.t;  (* arbiter activation *)
  (* last arbiter epoch applied; at a block's home memory controller,
     the arbiter's own activation count, since no other node sends it
     an activation or deactivation for that block *)
  parb_epoch : (Cache.Addr.t, int) Hashtbl.t;
  (* mem arbiter: per-block activation queues plus a single arbitration
     server (fair queuing): every request/done decision occupies the
     arbiter for a service time, so blocks colocated on one controller
     contend for its arbitration bandwidth *)
  arb_queue : (Cache.Addr.t, (int * int * Msg.rw * int) Queue.t) Hashtbl.t;
  mutable arb_busy_until : Sim.Time.t;
  arb_active_rid : (Cache.Addr.t, int) Hashtbl.t;  (* mem arbiter: rid of active entry *)
  arb_done_rid : int array;  (* mem arbiter: highest completed rid, per proc *)
  predictor : Predictor.t option;  (* L1, dst1-pred *)
  dsp : (Cache.Addr.t, int) Hashtbl.t;  (* L1, dst1-mcast: last remote source chip *)
  (* --- recovery state --- *)
  mutable down : bool;  (* crashed: all incoming traffic is discarded *)
  mutable pending_restart : (Cache.Addr.t * Msg.rw * (unit -> unit) * int) option;
      (* L1: the in-flight request a crash interrupted, re-issued at
         restart so its processor still retires *)
}

type t = {
  engine : E.t;
  cfg : Mcmp.Config.t;
  policy : Policy.t;
  layout : L.t;
  fabric : Msg.t F.t;
  counters : Mcmp.Counters.t;
  rng : Sim.Rng.t;
  nodes : node array;
  sub : S.t;
  pseq : int array;  (* next activation sequence number, per proc *)
  ema_mem : Sim.Stat.Ema.t;
  ema_all : Sim.Stat.Ema.t;
  (* Broadcast destination sets, precomputed once so the hot send paths
     pass ready-made bitmasks to [Fabric.send_set]. *)
  persistent_sets : DS.t array;  (* per node: every node but itself *)
  l1_sets : DS.t array;  (* per cmp: its L1 nodes *)
  l1_minus_self : DS.t array;  (* per node: own chip's L1s minus itself *)
  caches_minus_self : DS.t array;  (* per node: all caches minus itself *)
  (* --- recovery state (all idle when not [recovery]) --- *)
  recovery : bool;
  mutable tick_on : bool;  (* recovery refresh tick currently armed *)
  mutable crashes : int;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let now t = E.now t.engine
let is_l1_node n = match n.kind with L.L1d _ | L.L1i _ -> true | _ -> false

let node_cmp n =
  match n.kind with
  | L.L1d { cmp; _ } | L.L1i { cmp; _ } | L.L2 { cmp; _ } | L.Mem { cmp } -> cmp

(* Index of an L1 node within its chip, for the sharers bitmask. *)
let local_l1_bit t id =
  match L.kind t.layout id with
  | L.L1d { proc; _ } -> 1 lsl proc
  | L.L1i { proc; _ } -> 1 lsl (t.layout.L.procs_per_cmp + proc)
  | L.L2 _ | L.Mem _ -> 0

let recovery_on t = t.recovery

let find_or_add table addr make =
  match Hashtbl.find_opt table addr with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add table addr v;
    v

let get_meta node addr =
  find_or_add node.meta addr (fun () ->
      { sharers = 0; filter_sharers = 0; l1_tokens = 0; owner_hint = None })

(* ------------------------------------------------------------------ *)
(* Persistent-request tables                                           *)

(* Recovery: a leased table entry whose refresh stopped (its requester
   crashed, or the entry is a stale reapplication) eventually expires
   instead of blocking the block forever. Never true without recovery. *)
let pe_expired t e =
  recovery_on t && e.pe_expires > 0 && E.now t.engine > e.pe_expires

(* The first proc from [proc] up whose live entry names [addr]. *)
let rec first_live t ptable addr proc =
  if proc = Array.length ptable then None
  else
    match ptable.(proc) with
    | Some e when e.pe_addr = addr && not (pe_expired t e) -> Some (proc, e.pe_l1, e.pe_rw)
    | Some _ | None -> first_live t ptable addr (proc + 1)

(* The request currently activated at [node] for [addr], if any: in a
   distributed table, the lowest proc's. *)
let active_persistent t node addr =
  match t.policy.Policy.activation with
  | Policy.Arbiter -> Hashtbl.find_opt node.parb_active addr
  | Policy.Distributed -> first_live t node.ptable addr 0

(* Forward tokens held at [node] to the active persistent requester
   ({!S.forward}), once the response-delay window has closed. *)
let rec persistent_check t node addr =
  if not node.down then
    match active_persistent t node addr with
    | Some (_, l1, rw) when l1 <> node.id -> (
      match S.find t.sub node.id addr with
      | Some line when S.tokens line > 0 ->
        if now t < S.hold_until line then
          E.schedule_at t.engine (S.hold_until line) (fun () -> persistent_check t node addr)
        else S.forward t.sub node.id addr line ~l1 ~rw
      | Some _ | None -> ())
    | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Transient-request responses (performance policy)                    *)

(* Response of one cache line to a transient request (Section 4 rules).
   Returns tokens sent, for the L2's chip-token estimate. *)
let respond_from_line t node line ~addr ~requester ~rw ~same_cmp =
  let reply ~count ~owner ~data =
    S.give t.sub ~src:node.id ~dst:requester addr line ~count ~owner ~data
      ~dirty:(S.dirty line && owner) ~writeback:false;
    count
  in
  let all = S.tokens line in
  let migrate = t.cfg.migratory && S.dirty line && S.permits t.sub line Msg.W in
  match rw with
  | Msg.W -> reply ~count:all ~owner:(S.owner line) ~data:(S.owner line)
  | Msg.R ->
    if same_cmp then begin
      if migrate then reply ~count:all ~owner:true ~data:true
      else if all > 1 && S.valid line then reply ~count:1 ~owner:false ~data:true
      else 0
    end
    else if not (S.owner line) then 0
    else if migrate then reply ~count:all ~owner:true ~data:true
    else begin
      (* External read: owner replies with C tokens if possible so
         future requests on the asking chip hit locally. *)
      let k = min (L.caches_per_cmp t.layout) (all - 1) in
      if k >= 1 then reply ~count:k ~owner:false ~data:true
      else reply ~count:1 ~owner:true ~data:true
    end

(* Memory's response to a transient request, after controller (and, if
   data will move, DRAM) latency. State is re-examined at fire time
   because requests can race during the DRAM access; memory's line
   itself stays put. *)
let mem_respond t node ~addr ~requester ~rw =
  match S.find t.sub node.id addr with
  | None -> ()
  | Some line ->
    let delay =
      t.cfg.mem_ctrl_latency + if S.owner line then t.cfg.dram_latency else Sim.Time.zero
    in
    E.schedule_in t.engine delay (fun () ->
        if S.tokens line > 0 then begin
          (* The controller+DRAM occupancy just paid is on the requester's
             critical path — attribute it to its open span. *)
          if E.tracing t.engine then
            E.emit t.engine
              (Obs.Event.Mem_hop { requester; ns = Sim.Time.to_ns delay });
          (* Memory's transient replies are sent clean (DESIGN.md, "Token
             substrate"). *)
          let reply ~count ~owner ~data =
            S.give t.sub ~src:node.id ~dst:requester addr line ~count ~owner ~data ~dirty:false
              ~writeback:false
          in
          let all = S.tokens line in
          match rw with
          | Msg.W -> reply ~count:all ~owner:(S.owner line) ~data:(S.owner line)
          | Msg.R ->
            (* A block uncached anywhere is granted whole, the token
               analogue of a directory's E grant on an uncached read. *)
            let k = if all = t.cfg.tokens then all else min (L.caches_per_cmp t.layout) all in
            if S.owner line then reply ~count:k ~owner:(k = all) ~data:true
        end)

(* ------------------------------------------------------------------ *)
(* MSHR lifecycle                                                      *)

let satisfied t node m =
  match S.find t.sub node.id m.m_addr with
  | Some l -> S.permits t.sub l m.m_rw
  | None -> false

let timeout_threshold t m =
  let ema = if t.policy.Policy.timeout_all_responses then t.ema_all else t.ema_mem in
  let base_ns = 2.0 *. Sim.Stat.Ema.value ema in
  let base_ns = Float.max 120. base_ns in
  (* Exponential backoff across retries plus pseudo-random skew to
     avoid lock-step retry storms. *)
  let scaled = base_ns *. Float.min 2.25 (1.5 ** float_of_int m.m_retries) in
  let jittered = scaled *. (0.75 +. Sim.Rng.float t.rng 0.5) in
  Sim.Time.ns (int_of_float jittered)

let proc_of_node t node =
  match node.kind with
  | L.L1d { cmp; proc } | L.L1i { cmp; proc } -> (cmp * t.layout.L.procs_per_cmp) + proc
  | L.L2 _ | L.Mem _ -> invalid_arg "proc_of_node"

let rec marked_from t ptable addr proc =
  proc < Array.length ptable
  &&
  match ptable.(proc) with
  | Some e when e.pe_addr = addr && e.pe_marked && not (pe_expired t e) -> true
  | Some _ | None -> marked_from t ptable addr (proc + 1)

let has_marked_for t node addr = marked_from t node.ptable addr 0

(* A persistent-request message to every other node. *)
let broadcast_persistent t node msg =
  F.send_set t.fabric ~src:node.id ~dsts:t.persistent_sets.(node.id) ~cls:MC.Persistent
    ~bytes:t.cfg.ctrl_bytes msg

let to_home t node addr msg =
  F.send_one t.fabric ~src:node.id ~dst:(S.home_mem t.sub addr) ~cls:MC.Persistent
    ~bytes:t.cfg.ctrl_bytes msg

let rec broadcast_transient t node m ~force_external =
  let addr = m.m_addr in
  let rw = m.m_rw in
  let hint = if t.policy.Policy.multicast then Hashtbl.find_opt node.dsp addr else None in
  let msg scope = Msg.Transient { addr; requester = node.id; rw; scope; force_external; hint } in
  if t.policy.Policy.hierarchical then begin
    let cmp = node_cmp node in
    let dsts = DS.add (S.home_l2 t.sub ~cmp addr) t.l1_minus_self.(node.id) in
    F.send_set_parkable t.fabric ~park:addr ~src:node.id ~dsts ~cls:MC.Request
      ~bytes:t.cfg.ctrl_bytes (msg `Local)
  end
  else begin
    (* Flat TokenB-style global broadcast (ablation). *)
    let dsts = DS.add (S.home_mem t.sub addr) t.caches_minus_self.(node.id) in
    F.send_set_parkable t.fabric ~park:addr ~src:node.id ~dsts ~cls:MC.Request
      ~bytes:t.cfg.ctrl_bytes (msg `External)
  end

and arm_timer t node m =
  let th = timeout_threshold t m in
  m.m_timer <- Some (E.timer_in t.engine th (fun () -> on_timeout t node m))

(* Recovery: once a request goes persistent, a second (much longer)
   timer asks the home controller to recreate the block's tokens if the
   request is still starving — the sign that tokens were lost rather
   than merely contended. The ask retries until satisfied; the home
   side dedupes. *)
and arm_rec_timer t node m =
  if t.recovery then begin
    (match m.m_rec_timer with Some ti -> E.cancel ti | None -> ());
    m.m_rec_timer <-
      Some
        (E.timer_in t.engine Recovery.recreation_timeout (fun () -> request_recreation t node m))
  end

and request_recreation t node m =
  m.m_rec_timer <- None;
  match node.mshr with
  | Some m' when m' == m && (not node.down) && not (satisfied t node m) ->
    m.m_recovery <- true;
    let addr = m.m_addr in
    to_home t node addr
      (Msg.Recreate_req { addr; src = node.id; epoch = S.node_epoch t.sub node.id addr });
    arm_rec_timer t node m
  | Some _ | None -> ()

and on_timeout t node m =
  match node.mshr with
  | Some m' when m' == m ->
    if satisfied t node m then complete t node m
    else begin
      (match node.predictor with Some p -> Predictor.record_retry p m.m_addr | None -> ());
      if m.m_retries + 1 < t.policy.Policy.transient_requests then begin
        m.m_retries <- m.m_retries + 1;
        t.counters.Mcmp.Counters.transient_retries <-
          t.counters.Mcmp.Counters.transient_retries + 1;
        if E.tracing t.engine then
          E.emit t.engine
            (Obs.Event.Req_reissue
               { tid = m.m_tid; node = node.id; addr = m.m_addr; retry = m.m_retries });
        broadcast_transient t node m ~force_external:true;
        arm_timer t node m
      end
      else start_persistent t node m
    end
  | Some _ | None -> ()

and start_persistent t node m =
  ensure_tick t;
  if not m.m_counted then begin
    m.m_counted <- true;
    t.counters.Mcmp.Counters.persistent_requests <-
      t.counters.Mcmp.Counters.persistent_requests + 1;
    if m.m_rw = Msg.R then
      t.counters.Mcmp.Counters.persistent_reads <- t.counters.Mcmp.Counters.persistent_reads + 1;
    if E.tracing t.engine then
      E.emit t.engine
        (Obs.Event.Persistent
           { node = node.id; proc = proc_of_node t node; addr = m.m_addr;
             action = "escalate" })
  end;
  let distributed = t.policy.Policy.activation = Policy.Distributed in
  if distributed && has_marked_for t node m.m_addr then m.m_pending_persistent <- true
  else begin
    m.m_persistent <- true;
    m.m_pending_persistent <- false;
    arm_rec_timer t node m;
    let proc = proc_of_node t node in
    let seq = t.pseq.(proc) in
    t.pseq.(proc) <- seq + 1;
    let addr = m.m_addr and rw = m.m_rw in
    if not distributed then
      to_home t node addr (Msg.P_arb_request { addr; proc; l1 = node.id; rw; rid = seq })
    else begin
      node.peer_seq.(proc) <- seq;
      node.ptable.(proc) <-
        Some { pe_addr = addr; pe_rw = rw; pe_l1 = node.id; pe_marked = false; pe_expires = 0 };
      broadcast_persistent t node (Msg.P_activate { addr; proc; l1 = node.id; rw; seq })
    end
  end

and complete t node m =
  (match m.m_timer with Some timer -> E.cancel timer | None -> ());
  m.m_timer <- None;
  (match m.m_rec_timer with Some timer -> E.cancel timer | None -> ());
  m.m_rec_timer <- None;
  node.mshr <- None;
  let line =
    match S.find t.sub node.id m.m_addr with
    | Some l -> l
    | None ->
      Mcmp.Violation.raise_it ~kind:"complete-without-line" ~addr:m.m_addr ~node:node.id
        ~time:(now t) "request completed but the line is no longer resident"
  in
  let lat_ns = Sim.Time.to_ns (now t - m.m_issued) in
  (* A miss that waited out a crash or a token recreation says nothing
     about the network's miss latency; averaging it in would stretch
     the transient-request timeout past the liveness watchdog. *)
  if not m.m_recovery then begin
    Sim.Stat.Ema.add t.ema_all lat_ns;
    if m.m_saw_mem then Sim.Stat.Ema.add t.ema_mem lat_ns
  end;
  let c = t.counters in
  (* Cause priority: the most specific condition wins. Recovery and
     persistent escalation dominate because they, not the fill source,
     explain the latency; upgrade beats sharing because the line was
     already resident; otherwise classify by where the data came from
     (memory = cold in a token protocol — nobody cached it). *)
  let cause =
    if m.m_recovery then Obs.Event.Recovery_delayed
    else if m.m_persistent || m.m_counted then Obs.Event.Persistent_escalation
    else if m.m_upgrade then Obs.Event.Upgrade
    else if m.m_saw_mem then Obs.Event.Cold
    else if m.m_saw_remote then Obs.Event.Sharing_remote
    else Obs.Event.Sharing_local
  in
  Mcmp.Counters.record_miss c ~cause lat_ns;
  if m.m_saw_mem then c.Mcmp.Counters.mem_fills <- c.Mcmp.Counters.mem_fills + 1
  else if m.m_saw_remote then c.Mcmp.Counters.remote_fills <- c.Mcmp.Counters.remote_fills + 1
  else c.Mcmp.Counters.l2_local_fills <- c.Mcmp.Counters.l2_local_fills + 1;
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Req_retire
         { tid = m.m_tid; node = node.id; proc = proc_of_node t node; addr = m.m_addr;
           rw = (match m.m_rw with Msg.W -> Obs.Event.W | Msg.R -> Obs.Event.R);
           fill =
             (if m.m_saw_mem then Obs.Event.Fill_memory
              else if m.m_saw_remote then Obs.Event.Fill_remote
              else Obs.Event.Fill_l2);
           retries = m.m_retries; persistent = m.m_persistent; cause });
  S.touch t.sub node.id m.m_addr;
  (match m.m_rw with
  | Msg.W ->
    S.mark_dirty line;
    S.set_hold_until line (now t + t.cfg.response_delay)
  | Msg.R ->
    (* A migratory grab of all tokens is about to be written; keep the
       window so the upcoming test-and-set hits. *)
    if S.tokens line = t.cfg.tokens then S.set_hold_until line (now t + t.cfg.response_delay));
  if m.m_persistent then deactivate t node m;
  m.m_commit ()

and deactivate t node m =
  let proc = proc_of_node t node in
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Persistent { node = node.id; proc; addr = m.m_addr; action = "deactivate" });
  match t.policy.Policy.activation with
  | Policy.Arbiter ->
    to_home t node m.m_addr (Msg.P_arb_done { addr = m.m_addr; proc; rid = t.pseq.(proc) - 1 })
  | Policy.Distributed ->
    let seq = t.pseq.(proc) - 1 in
    node.ptable.(proc) <- None;
    (* FutureBus-style wave marking: outstanding requests for this block
       must drain before this processor may re-request it. *)
    Array.iter
      (function Some e when e.pe_addr = m.m_addr -> e.pe_marked <- true | Some _ | None -> ())
      node.ptable;
    broadcast_persistent t node (Msg.P_deactivate { addr = m.m_addr; proc; seq });
    persistent_check t node m.m_addr

(* Recovery tick: periodically re-broadcast still-active persistent
   activations (re-populating the tables of restarted peers and
   extending leases everywhere else), purge expired entries, and retry
   deferred persistent issues. Self-rescheduling only while recovery
   work is outstanding, so runs still drain their event queues. *)
and ensure_tick t =
  if t.recovery && not t.tick_on then begin
    t.tick_on <- true;
    ignore (E.timer_in t.engine Recovery.refresh_interval (fun () -> recovery_tick t))
  end

and recovery_tick t =
  Array.iter
    (fun node ->
      if not node.down then
        Array.iteri
          (fun i entry ->
            match entry with
            | Some e when pe_expired t e ->
              node.ptable.(i) <- None;
              persistent_check t node e.pe_addr
            | Some _ | None -> ())
          node.ptable)
    t.nodes;
  let live = ref (S.recreating t.sub) in
  Array.iter
    (fun node ->
      if node.down then ()
      else if is_l1_node node then (
        match node.mshr with
        | Some m when m.m_persistent ->
          live := true;
          if not (satisfied t node m) then refresh_activation t node m
        | Some m when m.m_pending_persistent ->
          live := true;
          if not (has_marked_for t node m.m_addr) then start_persistent t node m
        | Some _ | None -> ())
      else if L.is_mem t.layout node.id then
        (* Arbiter refresh: re-broadcast active grants so restarted
           caches relearn them (their activation-epoch view was wiped,
           so the same sequence number applies again). *)
        Hashtbl.iter
          (fun addr (proc, l1, rw) ->
            live := true;
            let seq = try Hashtbl.find node.parb_epoch addr with Not_found -> 0 in
            broadcast_persistent t node (Msg.P_activate { addr; proc; l1; rw; seq }))
          node.parb_active)
    t.nodes;
  if !live then
    ignore (E.timer_in t.engine Recovery.refresh_interval (fun () -> recovery_tick t))
  else t.tick_on <- false

and refresh_activation t node m =
  match t.policy.Policy.activation with
  | Policy.Distributed ->
    (* Per-processor transactions are serial, so the outstanding
       activation's sequence number is always the last one issued. *)
    let proc = proc_of_node t node in
    broadcast_persistent t node
      (Msg.P_activate
         { addr = m.m_addr; proc; l1 = node.id; rw = m.m_rw; seq = t.pseq.(proc) - 1 })
  | Policy.Arbiter -> ()

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)

(* The policy's side of a [Tokens] delivery the substrate merged. *)
let receive_tokens t node ~addr ~src ~count ~writeback =
  if
    is_l1_node node && t.policy.Policy.multicast
    && L.is_cache t.layout src
    && L.cmp_of t.layout src <> node_cmp node
  then Hashtbl.replace node.dsp addr (L.cmp_of t.layout src);
  (match node.kind with
  | L.L2 _ when writeback && L.cmp_of t.layout src = node_cmp node && L.is_l1 t.layout src ->
    (* A local L1 wrote back everything it had: update chip estimates. *)
    let meta = get_meta node addr in
    meta.l1_tokens <- max 0 (meta.l1_tokens - count);
    meta.sharers <- meta.sharers land lnot (local_l1_bit t src);
    meta.filter_sharers <- meta.filter_sharers land lnot (local_l1_bit t src)
  | _ -> ());
  (* Satisfy our own request before forwarding to a persistent winner:
     completion is instantaneous and opens the response-delay hold
     window, after which persistent_check still forwards. The reverse
     order can strand a satisfied persistent read — a stale table view
     flings the just-arrived data away (stripping the valid bit), and
     the owner, having already responded once, is never re-triggered. *)
  (match node.mshr with
  | Some m when m.m_addr = addr ->
    if L.is_mem t.layout src then m.m_saw_mem <- true
    else if L.cmp_of t.layout src <> node_cmp node then m.m_saw_remote <- true;
    if E.tracing t.engine then
      E.emit t.engine (Obs.Event.Req_response { tid = m.m_tid; node = node.id; src });
    if satisfied t node m then complete t node m
  | Some _ | None -> ());
  persistent_check t node addr

(* External-request fan-out used by the L2 escalation path. With the
   destination-set-prediction extension, the first escalation multicasts
   to the chip last seen requesting the block (plus the home); a retry
   ([full]) falls back to the complete broadcast, and the substrate
   guarantees mispredictions only cost that retry. *)
let escalate_external t node ~addr ~requester ~rw ~hint ~full =
  let my_cmp = node_cmp node in
  let meta = get_meta node addr in
  let prediction = match hint with Some _ -> hint | None -> meta.owner_hint in
  let chips =
    match prediction with
    | Some c when t.policy.Policy.multicast && (not full) && c <> my_cmp -> [ c ]
    | Some _ | None -> List.init t.cfg.ncmp (fun c -> c)
  in
  let dsts =
    List.fold_left
      (fun acc cmp ->
        if cmp = my_cmp then acc
        else
          let acc = DS.add (S.home_l2 t.sub ~cmp addr) acc in
          if t.policy.Policy.filter then acc else DS.union acc t.l1_sets.(cmp))
      (DS.singleton (S.home_mem t.sub addr))
      chips
  in
  F.send_set_parkable t.fabric ~park:addr ~src:node.id ~dsts ~cls:MC.Request
    ~bytes:t.cfg.ctrl_bytes
    (Msg.Transient { addr; requester; rw; scope = `External; force_external = false; hint = None })

let handle_transient_l1 t node ~addr ~requester ~rw =
  E.schedule_in t.engine t.cfg.l1_latency (fun () ->
      match if node.down then None else S.find t.sub node.id addr with
      | None -> ()
      | Some line ->
        (* Transient requests are stateless at responders: inside the
           response-delay window the cache simply does not respond and
           the requester must retry or escalate to a persistent request
           (which, unlike transients, is remembered and served when the
           window closes). *)
        if now t >= S.hold_until line then begin
          let same_cmp = L.cmp_of t.layout requester = node_cmp node in
          ignore (respond_from_line t node line ~addr ~requester ~rw ~same_cmp)
        end)

let handle_transient_l2 t node ~addr ~requester ~rw ~scope ~force_external ~hint =
  (* dst1-filt: the sharer filter is a fast directly-addressed lookup
     consulted as the request enters the chip, off the L2 tag-access
     path; only probable sharers see the forwarded request. Persistent
     requests are never filtered, so imprecision is harmless. *)
  if
    t.policy.Policy.filter && scope = `External
    && L.cmp_of t.layout requester <> node_cmp node
  then begin
    let meta = get_meta node addr in
    (* Sharer-bitmap bit [i] is node [first_l1 + i] (see [local_l1_bit]),
       so the bitmap lifts straight into a destination mask. *)
    let base = L.l1d t.layout ~cmp:(node_cmp node) ~proc:0 in
    let dsts = DS.of_bitfield ~bits:meta.filter_sharers ~base in
    if not (DS.is_empty dsts) then
      F.send_set_parkable t.fabric ~park:addr ~src:node.id ~dsts ~cls:MC.Request
        ~bytes:t.cfg.ctrl_bytes
        (Msg.Transient { addr; requester; rw; scope = `External; force_external; hint = None })
  end;
  E.schedule_in t.engine t.cfg.l2_latency (fun () ->
      let line = S.find t.sub node.id addr in
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Lookup
             { node = node.id; level = Obs.Event.L2; addr;
               hit = (match line with Some l -> S.permits t.sub l Msg.R | None -> false) });
      let meta = get_meta node addr in
      let same_cmp = L.cmp_of t.layout requester = node_cmp node in
      if same_cmp && scope = `Local then begin
        (* Chip-token estimate before this response moves tokens. *)
        let l2_tokens = match line with Some l -> S.tokens l | None -> 0 in
        let estimate = l2_tokens + meta.l1_tokens in
        let other_sharers = meta.sharers land lnot (local_l1_bit t requester) in
        meta.sharers <- meta.sharers lor local_l1_bit t requester;
        meta.filter_sharers <- meta.filter_sharers lor local_l1_bit t requester;
        let sent =
          match line with
          | Some line -> respond_from_line t node line ~addr ~requester ~rw ~same_cmp:true
          | None -> 0
        in
        meta.l1_tokens <- meta.l1_tokens + sent;
        let escalate =
          force_external
          ||
          match rw with
          | Msg.W -> estimate < t.cfg.tokens
          | Msg.R -> sent = 0 && other_sharers = 0
        in
        if escalate then
          escalate_external t node ~addr ~requester ~rw ~hint ~full:force_external
      end
      else begin
        (* External request reaching this chip's home bank: the
           requester's chip probably holds the block soon (destination-
           set prediction hint). *)
        meta.owner_hint <- Some (L.cmp_of t.layout requester);
        (match line with
        | Some line ->
          ignore (respond_from_line t node line ~addr ~requester ~rw ~same_cmp:false)
        | None -> ());
        (* Conservatively assume local tokens leave with the external
           request (writes take everything; reads may migrate the whole
           block). Underestimating only costs an extra escalation. The
           filter's optimistic set is cleared only by writes, which
           certainly strip every local token. *)
        meta.l1_tokens <- 0;
        meta.sharers <- 0;
        if rw = Msg.W then meta.filter_sharers <- 0
      end)

(* Arbiter logic at the home memory controller. The substrate activates
   at most one persistent request per block; the arbiter itself is a
   fair-queued server whose arbitration decisions take [arb_service]
   each, so hot blocks colocated on one controller contend for its
   arbitration bandwidth (the paper's colocation remark). *)
let arb_service = Sim.Time.ns 15

let arb_queue node addr = find_or_add node.arb_queue addr Queue.create

(* Serialize a decision through the arbiter server. *)
let arb_schedule t node k =
  let ready = max (now t + t.cfg.mem_ctrl_latency) node.arb_busy_until in
  let start = ready + arb_service in
  node.arb_busy_until <- start;
  E.schedule_at t.engine start k

let arb_activate t node addr (proc, l1, rw, rid) =
  if E.tracing t.engine then
    E.emit t.engine (Obs.Event.Persistent { node = node.id; proc; addr; action = "arb-grant" });
  let epoch = 1 + (try Hashtbl.find node.parb_epoch addr with Not_found -> 0) in
  Hashtbl.replace node.parb_epoch addr epoch;
  Hashtbl.replace node.parb_active addr (proc, l1, rw);
  Hashtbl.replace node.arb_active_rid addr rid;
  broadcast_persistent t node (Msg.P_activate { addr; proc; l1; rw; seq = epoch });
  persistent_check t node addr

(* Pop the next queue entry whose request id has not already completed
   (a done can overtake its own delayed request). *)
let rec arb_pop_fresh node q =
  match Queue.take_opt q with
  | Some (p, _, _, r) when r <= node.arb_done_rid.(p) -> arb_pop_fresh node q
  | other -> other

let handle_arb_request t node ~addr ~proc ~l1 ~rw ~rid =
  arb_schedule t node (fun () ->
      if rid <= node.arb_done_rid.(proc) then
        (* Reordering delivered this request after its own done: the
           transaction already completed, never (re)activate it. *)
        ()
      else if Hashtbl.mem node.parb_active addr then
        Queue.push (proc, l1, rw, rid) (arb_queue node addr)
      else arb_activate t node addr (proc, l1, rw, rid))

let handle_arb_done t node ~addr ~proc ~rid =
  arb_schedule t node (fun () ->
      node.arb_done_rid.(proc) <- max node.arb_done_rid.(proc) rid;
      (* Drop queued entries whose transaction has completed (satisfied
         while still queued). Matching by request id — never by bare
         processor — so a stale done cannot retract a later request. *)
      let q = arb_queue node addr in
      let keep = Queue.create () in
      Queue.iter
        (fun ((p, _, _, r) as e) -> if r > node.arb_done_rid.(p) then Queue.push e keep)
        q;
      Queue.clear q;
      Queue.transfer keep q;
      match (Hashtbl.find_opt node.parb_active addr, Hashtbl.find_opt node.arb_active_rid addr)
      with
      (* Recovery also accepts a *newer* done from the same processor:
         a crashed-and-restarted requester re-issues its interrupted
         transaction under a fresh request id, and its completion must
         still clear the activation granted to the old incarnation. *)
      | Some (p, _, _), Some r when p = proc && (r = rid || (recovery_on t && r <= rid)) ->
        Hashtbl.remove node.parb_active addr;
        Hashtbl.remove node.arb_active_rid addr;
        let epoch = try Hashtbl.find node.parb_epoch addr with Not_found -> 0 in
        broadcast_persistent t node (Msg.P_deactivate { addr; proc; seq = epoch });
        (match arb_pop_fresh node (arb_queue node addr) with
        | Some next -> arb_activate t node addr next
        | None -> ())
      | _ -> ())

let handle_p_activate t node ~addr ~proc ~l1 ~rw ~seq =
  if E.tracing t.engine then
    E.emit t.engine (Obs.Event.Persistent { node = node.id; proc; addr; action = "activate" });
  match t.policy.Policy.activation with
  | Policy.Distributed ->
    (* Recovery also re-accepts [seq = peer_seq]: the periodic refresh
       rebroadcast of a still-active request, which re-populates a
       restarted node's wiped table and extends the lease at everyone
       else. Wave marks survive a refresh of the same activation. *)
    let refresh = recovery_on t && seq = node.peer_seq.(proc) in
    if seq > node.peer_seq.(proc) || refresh then begin
      node.peer_seq.(proc) <- seq;
      let marked =
        refresh
        && (match node.ptable.(proc) with
           | Some e -> e.pe_addr = addr && e.pe_marked
           | None -> false)
      in
      let expires = if t.recovery then now t + Recovery.lease else 0 in
      node.ptable.(proc) <-
        Some { pe_addr = addr; pe_rw = rw; pe_l1 = l1; pe_marked = marked; pe_expires = expires };
      persistent_check t node addr
    end
  | Policy.Arbiter ->
    let cur = try Hashtbl.find node.parb_epoch addr with Not_found -> 0 in
    if seq > cur then begin
      Hashtbl.replace node.parb_epoch addr seq;
      Hashtbl.replace node.parb_active addr (proc, l1, rw);
      (* A stale activation (its requester already satisfied) needs no
         recovery here: the requester's completion sent a P_arb_done
         carrying the request id, which deactivates it at the arbiter
         regardless of message ordering. *)
      persistent_check t node addr
    end

let handle_p_deactivate t node ~addr ~proc ~seq =
  (match t.policy.Policy.activation with
  | Policy.Distributed ->
    if seq >= node.peer_seq.(proc) then begin
      node.peer_seq.(proc) <- seq;
      (* Per-processor transactions are serial, so a deactivation
         numbered [seq] proves every activation numbered <= [seq] is
         over. Clear the slot even if it names a different block: that
         entry's own deactivation was overtaken by this one and would
         otherwise be ignored, orphaning the entry forever. *)
      match node.ptable.(proc) with
      | Some e when e.pe_addr <> addr ->
        node.ptable.(proc) <- None;
        persistent_check t node e.pe_addr
      | Some _ | None -> node.ptable.(proc) <- None
    end
  | Policy.Arbiter ->
    let cur = try Hashtbl.find node.parb_epoch addr with Not_found -> 0 in
    if seq >= cur then begin
      Hashtbl.replace node.parb_epoch addr seq;
      match Hashtbl.find_opt node.parb_active addr with
      | Some (p, _, _) when p = proc -> Hashtbl.remove node.parb_active addr
      | Some _ | None -> ()
    end);
  persistent_check t node addr;
  (* A cleared wave may unblock a deferred persistent issue. *)
  match node.mshr with
  | Some m when m.m_pending_persistent && not (has_marked_for t node m.m_addr) ->
    start_persistent t node m
  | Some _ | None -> ()

let handle t ~dst msg =
  let node = t.nodes.(dst) in
  if node.down then begin
    (* A crashed node's traffic dies at the pins; so do the tokens it
       would have received (a deficit recreation will heal). *)
    match msg with
    | Msg.Tokens { addr; count; owner; epoch; _ } -> S.discard t.sub addr ~count ~owner ~epoch
    | _ -> ()
  end
  else
    match msg with
  | Msg.Transient { addr; requester; rw; scope; force_external; hint } ->
    if requester = node.id then ()
    else begin
      match node.kind with
      | L.L1d _ | L.L1i _ -> handle_transient_l1 t node ~addr ~requester ~rw
      | L.L2 _ -> handle_transient_l2 t node ~addr ~requester ~rw ~scope ~force_external ~hint
      | L.Mem _ -> mem_respond t node ~addr ~requester ~rw
    end
  | Msg.Tokens { addr; src; count; owner; data; dirty; writeback; epoch } ->
    if S.receive t.sub node.id addr ~count ~owner ~data ~dirty ~epoch then
      receive_tokens t node ~addr ~src ~count ~writeback
  | Msg.P_activate { addr; proc; l1; rw; seq } ->
    handle_p_activate t node ~addr ~proc ~l1 ~rw ~seq
  | Msg.P_deactivate { addr; proc; seq } -> handle_p_deactivate t node ~addr ~proc ~seq
  | Msg.P_arb_request { addr; proc; l1; rw; rid } ->
    handle_arb_request t node ~addr ~proc ~l1 ~rw ~rid
  | Msg.P_arb_done { addr; proc; rid } -> handle_arb_done t node ~addr ~proc ~rid
  | Msg.Recreate_req { addr; _ } -> (
    (* Any still-starving persistent requester may ask; asks re-arm only
       while the MSHR stays unsatisfied, so even a requester with a stale
       epoch view is starving *now* and a fresh recreation is warranted.
       Concurrent and duplicate asks collapse onto the in-progress
       collect phase. *)
    if t.recovery then S.recreate t.sub node.id addr ~retry:Recovery.bump_retry)
  | Msg.Epoch_bump { addr; epoch } ->
    S.bump t.sub node.id addr ~epoch;
    (* Always ack, including re-deliveries: the controller's collect must
       converge no matter how bumps and acks are reordered or retried. *)
    to_home t node addr (Msg.Epoch_ack { addr; src = node.id; epoch })
  | Msg.Epoch_ack { addr; src; epoch } ->
    if S.ack t.sub node.id addr ~src ~epoch then persistent_check t node addr

(* ------------------------------------------------------------------ *)
(* Processor-side entry point                                          *)

(* Open [node]'s MSHR for transaction [tid] and issue the request. *)
let start_miss t node ~addr ~rw ~commit ~tid ~upgrade ~recovery =
  let m =
    { m_addr = addr; m_rw = rw; m_commit = commit; m_issued = now t; m_tid = tid; m_retries = 0;
      m_timer = None; m_rec_timer = None; m_persistent = false; m_counted = false;
      m_pending_persistent = false; m_saw_mem = false; m_saw_remote = false;
      m_upgrade = upgrade; m_recovery = recovery }
  in
  node.mshr <- Some m;
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Req_issue
         { tid; node = node.id; proc = proc_of_node t node; addr;
           rw = (match rw with Msg.W -> Obs.Event.W | Msg.R -> Obs.Event.R) });
  let straight_persistent =
    t.policy.Policy.transient_requests = 0
    ||
    match node.predictor with
    | Some p -> Predictor.predicts_contended p addr
    | None -> false
  in
  if straight_persistent then start_persistent t node m
  else begin
    broadcast_transient t node m ~force_external:false;
    arm_timer t node m
  end

let access t ~proc ~kind addr ~commit =
  let l1id =
    let cmp = proc / t.layout.L.procs_per_cmp and p = proc mod t.layout.L.procs_per_cmp in
    match kind with
    | Mcmp.Protocol.Ifetch -> L.l1i t.layout ~cmp ~proc:p
    | Mcmp.Protocol.Read | Mcmp.Protocol.Write | Mcmp.Protocol.Atomic ->
      L.l1d t.layout ~cmp ~proc:p
  in
  let node = t.nodes.(l1id) in
  let rw = if Mcmp.Protocol.is_write kind then Msg.W else Msg.R in
  E.schedule_in t.engine t.cfg.l1_latency (fun () ->
      if node.down then begin
        (* The node is mid-crash: park the access; restart re-issues it.
           (The core is serial, so the slot is necessarily free — a
           request interrupted by the crash itself keeps the core
           blocked until it retires.) *)
        t.counters.Mcmp.Counters.l1_misses <- t.counters.Mcmp.Counters.l1_misses + 1;
        node.pending_restart <-
          Some (addr, rw, commit, t.counters.Mcmp.Counters.l1_misses)
      end
      else begin
      let line = S.find t.sub node.id addr in
      let hit = match line with Some l -> S.permits t.sub l rw | None -> false in
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Lookup { node = node.id; level = Obs.Event.L1; addr; hit });
      if hit then begin
        t.counters.Mcmp.Counters.l1_hits <- t.counters.Mcmp.Counters.l1_hits + 1;
        S.touch t.sub node.id addr;
        (match (line, rw) with
        | Some l, Msg.W ->
          S.mark_dirty l;
          S.set_hold_until l (max (S.hold_until l) (now t + t.cfg.response_delay))
        | _ -> ());
        commit ()
      end
      else begin
        t.counters.Mcmp.Counters.l1_misses <- t.counters.Mcmp.Counters.l1_misses + 1;
        assert (node.mshr = None);
        (* The post-increment miss count is unique per transaction within
           a run, so it doubles as the span-stitching transaction id. *)
        let tid = t.counters.Mcmp.Counters.l1_misses in
        let upgrade =
          match (line, rw) with Some l, Msg.W -> S.permits t.sub l Msg.R | _ -> false
        in
        start_miss t node ~addr ~rw ~commit ~tid ~upgrade ~recovery:false
      end
      end)

(* ------------------------------------------------------------------ *)
(* Crash / restart (recovery fault model)                              *)

(* Power-cycle a cache node. All volatile state dies: resident lines
   (their tokens are simply gone until a recreation heals the deficit),
   the MSHR and its timers, sharer metadata and both activation-table
   views. The node's epochs survive in the substrate, and the
   interrupted request is re-issued at restart so its processor still
   retires. *)
let crash_node t id =
  let node = t.nodes.(id) in
  if L.is_mem t.layout id then invalid_arg "Protocol.crash_node: memory controllers do not crash";
  if not node.down then begin
    node.down <- true;
    t.crashes <- t.crashes + 1;
    ensure_tick t;
    if E.tracing t.engine then E.emit t.engine (Obs.Event.Node_crash { node = id });
    S.crash t.sub id;
    Hashtbl.reset node.meta;
    Hashtbl.reset node.dsp;
    (match node.mshr with
    | Some m ->
      (match m.m_timer with Some ti -> E.cancel ti | None -> ());
      (match m.m_rec_timer with Some ti -> E.cancel ti | None -> ());
      node.pending_restart <- Some (m.m_addr, m.m_rw, m.m_commit, m.m_tid);
      node.mshr <- None
    | None -> ());
    Array.fill node.ptable 0 (Array.length node.ptable) None;
    Array.fill node.peer_seq 0 (Array.length node.peer_seq) (-1);
    Hashtbl.reset node.parb_active;
    Hashtbl.reset node.parb_epoch
  end

let restart_node t id =
  let node = t.nodes.(id) in
  if node.down then begin
    node.down <- false;
    if E.tracing t.engine then E.emit t.engine (Obs.Event.Node_restart { node = id });
    match node.pending_restart with
    | Some (addr, rw, commit, tid) when is_l1_node node ->
      node.pending_restart <- None;
      (* Re-announce the transaction under the same tid: the span
         assembler opens a fresh span whose issue..retire matches the
         latency sample, and the crash-interrupted span stays counted
         as incomplete — reconciliation never silently drifts. *)
      start_miss t node ~addr ~rw ~commit ~tid ~upgrade:false ~recovery:true
    | Some _ | None -> node.pending_restart <- None
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* The parking test (DESIGN.md, "Parked request copies"), run once per
   transient send: the destset words of the nodes where the send's
   copies for [addr] park. While a token of the block is in flight,
   none; else every L1 without a line for it, the layout's L1s minus
   the substrate's holders. One buffer serves every send. *)
let park_words t =
  let l1s = L.all_l1s_set t.layout in
  let nwords = ((L.node_count t.layout - 1) / DS.word_bits) + 1 in
  let l1_words = Array.init nwords (fun w -> if w < DS.nwords l1s then DS.word l1s w else 0) in
  let buf = Array.make nwords 0 in
  fun addr ->
    if S.inflight t.sub addr > 0 then [||]
    else begin
      let held = S.l1_holders t.sub addr in
      for w = 0 to nwords - 1 do
        buf.(w) <- l1_words.(w) land lnot held.(w)
      done;
      buf
    end

type debug = {
  token_count : Cache.Addr.t -> int;
  inflight_count : Cache.Addr.t -> int;
  total_tokens : int;
  node_tokens : int -> Cache.Addr.t -> int;
  node_owner : int -> Cache.Addr.t -> bool;
  persistent_entries : unit -> int;
}

let make_node t_layout policy rng id =
  let kind = L.kind t_layout id in
  let is_l1 = match kind with L.L1d _ | L.L1i _ -> true | _ -> false in
  {
    id;
    kind;
    meta = Hashtbl.create (match kind with L.L2 _ -> 1024 | _ -> 1);
    mshr = None;
    ptable = Array.make (L.nprocs t_layout) None;
    peer_seq = Array.make (L.nprocs t_layout) (-1);
    parb_active = Hashtbl.create 16;
    parb_epoch = Hashtbl.create 16;
    arb_queue = Hashtbl.create (match kind with L.Mem _ -> 64 | _ -> 1);
    arb_busy_until = 0;
    arb_active_rid = Hashtbl.create (match kind with L.Mem _ -> 64 | _ -> 1);
    arb_done_rid = Array.make (L.nprocs t_layout) (-1);
    predictor =
      (if is_l1 && policy.Policy.predictor then Some (Predictor.create (Sim.Rng.split rng))
       else None);
    dsp = Hashtbl.create (if is_l1 && policy.Policy.multicast then 256 else 1);
    down = false;
    pending_restart = None;
  }

let create ~recovery policy engine cfg traffic rng counters =
  let layout = Mcmp.Config.layout cfg in
  let fabric = F.create engine layout cfg.Mcmp.Config.fabric traffic (Sim.Rng.split rng) in
  (* Before the nodes: set-up measured cheaper (EXPERIMENTS.md, "Token substrate"). *)
  let sub = S.create ~recovery cfg fabric counters in
  let nodes =
    Array.init (L.node_count layout) (fun id -> make_node layout policy rng id)
  in
  let nnodes = L.node_count layout in
  let all_nodes_set = L.all_nodes_set layout in
  let all_caches_set = L.all_caches_set layout in
  let l1_sets = Array.init layout.L.ncmp (fun cmp -> L.l1s_of_cmp_set layout cmp) in
  let t =
    {
      engine;
      cfg;
      policy;
      layout;
      fabric;
      counters;
      rng;
      nodes;
      sub;
      pseq = Array.make (L.nprocs layout) 0;
      ema_mem = Sim.Stat.Ema.create ~alpha:0.2 ~init:200.;
      ema_all = Sim.Stat.Ema.create ~alpha:0.2 ~init:200.;
      persistent_sets = Array.init nnodes (fun id -> DS.remove id all_nodes_set);
      l1_sets;
      l1_minus_self =
        Array.init nnodes (fun id -> DS.remove id l1_sets.(L.cmp_of layout id));
      caches_minus_self = Array.init nnodes (fun id -> DS.remove id all_caches_set);
      recovery;
      tick_on = false;
      crashes = 0;
    }
  in
  (* A transient request copy to an L1 with no line for the block parks
     until tokens for the block are sent there (DESIGN.md, "Parked
     request copies"). That is exact only while every token message
     takes longer than the L1 lookup, and without the recovery stack's
     crashes and epoch changes. *)
  if
    (not recovery)
    && F.min_cache_latency cfg.fabric ~bytes:(min cfg.ctrl_bytes cfg.data_bytes)
       > cfg.l1_latency
  then F.set_parkable fabric (park_words t);
  F.set_handler fabric (fun ~dst msg -> handle t ~dst msg);
  (match Obs.Registry.of_engine engine with
  | Some reg ->
    (* Instantaneous gauges for the profiler's time-series tracks. *)
    Obs.Registry.register_int reg "token.outstanding_misses" (fun () ->
        Array.fold_left (fun acc n -> if n.mshr = None then acc else acc + 1) 0 t.nodes);
    Obs.Registry.register_int reg "token.tokens_inflight" (fun () -> S.inflight_total t.sub)
  | None -> ());
  (match (recovery, Obs.Registry.of_engine engine) with
  | true, Some reg ->
    Obs.Registry.register_int reg "token.recreations" (fun () -> S.recreations t.sub);
    Obs.Registry.register_int reg "token.epoch_bumps" (fun () -> S.epoch_bumps t.sub);
    Obs.Registry.register_int reg "token.stale_discards" (fun () -> S.stale_discards t.sub);
    Obs.Registry.register_int reg "token.crashes" (fun () -> t.crashes)
  | _ -> ());
  t

let debug_of t =
  {
    token_count = S.held t.sub;
    inflight_count = S.inflight t.sub;
    total_tokens = t.cfg.tokens;
    node_tokens = S.node_tokens t.sub;
    node_owner = S.node_owner t.sub;
    persistent_entries =
      (fun () ->
        Array.fold_left
          (fun acc node ->
            let dist =
              Array.fold_left (fun a e -> if e = None then a else a + 1) 0 node.ptable
            in
            acc + dist + Hashtbl.length node.parb_active)
          0 t.nodes);
  }

(* Diagnostic dump of all in-flight protocol state. *)
let dump t fmt () =
  let lay = t.layout in
  Array.iter
    (fun node ->
      (match node.mshr with
      | Some m ->
        Format.fprintf fmt "%a: MSHR %a %s%s%s retries=%d issued@%a@." (L.pp_node lay) node.id
          Cache.Addr.pp m.m_addr
          (match m.m_rw with Msg.R -> "R" | Msg.W -> "W")
          (if m.m_persistent then " persistent" else "")
          (if m.m_pending_persistent then " pending-persistent" else "")
          m.m_retries Sim.Time.pp m.m_issued
      | None -> ());
      Array.iteri
        (fun proc entry ->
          match entry with
          | Some e ->
            Format.fprintf fmt "%a: ptable p%d -> %a %s l1=%d%s@." (L.pp_node lay) node.id proc
              Cache.Addr.pp e.pe_addr
              (match e.pe_rw with Msg.R -> "R" | Msg.W -> "W")
              e.pe_l1
              (if e.pe_marked then " (marked)" else "")
          | None -> ())
        node.ptable;
      Hashtbl.iter
        (fun addr (proc, l1, _) ->
          Format.fprintf fmt "%a: arb-active %a p%d l1=%d@." (L.pp_node lay) node.id
            Cache.Addr.pp addr proc l1)
        node.parb_active)
    t.nodes;
  S.dump t.sub fmt

type recovery_stats = {
  rs_recreations : int;
  rs_epoch_bumps : int;
  rs_stale_discards : int;
  rs_crashes : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime invariant checking (the fault-injection monitor's probe)    *)

(* The substrate's token checks, then the persistent-request tables'. *)
let check_invariants t =
  let time = now t in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  (* Persistent-request-table consistency: the requester's own slot and
     its MSHR must agree (both are updated synchronously at the
     requester; peer tables lag only by message latency). *)
  (match t.policy.Policy.activation with
  | Policy.Distributed ->
    Array.iter
      (fun node ->
        if is_l1_node node then begin
          let proc = proc_of_node t node in
          (match node.mshr with
          | Some m when m.m_persistent -> (
            match node.ptable.(proc) with
            | Some e when e.pe_addr = m.m_addr && e.pe_l1 = node.id -> ()
            | Some _ | None ->
              add
                (Mcmp.Violation.make ~kind:"ptable-mismatch" ~addr:m.m_addr ~node:node.id
                   ~time "persistent MSHR without a matching own-table activation"))
          | Some _ | None -> ());
          match node.ptable.(proc) with
          | Some e when e.pe_l1 = node.id && not e.pe_marked -> (
            match node.mshr with
            | Some m when m.m_persistent && m.m_addr = e.pe_addr -> ()
            | Some _ | None ->
              add
                (Mcmp.Violation.make ~kind:"ptable-orphan" ~addr:e.pe_addr ~node:node.id
                   ~time "own-table activation without a persistent MSHR behind it"))
          | Some _ | None -> ()
        end)
      t.nodes
  | Policy.Arbiter ->
    Array.iter
      (fun node ->
        if L.is_mem t.layout node.id then
          Hashtbl.iter
            (fun addr (_, l1, _) ->
              if not (L.is_l1 t.layout l1) then
                add
                  (Mcmp.Violation.make ~kind:"arbiter-bad-requester" ~addr ~node:node.id
                     ~time (Printf.sprintf "active entry names non-L1 node %d" l1)))
            node.parb_active)
      t.nodes);
  S.check t.sub @ List.rev !vs

let outstanding_of t =
  Array.fold_left
    (fun acc node ->
      match node.mshr with
      | Some m ->
        {
          Mcmp.Probe.o_node = node.id;
          o_addr = m.m_addr;
          o_issued = m.m_issued;
          o_retries = m.m_retries;
          o_persistent = m.m_persistent;
        }
        :: acc
      | None -> acc)
    [] t.nodes

type instrumented = {
  i_handle : Mcmp.Protocol.handle;
  i_debug : debug;
  i_probe : Mcmp.Probe.t;
  i_dump : Format.formatter -> unit -> unit;
  i_fabric : Msg.t F.t;
  i_crash : int -> unit;
  i_restart : int -> unit;
  i_recovery : unit -> recovery_stats;
}

let create_instrumented ?(recovery = false) policy engine cfg traffic rng counters =
  let t = create ~recovery policy engine cfg traffic rng counters in
  {
    i_handle =
      {
        Mcmp.Protocol.name = t.policy.Policy.name;
        access = (fun ~proc ~kind addr ~commit -> access t ~proc ~kind addr ~commit);
      };
    i_debug = debug_of t;
    i_probe =
      { Mcmp.Probe.check = (fun () -> check_invariants t); outstanding = (fun () -> outstanding_of t) };
    i_dump = dump t;
    i_fabric = t.fabric;
    i_crash = (fun id -> crash_node t id);
    i_restart = (fun id -> restart_node t id);
    i_recovery =
      (fun () ->
        {
          rs_recreations = S.recreations t.sub;
          rs_epoch_bumps = S.epoch_bumps t.sub;
          rs_stale_discards = S.stale_discards t.sub;
          rs_crashes = t.crashes;
        });
  }

let builder policy : Mcmp.Protocol.builder =
 fun engine cfg traffic rng counters ->
  (create_instrumented policy engine cfg traffic rng counters).i_handle
