module E = Sim.Engine
module L = Interconnect.Layout
module F = Interconnect.Fabric
module MC = Interconnect.Msg_class
module DS = Interconnect.Destset

(* Per-block token state of one cache line (or of memory's home entry).
   Invariant: resident cache lines have tokens >= 1; owner => valid. *)
type line = {
  mutable tokens : int;
  mutable owner : bool;
  mutable dirty : bool;
  mutable valid : bool;  (* holds usable data *)
  mutable hold_until : Sim.Time.t;  (* response-delay window *)
}

let fresh_line () = { tokens = 0; owner = false; dirty = false; valid = false; hold_until = 0 }

(* Token-FSM state label for trace events, e.g. "T3OV" (3 tokens, owner,
   valid) or "I" (no tokens, no data). Only evaluated while tracing. *)
let line_state_name line =
  if line.tokens = 0 && not line.valid then "I"
  else
    Printf.sprintf "T%d%s%s%s" line.tokens
      (if line.owner then "O" else "")
      (if line.valid then "V" else "")
      (if line.dirty then "D" else "")

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
  lines : line Cache.Sarray.t;  (* caches; unused singleton for mem *)
  mem_lines : (Cache.Addr.t, line) Hashtbl.t;  (* mem only *)
  meta : (Cache.Addr.t, l2meta) Hashtbl.t;  (* L2 only *)
  mutable mshr : mshr option;  (* L1 only *)
  ptable : pentry option array;  (* distributed activation *)
  peer_seq : int array;  (* distributed: last activation seq applied, per proc *)
  parb_active : (Cache.Addr.t, int * int * Msg.rw) Hashtbl.t;  (* arbiter activation *)
  parb_epoch : (Cache.Addr.t, int) Hashtbl.t;  (* last arbiter epoch applied *)
  (* mem arbiter: per-block activation queues plus a single arbitration
     server (fair queuing): every request/done decision occupies the
     arbiter for a service time, so blocks colocated on one controller
     contend for its arbitration bandwidth *)
  arb_queue : (Cache.Addr.t, (int * int * Msg.rw * int) Queue.t) Hashtbl.t;
  mutable arb_busy_until : Sim.Time.t;
  arb_epoch_ctr : (Cache.Addr.t, int) Hashtbl.t;  (* mem arbiter: activation epochs *)
  arb_active_rid : (Cache.Addr.t, int) Hashtbl.t;  (* mem arbiter: rid of active entry *)
  arb_done_rid : int array;  (* mem arbiter: highest completed rid, per proc *)
  predictor : Predictor.t option;  (* L1, dst1-pred *)
  dsp : (Cache.Addr.t, int) Hashtbl.t;  (* L1, dst1-mcast: last remote source chip *)
  (* --- recovery state --- *)
  mutable down : bool;  (* crashed: all incoming traffic is discarded *)
  epochs : (Cache.Addr.t, int) Hashtbl.t;
      (* known recreation epoch per block. Survives a crash: incarnation
         numbers live in NVRAM precisely so a restarted node can never
         accept stale-epoch tokens. *)
  mutable pending_restart : (Cache.Addr.t * Msg.rw * (unit -> unit) * int) option;
      (* L1: the in-flight request a crash interrupted, re-issued at
         restart so its processor still retires *)
}

(* Home-memory bookkeeping of one in-progress recreation. *)
type rec_state = {
  rc_epoch : int;
  rc_acks : (int, unit) Hashtbl.t;  (* cache ids that applied the bump *)
  mutable rc_timer : E.timer option;  (* bump rebroadcast *)
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
  inflight : (Cache.Addr.t, int) Hashtbl.t;
  inflight_owner : (Cache.Addr.t, int) Hashtbl.t;  (* owner tokens inside messages *)
  pseq : int array;  (* next activation sequence number, per proc *)
  ema_mem : Sim.Stat.Ema.t;
  ema_all : Sim.Stat.Ema.t;
  (* Broadcast destination sets, precomputed once so the hot send paths
     pass ready-made bitmasks to [Fabric.send_set]. *)
  persistent_sets : DS.t array;  (* per node: every node but itself *)
  l1_sets : DS.t array;  (* per cmp: its L1 nodes *)
  l1_minus_self : DS.t array;  (* per node: own chip's L1s minus itself *)
  caches_minus_self : DS.t array;  (* per node: all caches minus itself *)
  (* Free list of recycled [Msg.Tokens] records — the hottest message
     by volume. Filled at delivery (only while the fabric reports
     {!F.exactly_once}, so a pooled record can never be reached by a
     duplicate or a retransmit buffer), drained by [send_tokens]. *)
  tok_pool : Msg.t array;
  mutable tok_top : int;
  (* --- recovery state (all idle when [recovery = None]) --- *)
  recovery : Recovery.params option;
  mutable rec_timeout_src : (unit -> Sim.Time.t) option;
      (* adaptive recreation timeout (e.g. scaled fabric RTO); None
         keeps the static [recreation_timeout] and bit-identical runs *)
  cur_epoch : (Cache.Addr.t, int) Hashtbl.t;  (* authoritative epoch, bumped at mint *)
  recreating : (Cache.Addr.t, rec_state) Hashtbl.t;  (* home-memory collect phase *)
  mutable tick_on : bool;  (* recovery refresh tick currently armed *)
  mutable recreations : int;
  mutable epoch_bumps : int;
  mutable stale_discards : int;
  mutable crashes : int;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let now t = E.now t.engine
let is_mem_node n = match n.kind with L.Mem _ -> true | _ -> false
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

let home_mem t addr = L.mem t.layout ~cmp:(Cache.Addr.home_cmp ~ncmp:t.cfg.Mcmp.Config.ncmp addr)

let home_l2 t ~cmp addr =
  L.l2 t.layout ~cmp ~bank:(Cache.Addr.l2_bank ~nbanks:t.cfg.Mcmp.Config.l2_banks addr)

let inflight_count t addr = try Hashtbl.find t.inflight addr with Not_found -> 0

let inflight_owner_count t addr = try Hashtbl.find t.inflight_owner addr with Not_found -> 0

let add_inflight t addr d =
  let v = inflight_count t addr + d in
  if v < 0 then
    Mcmp.Violation.raise_it ~kind:"negative-inflight" ~addr ~time:(E.now t.engine)
      (Printf.sprintf
         "received %d more tokens than were in flight (token-creating duplicate?)" (-v));
  if v = 0 then Hashtbl.remove t.inflight addr else Hashtbl.replace t.inflight addr v

let add_inflight_owner t addr d =
  let v = inflight_owner_count t addr + d in
  if v < 0 then
    Mcmp.Violation.raise_it ~kind:"negative-inflight-owner" ~addr ~time:(E.now t.engine)
      "received an owner token that was not in flight";
  if v = 0 then Hashtbl.remove t.inflight_owner addr
  else Hashtbl.replace t.inflight_owner addr v

let recovery_on t = t.recovery <> None

(* Authoritative recreation epoch of a block (bumped only at mint). *)
let cur_epoch t addr = try Hashtbl.find t.cur_epoch addr with Not_found -> 0

(* A node's own view of the epoch. Memory is authoritative; a cache
   learns the epoch from bumps and from current-epoch tokens. *)
let node_epoch t node addr =
  if is_mem_node node then cur_epoch t addr
  else try Hashtbl.find node.epochs addr with Not_found -> 0

(* Memory starts with all T tokens of every block at the block's home
   controller; non-home controllers never hold tokens. *)
let is_home_mem t node addr =
  match node.kind with
  | L.Mem { cmp } -> cmp = Cache.Addr.home_cmp ~ncmp:t.cfg.Mcmp.Config.ncmp addr
  | L.L1d _ | L.L1i _ | L.L2 _ -> false

let mem_line t node addr =
  match Hashtbl.find_opt node.mem_lines addr with
  | Some l -> l
  | None ->
    let home = is_home_mem t node addr in
    let l =
      {
        tokens = (if home then t.cfg.tokens else 0);
        owner = home;
        dirty = false;
        valid = home;
        hold_until = 0;
      }
    in
    Hashtbl.add node.mem_lines addr l;
    l

let cache_line node addr = Cache.Sarray.find node.lines addr

let get_meta node addr =
  match Hashtbl.find_opt node.meta addr with
  | Some m -> m
  | None ->
    let m = { sharers = 0; filter_sharers = 0; l1_tokens = 0; owner_hint = None } in
    Hashtbl.add node.meta addr m;
    m

(* Drop a cache line whose tokens reached zero. *)
let strip node addr line =
  if line.tokens = 0 then begin
    line.valid <- false;
    line.dirty <- false;
    line.owner <- false;
    if not (is_mem_node node) then Cache.Sarray.remove node.lines addr
  end

(* ------------------------------------------------------------------ *)
(* Token transfer                                                      *)

let send_tokens t ~src ~dst ~addr ~count ~owner ~data ~dirty ~writeback =
  if count < 1 then
    Mcmp.Violation.raise_it ~kind:"empty-token-message" ~addr ~node:src
      ~time:(E.now t.engine)
      (Printf.sprintf "attempted to send %d tokens to node %d" count dst);
  if owner && not data then
    Mcmp.Violation.raise_it ~kind:"owner-without-data" ~addr ~node:src
      ~time:(E.now t.engine)
      (Printf.sprintf "owner token sent to node %d without the data block" dst);
  (* Tokens are stamped with the sender's epoch view; a sender always
     holds current-epoch tokens (the collect phase destroys older ones
     before a mint), so the stamp equals the authoritative epoch and
     the in-flight accounting below counts current-epoch tokens only. *)
  let epoch = node_epoch t t.nodes.(src) addr in
  if epoch = cur_epoch t addr then begin
    add_inflight t addr count;
    if owner then add_inflight_owner t addr 1
  end;
  let cls =
    if writeback then if data then MC.Writeback_data else MC.Writeback_control
    else if data then MC.Response_data
    else MC.Inv_fwd_ack_tokens
  in
  let bytes = if data then t.cfg.data_bytes else t.cfg.ctrl_bytes in
  let m =
    if t.tok_top > 0 then begin
      t.tok_top <- t.tok_top - 1;
      let m = t.tok_pool.(t.tok_top) in
      (match m with
      | Msg.Tokens r ->
        r.addr <- addr;
        r.src <- src;
        r.count <- count;
        r.owner <- owner;
        r.data <- data;
        r.dirty <- dirty;
        r.writeback <- writeback;
        r.epoch <- epoch
      | _ -> assert false);
      m
    end
    else Msg.Tokens { addr; src; count; owner; data; dirty; writeback; epoch }
  in
  (* Request copies for [addr] parked at [dst] may find a line now. *)
  F.wake t.fabric ~dst ~key:addr;
  F.send_one t.fabric ~src ~dst ~cls ~bytes m

(* Take [count] tokens out of [line] for a message; sending the owner
   token requires sending data too. *)
let take t node addr line ~count ~with_owner =
  if count > line.tokens then
    Mcmp.Violation.raise_it ~kind:"token-overdraw" ~addr ~node:node.id
      ~time:(E.now t.engine)
      (Printf.sprintf "taking %d tokens from a line holding %d" count line.tokens);
  if with_owner && not line.owner then
    Mcmp.Violation.raise_it ~kind:"phantom-owner" ~addr ~node:node.id
      ~time:(E.now t.engine) "taking the owner token from a non-owner line";
  line.tokens <- line.tokens - count;
  if with_owner then line.owner <- false;
  strip node addr line

(* ------------------------------------------------------------------ *)
(* Persistent-request machinery (the correctness substrate)            *)

(* Recovery: a leased table entry whose refresh stopped (its requester
   crashed, or the entry is a stale reapplication) eventually expires
   instead of blocking the block forever. Never true without recovery. *)
let pe_expired t e =
  recovery_on t && e.pe_expires > 0 && E.now t.engine > e.pe_expires

(* The request currently activated at [node] for [addr], if any. *)
let active_persistent t node addr =
  match t.policy.Policy.activation with
  | Policy.Arbiter -> Hashtbl.find_opt node.parb_active addr
  | Policy.Distributed ->
    let best = ref None in
    Array.iteri
      (fun proc entry ->
        match entry with
        | Some e when e.pe_addr = addr && not (pe_expired t e) ->
          if !best = None then best := Some (proc, e.pe_l1, e.pe_rw)
        | Some _ | None -> ())
      node.ptable;
    !best

(* Forward tokens held at [node] to the active persistent requester.
   Write requests take everything; read requests leave one token behind
   at caches (the paper's persistent read), with the owner supplying
   data. Deferred by the response-delay window. *)
let rec persistent_check t node addr =
  if node.down then ()
  else
    match active_persistent t node addr with
  | None -> ()
  | Some (_, l1, rw) when l1 <> node.id ->
    let line =
      if is_mem_node node then
        if is_home_mem t node addr then Some (mem_line t node addr) else None
      else cache_line node addr
    in
    let line = match line with Some l when l.tokens > 0 -> Some l | Some _ | None -> None in
    (match line with
    | None -> ()
    | Some line ->
      if now t < line.hold_until then
        E.schedule_at t.engine line.hold_until (fun () -> persistent_check t node addr)
      else begin
        let send ~count ~owner ~data =
          let dirty = line.dirty && owner in
          take t node addr line ~count ~with_owner:owner;
          send_tokens t ~src:node.id ~dst:l1 ~addr ~count ~owner ~data ~dirty ~writeback:false
        in
        match rw with
        | Msg.W -> send ~count:line.tokens ~owner:line.owner ~data:line.owner
        | Msg.R ->
          if is_mem_node node then send ~count:line.tokens ~owner:line.owner ~data:line.owner
          else if line.owner then
            if line.tokens = 1 then send ~count:1 ~owner:true ~data:true
            else send ~count:(line.tokens - 1) ~owner:false ~data:true
          else if line.tokens > 1 then send ~count:(line.tokens - 1) ~owner:false ~data:false
      end)
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* Transient-request responses (performance policy)                    *)

let caches_per_cmp t = L.caches_per_cmp t.layout

(* Response of one cache line to a transient request (Section 4 rules).
   Returns tokens sent, for the L2's chip-token estimate. *)
let respond_from_line t node line ~addr ~requester ~rw ~same_cmp =
  if line.tokens = 0 then 0
  else begin
    let reply ~count ~owner ~data =
      let dirty = line.dirty && owner in
      take t node addr line ~count ~with_owner:owner;
      send_tokens t ~src:node.id ~dst:requester ~addr ~count ~owner ~data ~dirty ~writeback:false;
      count
    in
    let all = line.tokens in
    let migrate =
      t.cfg.migratory && line.tokens = t.cfg.tokens && line.dirty && line.valid
    in
    match rw with
    | Msg.W -> reply ~count:all ~owner:line.owner ~data:line.owner
    | Msg.R ->
      if same_cmp then begin
        if migrate then reply ~count:all ~owner:true ~data:true
        else if line.tokens > 1 && line.valid then reply ~count:1 ~owner:false ~data:true
        else 0
      end
      else if not line.owner then 0
      else if migrate then reply ~count:all ~owner:true ~data:true
      else begin
        (* External read: owner replies with C tokens if possible so
           future requests on the asking chip hit locally. *)
        let k = min (caches_per_cmp t) (line.tokens - 1) in
        if k >= 1 then reply ~count:k ~owner:false ~data:true
        else reply ~count:1 ~owner:true ~data:true
      end
  end

(* Memory's response to a transient request, after controller (and, if
   data will move, DRAM) latency. State is re-examined at fire time
   because requests can race during the DRAM access. *)
let mem_respond t node ~addr ~requester ~rw =
  let line = mem_line t node addr in
  let data_expected = line.owner in
  let delay =
    t.cfg.mem_ctrl_latency + if data_expected then t.cfg.dram_latency else Sim.Time.zero
  in
  E.schedule_in t.engine delay (fun () ->
      let line = mem_line t node addr in
      if line.tokens > 0 then begin
        (* The controller+DRAM occupancy just paid is on the requester's
           critical path — attribute it to its open span. *)
        if E.tracing t.engine then
          E.emit t.engine
            (Obs.Event.Mem_hop { requester; ns = Sim.Time.to_ns delay });
        let reply ~count ~owner ~data =
          take t node addr line ~count ~with_owner:owner;
          send_tokens t ~src:node.id ~dst:requester ~addr ~count ~owner ~data ~dirty:false
            ~writeback:false
        in
        match rw with
        | Msg.W -> reply ~count:line.tokens ~owner:line.owner ~data:line.owner
        | Msg.R ->
          if line.owner then
            if line.tokens = t.cfg.tokens then
              (* Block uncached anywhere: grant everything, the token
                 analogue of a directory's E grant on an uncached read. *)
              reply ~count:line.tokens ~owner:true ~data:true
            else begin
              let k = min (caches_per_cmp t) line.tokens in
              reply ~count:k ~owner:(k = line.tokens) ~data:true
            end
      end)

(* ------------------------------------------------------------------ *)
(* Evictions / writebacks                                              *)

let rec evict t node vaddr vline =
  t.counters.Mcmp.Counters.writebacks <- t.counters.Mcmp.Counters.writebacks + 1;
  let dst =
    if is_l1_node node then home_l2 t ~cmp:(node_cmp node) vaddr else home_mem t vaddr
  in
  if vline.tokens > 0 then
    send_tokens t ~src:node.id ~dst ~addr:vaddr ~count:vline.tokens ~owner:vline.owner
      ~data:vline.owner ~dirty:(vline.dirty && vline.owner) ~writeback:true;
  vline.tokens <- 0;
  vline.owner <- false;
  Cache.Sarray.remove node.lines vaddr

(* Find-or-allocate a cache line, evicting the LRU victim if needed. *)
and alloc_line t node addr =
  match cache_line node addr with
  | Some l -> l
  | None ->
    (match Cache.Sarray.victim_for node.lines addr with
    | Some (vaddr, vline) -> evict t node vaddr vline
    | None -> ());
    let l = fresh_line () in
    Cache.Sarray.insert node.lines addr l;
    l

(* ------------------------------------------------------------------ *)
(* MSHR lifecycle                                                      *)

let satisfied t node m =
  match cache_line node m.m_addr with
  | None -> false
  | Some l -> (
    match m.m_rw with
    | Msg.R -> l.tokens >= 1 && l.valid
    | Msg.W -> l.tokens = t.cfg.tokens && l.valid)

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

let has_marked_for t node addr =
  Array.exists
    (function
      | Some e -> e.pe_addr = addr && e.pe_marked && not (pe_expired t e)
      | None -> false)
    node.ptable

let persistent_targets t node = t.persistent_sets.(node.id)

(* Park key of a transient request for [addr]: the block while no token
   of it is in flight, else none (DESIGN.md, "Parked request copies"). *)
let request_park t addr = if inflight_count t addr = 0 then addr else -1

let rec broadcast_transient t node m ~force_external =
  let addr = m.m_addr in
  let rw = m.m_rw in
  let hint = if t.policy.Policy.multicast then Hashtbl.find_opt node.dsp addr else None in
  let msg scope = Msg.Transient { addr; requester = node.id; rw; scope; force_external; hint } in
  if t.policy.Policy.hierarchical then begin
    let cmp = node_cmp node in
    let dsts = DS.add (home_l2 t ~cmp addr) t.l1_minus_self.(node.id) in
    F.send_set_parkable t.fabric ~park:(request_park t addr) ~src:node.id ~dsts ~cls:MC.Request
      ~bytes:t.cfg.ctrl_bytes (msg `Local)
  end
  else begin
    (* Flat TokenB-style global broadcast (ablation). *)
    let dsts = DS.add (home_mem t addr) t.caches_minus_self.(node.id) in
    F.send_set_parkable t.fabric ~park:(request_park t addr) ~src:node.id ~dsts ~cls:MC.Request
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
  match t.recovery with
  | Some p ->
    (match m.m_rec_timer with Some ti -> E.cancel ti | None -> ());
    (* An adaptive source replaces the static constant outright (that
       is the point: scale with observed conditions, down as well as
       up), floored at [bump_retry] so a cold estimator cannot spin the
       recreation ask. *)
    let timeout =
      match t.rec_timeout_src with
      | Some f -> max p.Recovery.bump_retry (f ())
      | None -> p.Recovery.recreation_timeout
    in
    m.m_rec_timer <-
      Some (E.timer_in t.engine timeout (fun () -> request_recreation t node m))
  | None -> ()

and request_recreation t node m =
  m.m_rec_timer <- None;
  match node.mshr with
  | Some m' when m' == m && (not node.down) && not (satisfied t node m) ->
    m.m_recovery <- true;
    let addr = m.m_addr in
    F.send_one t.fabric ~src:node.id ~dst:(home_mem t addr) ~cls:MC.Persistent
      ~bytes:t.cfg.ctrl_bytes
      (Msg.Recreate_req { addr; src = node.id; epoch = node_epoch t node addr });
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
  match t.policy.Policy.activation with
  | Policy.Arbiter ->
    m.m_persistent <- true;
    arm_rec_timer t node m;
    let proc = proc_of_node t node in
    let rid = t.pseq.(proc) in
    t.pseq.(proc) <- rid + 1;
    F.send_one t.fabric ~src:node.id ~dst:(home_mem t m.m_addr) ~cls:MC.Persistent
      ~bytes:t.cfg.ctrl_bytes
      (Msg.P_arb_request { addr = m.m_addr; proc; l1 = node.id; rw = m.m_rw; rid })
  | Policy.Distributed ->
    if has_marked_for t node m.m_addr then m.m_pending_persistent <- true
    else begin
      m.m_persistent <- true;
      m.m_pending_persistent <- false;
      arm_rec_timer t node m;
      let proc = proc_of_node t node in
      let seq = t.pseq.(proc) in
      t.pseq.(proc) <- seq + 1;
      node.peer_seq.(proc) <- seq;
      node.ptable.(proc) <-
        Some
          { pe_addr = m.m_addr; pe_rw = m.m_rw; pe_l1 = node.id; pe_marked = false;
            pe_expires = 0 };
      F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
        ~bytes:t.cfg.ctrl_bytes
        (Msg.P_activate { addr = m.m_addr; proc; l1 = node.id; rw = m.m_rw; seq })
    end

and complete t node m =
  (match m.m_timer with Some timer -> E.cancel timer | None -> ());
  m.m_timer <- None;
  (match m.m_rec_timer with Some timer -> E.cancel timer | None -> ());
  m.m_rec_timer <- None;
  node.mshr <- None;
  let line =
    match cache_line node m.m_addr with
    | Some l -> l
    | None ->
      Mcmp.Violation.raise_it ~kind:"complete-without-line" ~addr:m.m_addr ~node:node.id
        ~time:(now t) "request completed but the line is no longer resident"
  in
  let lat_ns = Sim.Time.to_ns (now t - m.m_issued) in
  Sim.Stat.Ema.add t.ema_all lat_ns;
  if m.m_saw_mem then Sim.Stat.Ema.add t.ema_mem lat_ns;
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
  Cache.Sarray.touch node.lines m.m_addr;
  (match m.m_rw with
  | Msg.W ->
    line.dirty <- true;
    line.hold_until <- now t + t.cfg.response_delay
  | Msg.R ->
    (* A migratory grab of all tokens is about to be written; keep the
       window so the upcoming test-and-set hits. *)
    if line.tokens = t.cfg.tokens then line.hold_until <- now t + t.cfg.response_delay);
  if m.m_persistent then deactivate t node m;
  m.m_commit ()

and deactivate t node m =
  let proc = proc_of_node t node in
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Persistent { node = node.id; proc; addr = m.m_addr; action = "deactivate" });
  match t.policy.Policy.activation with
  | Policy.Arbiter ->
    F.send_one t.fabric ~src:node.id ~dst:(home_mem t m.m_addr) ~cls:MC.Persistent
      ~bytes:t.cfg.ctrl_bytes
      (Msg.P_arb_done { addr = m.m_addr; proc; rid = t.pseq.(proc) - 1 })
  | Policy.Distributed ->
    let seq = t.pseq.(proc) - 1 in
    node.ptable.(proc) <- None;
    (* FutureBus-style wave marking: outstanding requests for this block
       must drain before this processor may re-request it. *)
    Array.iter
      (function Some e when e.pe_addr = m.m_addr -> e.pe_marked <- true | Some _ | None -> ())
      node.ptable;
    F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
      ~bytes:t.cfg.ctrl_bytes
      (Msg.P_deactivate { addr = m.m_addr; proc; seq });
    persistent_check t node m.m_addr

(* Recovery tick: periodically re-broadcast still-active persistent
   activations (re-populating the tables of restarted peers and
   extending leases everywhere else), purge expired entries, and retry
   deferred persistent issues. Self-rescheduling only while recovery
   work is outstanding, so runs still drain their event queues. *)
and ensure_tick t =
  match t.recovery with
  | Some p when not t.tick_on ->
    t.tick_on <- true;
    ignore (E.timer_in t.engine p.Recovery.refresh_interval (fun () -> recovery_tick t p))
  | Some _ | None -> ()

and recovery_tick t p =
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
  let live = ref (Hashtbl.length t.recreating > 0) in
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
      else if is_mem_node node then
        (* Arbiter refresh: re-broadcast active grants so restarted
           caches relearn them (their activation-epoch view was wiped,
           so the same sequence number applies again). *)
        Hashtbl.iter
          (fun addr (proc, l1, rw) ->
            live := true;
            let seq = try Hashtbl.find node.parb_epoch addr with Not_found -> 0 in
            F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
              ~bytes:t.cfg.ctrl_bytes
              (Msg.P_activate { addr; proc; l1; rw; seq }))
          node.parb_active)
    t.nodes;
  if !live then
    ignore (E.timer_in t.engine p.Recovery.refresh_interval (fun () -> recovery_tick t p))
  else t.tick_on <- false

and refresh_activation t node m =
  match t.policy.Policy.activation with
  | Policy.Distributed ->
    (* Per-processor transactions are serial, so the outstanding
       activation's sequence number is always the last one issued. *)
    let proc = proc_of_node t node in
    F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
      ~bytes:t.cfg.ctrl_bytes
      (Msg.P_activate
         { addr = m.m_addr; proc; l1 = node.id; rw = m.m_rw; seq = t.pseq.(proc) - 1 })
  | Policy.Arbiter -> ()

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)

let check_mshr t node addr ~from =
  match node.mshr with
  | Some m when m.m_addr = addr ->
    if L.is_mem t.layout from then m.m_saw_mem <- true
    else if L.cmp_of t.layout from <> node_cmp node then m.m_saw_remote <- true;
    if E.tracing t.engine then
      E.emit t.engine (Obs.Event.Req_response { tid = m.m_tid; node = node.id; src = from });
    if satisfied t node m then complete t node m
  | Some _ | None -> ()

let rec receive_tokens t node ~addr ~src ~count ~owner ~data ~dirty ~writeback ~epoch =
  (* Recovery: tokens stamped with a superseded epoch are discarded on
     receipt — they were declared dead when the home controller minted a
     replacement set, and merging them would overshoot T. Tokens of the
     current epoch reaching a cache that already applied a pending bump
     (node view ahead of the authoritative epoch, mid-collect) are dead
     too, but still leave the current in-flight account. *)
  let stale =
    recovery_on t && (epoch < node_epoch t node addr || epoch < cur_epoch t addr)
  in
  if stale then begin
    t.stale_discards <- t.stale_discards + 1;
    if E.tracing t.engine then
      E.emit t.engine (Obs.Event.Stale_discard { node = node.id; addr; epoch });
    if epoch = cur_epoch t addr then begin
      add_inflight t addr (-count);
      if owner then add_inflight_owner t addr (-1)
    end
  end
  else receive_tokens_live t node ~addr ~src ~count ~owner ~data ~dirty ~writeback ~epoch

and receive_tokens_live t node ~addr ~src ~count ~owner ~data ~dirty ~writeback ~epoch =
  add_inflight t addr (-count);
  if owner then add_inflight_owner t addr (-1);
  if recovery_on t && (not (is_mem_node node)) && epoch > node_epoch t node addr then
    Hashtbl.replace node.epochs addr epoch;
  let line = if is_mem_node node then mem_line t node addr else alloc_line t node addr in
  let from_state = if E.tracing t.engine then line_state_name line else "" in
  line.tokens <- line.tokens + count;
  if owner then line.owner <- true;
  if data then line.valid <- true;
  if dirty then line.dirty <- true;
  if E.tracing t.engine then
    E.emit t.engine
      (Obs.Event.Fsm
         { node = node.id; addr; fsm = "token"; from_state;
           to_state = line_state_name line });
  if not (is_mem_node node) then Cache.Sarray.touch node.lines addr;
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
  if is_l1_node node then check_mshr t node addr ~from:src;
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
          let acc = DS.add (home_l2 t ~cmp addr) acc in
          if t.policy.Policy.filter then acc else DS.union acc t.l1_sets.(cmp))
      (DS.singleton (home_mem t addr))
      chips
  in
  F.send_set_parkable t.fabric ~park:(request_park t addr) ~src:node.id ~dsts ~cls:MC.Request
    ~bytes:t.cfg.ctrl_bytes
    (Msg.Transient { addr; requester; rw; scope = `External; force_external = false; hint = None })

let handle_transient_l1 t node ~addr ~requester ~rw =
  E.schedule_in t.engine t.cfg.l1_latency (fun () ->
      match if node.down then None else cache_line node addr with
      | None -> ()
      | Some line ->
        (* Transient requests are stateless at responders: inside the
           response-delay window the cache simply does not respond and
           the requester must retry or escalate to a persistent request
           (which, unlike transients, is remembered and served when the
           window closes). *)
        if now t >= line.hold_until then begin
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
      F.send_set_parkable t.fabric ~park:(request_park t addr) ~src:node.id ~dsts ~cls:MC.Request
        ~bytes:t.cfg.ctrl_bytes
        (Msg.Transient { addr; requester; rw; scope = `External; force_external; hint = None })
  end;
  E.schedule_in t.engine t.cfg.l2_latency (fun () ->
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Lookup
             { node = node.id; level = Obs.Event.L2; addr;
               hit = (match cache_line node addr with
                     | Some l -> l.tokens > 0 && l.valid
                     | None -> false) });
      let meta = get_meta node addr in
      let same_cmp = L.cmp_of t.layout requester = node_cmp node in
      if same_cmp && scope = `Local then begin
        (* Chip-token estimate before this response moves tokens. *)
        let l2_tokens = match cache_line node addr with Some l -> l.tokens | None -> 0 in
        let estimate = l2_tokens + meta.l1_tokens in
        let other_sharers = meta.sharers land lnot (local_l1_bit t requester) in
        meta.sharers <- meta.sharers lor local_l1_bit t requester;
        meta.filter_sharers <- meta.filter_sharers lor local_l1_bit t requester;
        let sent =
          match cache_line node addr with
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
        (match cache_line node addr with
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

let arb_queue node addr =
  match Hashtbl.find_opt node.arb_queue addr with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add node.arb_queue addr q;
    q

(* Serialize a decision through the arbiter server. *)
let arb_schedule t node k =
  let ready = max (now t + t.cfg.mem_ctrl_latency) node.arb_busy_until in
  let start = ready + arb_service in
  node.arb_busy_until <- start;
  E.schedule_at t.engine start k

let arb_activate t node addr (proc, l1, rw, rid) =
  if E.tracing t.engine then
    E.emit t.engine (Obs.Event.Persistent { node = node.id; proc; addr; action = "arb-grant" });
  let epoch = 1 + (try Hashtbl.find node.arb_epoch_ctr addr with Not_found -> 0) in
  Hashtbl.replace node.arb_epoch_ctr addr epoch;
  Hashtbl.replace node.parb_epoch addr epoch;
  Hashtbl.replace node.parb_active addr (proc, l1, rw);
  Hashtbl.replace node.arb_active_rid addr rid;
  F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
    ~bytes:t.cfg.ctrl_bytes
    (Msg.P_activate { addr; proc; l1; rw; seq = epoch });
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
        let epoch = try Hashtbl.find node.arb_epoch_ctr addr with Not_found -> 0 in
        F.send_set t.fabric ~src:node.id ~dsts:(persistent_targets t node) ~cls:MC.Persistent
          ~bytes:t.cfg.ctrl_bytes
          (Msg.P_deactivate { addr; proc; seq = epoch });
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
      let expires =
        match t.recovery with Some p -> now t + p.Recovery.lease | None -> 0
      in
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

(* ------------------------------------------------------------------ *)
(* Token recreation (the recovery tentpole). Lost tokens starve a
   persistent request forever under the base substrate, whose safety
   story assumes tokens are conserved. Recreation restores liveness
   without giving up safety by running a two-phase epoch bump at the
   block's home memory controller: (1) collect — broadcast the next
   epoch number to every cache and retry until all ack, each cache
   destroying whatever it holds under older epochs; (2) mint — with
   every cache provably empty and all in-flight tokens doomed to
   stale-discard on receipt, materialize a fresh full set (T tokens +
   owner) at the controller and hand it to the persistent winner.  The
   block's value is architecturally safe throughout: committed stores
   live in the workload's value oracle, so remint-from-memory can never
   resurrect stale data in this model (a hardware implementation would
   write the owner's data back during collect). *)

let handle_recreate_req t node ~addr ~src:_ ~epoch:_ =
  (* Any still-starving persistent requester may ask; asks re-arm only
     while the MSHR stays unsatisfied, so even a requester with a stale
     epoch view is starving *now* and a fresh recreation is warranted.
     Concurrent and duplicate asks collapse onto the in-progress
     collect phase. *)
  match t.recovery with
  | Some p when is_home_mem t node addr && not (Hashtbl.mem t.recreating addr) ->
    let rc_epoch = cur_epoch t addr + 1 in
    let rc = { rc_epoch; rc_acks = Hashtbl.create 16; rc_timer = None } in
    Hashtbl.add t.recreating addr rc;
    let rec broadcast () =
      rc.rc_timer <- None;
      let pending =
        List.filter (fun id -> not (Hashtbl.mem rc.rc_acks id)) (L.all_caches t.layout)
      in
      if pending <> [] then begin
        F.send_set t.fabric ~src:node.id ~dsts:(DS.of_list pending) ~cls:MC.Persistent
          ~bytes:t.cfg.ctrl_bytes
          (Msg.Epoch_bump { addr; epoch = rc_epoch });
        (* Rebroadcast until everyone acked: this is what rides through
           caches that are crashed mid-recreation. *)
        rc.rc_timer <- Some (E.timer_in t.engine p.Recovery.bump_retry broadcast)
      end
    in
    broadcast ()
  | Some _ | None -> ()

let handle_epoch_bump t node ~addr ~epoch =
  if epoch > node_epoch t node addr then begin
    Hashtbl.replace node.epochs addr epoch;
    t.epoch_bumps <- t.epoch_bumps + 1;
    if E.tracing t.engine then
      E.emit t.engine (Obs.Event.Epoch_bump { node = node.id; addr; epoch });
    match cache_line node addr with
    | Some line ->
      line.tokens <- 0;
      line.owner <- false;
      strip node addr line
    | None -> ()
  end;
  (* Always ack, including re-deliveries: the controller's collect must
     converge no matter how bumps and acks are reordered or retried. *)
  F.send_one t.fabric ~src:node.id ~dst:(home_mem t addr) ~cls:MC.Persistent
    ~bytes:t.cfg.ctrl_bytes
    (Msg.Epoch_ack { addr; src = node.id; epoch })

let handle_epoch_ack t node ~addr ~src ~epoch =
  match Hashtbl.find_opt t.recreating addr with
  | Some rc when rc.rc_epoch = epoch ->
    Hashtbl.replace rc.rc_acks src ();
    if Hashtbl.length rc.rc_acks = List.length (L.all_caches t.layout) then begin
      (* Every cache renounced the old epoch: mint a fresh full set.
         Surviving in-flight tokens all carry older epochs and will be
         discarded on receipt, so the accounting restarts clean. *)
      (match rc.rc_timer with Some ti -> E.cancel ti | None -> ());
      rc.rc_timer <- None;
      Hashtbl.remove t.recreating addr;
      Hashtbl.remove t.inflight addr;
      Hashtbl.remove t.inflight_owner addr;
      Hashtbl.replace t.cur_epoch addr rc.rc_epoch;
      let line = mem_line t node addr in
      line.tokens <- t.cfg.tokens;
      line.owner <- true;
      line.valid <- true;
      line.dirty <- false;
      line.hold_until <- 0;
      t.recreations <- t.recreations + 1;
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Token_recreated { addr; epoch = rc.rc_epoch; tokens = t.cfg.tokens });
      persistent_check t node addr
    end
  | Some _ | None -> ()

let handle t ~dst msg =
  let node = t.nodes.(dst) in
  if node.down then begin
    (* A crashed node's traffic dies at the pins. Tokens it would have
       received are destroyed — they leave the in-flight account (a
       deficit recreation will heal) unless a mint already disowned
       their epoch. *)
    match msg with
    | Msg.Tokens { addr; count; owner; epoch; _ } ->
      if (not (recovery_on t)) || epoch = cur_epoch t addr then begin
        add_inflight t addr (-count);
        if owner then add_inflight_owner t addr (-1)
      end
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
    receive_tokens t node ~addr ~src ~count ~owner ~data ~dirty ~writeback ~epoch
  | Msg.P_activate { addr; proc; l1; rw; seq } ->
    handle_p_activate t node ~addr ~proc ~l1 ~rw ~seq
  | Msg.P_deactivate { addr; proc; seq } -> handle_p_deactivate t node ~addr ~proc ~seq
  | Msg.P_arb_request { addr; proc; l1; rw; rid } ->
    handle_arb_request t node ~addr ~proc ~l1 ~rw ~rid
  | Msg.P_arb_done { addr; proc; rid } -> handle_arb_done t node ~addr ~proc ~rid
  | Msg.Recreate_req { addr; src; epoch } -> handle_recreate_req t node ~addr ~src ~epoch
  | Msg.Epoch_bump { addr; epoch } -> handle_epoch_bump t node ~addr ~epoch
  | Msg.Epoch_ack { addr; src; epoch } -> handle_epoch_ack t node ~addr ~src ~epoch

(* ------------------------------------------------------------------ *)
(* Processor-side entry point                                          *)

let issue t node m =
  let straight_persistent =
    t.policy.Policy.transient_requests = 0
    ||
    match node.predictor with
    | Some p -> Predictor.predicts_contended p m.m_addr
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
      let line = cache_line node addr in
      let hit =
        match (line, rw) with
        | Some l, Msg.R -> l.tokens >= 1 && l.valid
        | Some l, Msg.W -> l.tokens = t.cfg.tokens && l.valid
        | None, _ -> false
      in
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Lookup { node = node.id; level = Obs.Event.L1; addr; hit });
      if hit then begin
        t.counters.Mcmp.Counters.l1_hits <- t.counters.Mcmp.Counters.l1_hits + 1;
        Cache.Sarray.touch node.lines addr;
        (match (line, rw) with
        | Some l, Msg.W ->
          l.dirty <- true;
          l.hold_until <- max l.hold_until (now t + t.cfg.response_delay)
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
          match (line, rw) with
          | Some l, Msg.W -> l.valid && l.tokens >= 1
          | _ -> false
        in
        let m =
          {
            m_addr = addr;
            m_rw = rw;
            m_commit = commit;
            m_issued = now t;
            m_tid = tid;
            m_retries = 0;
            m_timer = None;
            m_rec_timer = None;
            m_persistent = false;
            m_counted = false;
            m_pending_persistent = false;
            m_saw_mem = false;
            m_saw_remote = false;
            m_upgrade = upgrade;
            m_recovery = false;
          }
        in
        node.mshr <- Some m;
        if E.tracing t.engine then
          E.emit t.engine
            (Obs.Event.Req_issue
               { tid; node = node.id; proc; addr;
                 rw = (match rw with Msg.W -> Obs.Event.W | Msg.R -> Obs.Event.R) });
        issue t node m
      end
      end)

(* ------------------------------------------------------------------ *)
(* Crash / restart (recovery fault model)                              *)

(* Power-cycle a cache node. All volatile state dies: resident lines
   (their tokens are simply gone until a recreation heals the deficit),
   the MSHR and its timers, sharer metadata and both activation-table
   views. Two things survive: [epochs] — incarnation numbers live in
   NVRAM precisely so a restarted node can never accept stale-epoch
   tokens — and the interrupted request, which is re-issued at restart
   so its processor still retires. *)
let crash_node t id =
  let node = t.nodes.(id) in
  if is_mem_node node then invalid_arg "Protocol.crash_node: memory controllers do not crash";
  if not node.down then begin
    node.down <- true;
    t.crashes <- t.crashes + 1;
    ensure_tick t;
    if E.tracing t.engine then E.emit t.engine (Obs.Event.Node_crash { node = id });
    let addrs = ref [] in
    Cache.Sarray.iter (fun a _ -> addrs := a :: !addrs) node.lines;
    List.iter (fun a -> Cache.Sarray.remove node.lines a) !addrs;
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
      let m =
        {
          m_addr = addr;
          m_rw = rw;
          m_commit = commit;
          m_issued = now t;
          m_tid = tid;
          m_retries = 0;
          m_timer = None;
          m_rec_timer = None;
          m_persistent = false;
          m_counted = false;
          m_pending_persistent = false;
          m_saw_mem = false;
          m_saw_remote = false;
          m_upgrade = false;
          m_recovery = true;
        }
      in
      node.mshr <- Some m;
      (* Re-announce the transaction under the same tid: the span
         assembler opens a fresh span whose issue..retire matches the
         latency sample, and the crash-interrupted span stays counted
         as incomplete — reconciliation never silently drifts. *)
      if E.tracing t.engine then
        E.emit t.engine
          (Obs.Event.Req_issue
             { tid; node = node.id; proc = proc_of_node t node; addr;
               rw = (match rw with Msg.W -> Obs.Event.W | Msg.R -> Obs.Event.R) });
      issue t node m
    | Some _ | None -> node.pending_restart <- None
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

type debug = {
  token_count : Cache.Addr.t -> int;
  inflight_count : Cache.Addr.t -> int;
  total_tokens : int;
  node_tokens : int -> Cache.Addr.t -> int;
  node_owner : int -> Cache.Addr.t -> bool;
  persistent_entries : unit -> int;
}

let make_node t_layout cfg policy rng id =
  let kind = L.kind t_layout id in
  let sets, ways =
    match kind with
    | L.L1d _ | L.L1i _ -> (cfg.Mcmp.Config.l1_sets, cfg.Mcmp.Config.l1_ways)
    | L.L2 _ -> (cfg.Mcmp.Config.l2_sets, cfg.Mcmp.Config.l2_ways)
    | L.Mem _ -> (1, 1)
  in
  let is_l1 = match kind with L.L1d _ | L.L1i _ -> true | _ -> false in
  {
    id;
    kind;
    lines = Cache.Sarray.create ~sets ~ways;
    mem_lines = Hashtbl.create (match kind with L.Mem _ -> 4096 | _ -> 1);
    meta = Hashtbl.create (match kind with L.L2 _ -> 1024 | _ -> 1);
    mshr = None;
    ptable = Array.make (L.nprocs t_layout) None;
    peer_seq = Array.make (L.nprocs t_layout) (-1);
    parb_active = Hashtbl.create 16;
    parb_epoch = Hashtbl.create 16;
    arb_queue = Hashtbl.create (match kind with L.Mem _ -> 64 | _ -> 1);
    arb_busy_until = 0;
    arb_epoch_ctr = Hashtbl.create (match kind with L.Mem _ -> 64 | _ -> 1);
    arb_active_rid = Hashtbl.create (match kind with L.Mem _ -> 64 | _ -> 1);
    arb_done_rid = Array.make (L.nprocs t_layout) (-1);
    predictor =
      (if is_l1 && policy.Policy.predictor then Some (Predictor.create (Sim.Rng.split rng))
       else None);
    dsp = Hashtbl.create (if is_l1 && policy.Policy.multicast then 256 else 1);
    down = false;
    epochs = Hashtbl.create 16;
    pending_restart = None;
  }

let create ?recovery policy engine cfg traffic rng counters =
  let layout = Mcmp.Config.layout cfg in
  let fabric = F.create engine layout cfg.Mcmp.Config.fabric traffic (Sim.Rng.split rng) in
  let nodes =
    Array.init (L.node_count layout) (fun id -> make_node layout cfg policy rng id)
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
      inflight = Hashtbl.create 1024;
      inflight_owner = Hashtbl.create 64;
      pseq = Array.make (L.nprocs layout) 0;
      ema_mem = Sim.Stat.Ema.create ~alpha:0.2 ~init:200.;
      ema_all = Sim.Stat.Ema.create ~alpha:0.2 ~init:200.;
      persistent_sets = Array.init nnodes (fun id -> DS.remove id all_nodes_set);
      l1_sets;
      l1_minus_self =
        Array.init nnodes (fun id -> DS.remove id l1_sets.(L.cmp_of layout id));
      caches_minus_self = Array.init nnodes (fun id -> DS.remove id all_caches_set);
      (* The shared filler below index [tok_top] is never popped:
         [tok_top] starts at 0 and release writes a slot before
         exposing it. *)
      tok_pool = Array.make 256 (Msg.Epoch_bump { addr = 0; epoch = 0 });
      tok_top = 0;
      recovery;
      rec_timeout_src = None;
      cur_epoch = Hashtbl.create 64;
      recreating = Hashtbl.create 8;
      tick_on = false;
      recreations = 0;
      epoch_bumps = 0;
      stale_discards = 0;
      crashes = 0;
    }
  in
  (* A transient request copy to an L1 with no line for the block parks
     until tokens for the block are sent there (DESIGN.md, "Parked
     request copies"). That is exact only while every token message
     takes longer than the L1 lookup, and without the recovery stack's
     crashes and epoch changes. *)
  if
    recovery = None
    && F.min_cache_latency cfg.fabric ~bytes:(min cfg.ctrl_bytes cfg.data_bytes)
       > cfg.l1_latency
  then
    F.set_parkable fabric (fun dst addr ->
        let node = nodes.(dst) in
        is_l1_node node && not (Cache.Sarray.mem node.lines addr));
  F.set_handler fabric (fun ~dst msg ->
      handle t ~dst msg;
      (* [handle] fully destructures the message and never retains it,
         so a [Tokens] record can rejoin the pool here — but only while
         the fabric guarantees this was its one and only delivery. *)
      match msg with
      | Msg.Tokens _ when F.exactly_once fabric ->
        if t.tok_top < Array.length t.tok_pool then begin
          t.tok_pool.(t.tok_top) <- msg;
          t.tok_top <- t.tok_top + 1
        end
      | _ -> ());
  (match Obs.Registry.of_engine engine with
  | Some reg ->
    (* Instantaneous gauges for the profiler's time-series tracks. *)
    Obs.Registry.register_int reg "token.outstanding_misses" (fun () ->
        Array.fold_left (fun acc n -> if n.mshr = None then acc else acc + 1) 0 t.nodes);
    Obs.Registry.register_int reg "token.tokens_inflight" (fun () ->
        Hashtbl.fold (fun _ n acc -> acc + n) t.inflight 0)
  | None -> ());
  (match (recovery, Obs.Registry.of_engine engine) with
  | Some _, Some reg ->
    Obs.Registry.register_int reg "token.recreations" (fun () -> t.recreations);
    Obs.Registry.register_int reg "token.epoch_bumps" (fun () -> t.epoch_bumps);
    Obs.Registry.register_int reg "token.stale_discards" (fun () -> t.stale_discards);
    Obs.Registry.register_int reg "token.crashes" (fun () -> t.crashes)
  | _ -> ());
  t

let debug_of t =
  let node_line node addr =
    if is_mem_node node then Hashtbl.find_opt node.mem_lines addr else cache_line node addr
  in
  {
    token_count =
      (fun addr ->
        Array.fold_left
          (fun acc node ->
            acc
            +
            match node.kind with
            | L.Mem _ -> (
              match Hashtbl.find_opt node.mem_lines addr with
              | Some l -> l.tokens
              | None -> if node.id = home_mem t addr then t.cfg.tokens else 0)
            | _ -> ( match cache_line node addr with Some l -> l.tokens | None -> 0))
          0 t.nodes);
    inflight_count = (fun addr -> inflight_count t addr);
    total_tokens = t.cfg.tokens;
    node_tokens =
      (fun id addr ->
        match node_line t.nodes.(id) addr with Some l -> l.tokens | None -> 0);
    node_owner =
      (fun id addr ->
        match node_line t.nodes.(id) addr with Some l -> l.owner | None -> false);
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
  Hashtbl.iter
    (fun addr n ->
      if n > 0 then Format.fprintf fmt "in flight: %a x%d tokens@." Cache.Addr.pp addr n)
    t.inflight;
  Hashtbl.iter
    (fun addr e ->
      if e > 0 then Format.fprintf fmt "epoch: %a e%d@." Cache.Addr.pp addr e)
    t.cur_epoch;
  Hashtbl.iter
    (fun addr rc ->
      Format.fprintf fmt "recreating: %a -> e%d (%d acks)@." Cache.Addr.pp addr rc.rc_epoch
        (Hashtbl.length rc.rc_acks))
    t.recreating

type recovery_stats = {
  rs_recreations : int;
  rs_epoch_bumps : int;
  rs_stale_discards : int;
  rs_crashes : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime invariant checking (the fault-injection monitor's probe)    *)

(* Every block any node or message has ever mentioned. *)
let touched_addrs t =
  let set = Hashtbl.create 256 in
  let mark a = Hashtbl.replace set a () in
  Array.iter
    (fun node ->
      Cache.Sarray.iter (fun a _ -> mark a) node.lines;
      Hashtbl.iter (fun a _ -> mark a) node.mem_lines)
    t.nodes;
  Hashtbl.iter (fun a _ -> mark a) t.inflight;
  Hashtbl.iter (fun a _ -> mark a) t.inflight_owner;
  Hashtbl.fold (fun a () acc -> a :: acc) set []

(* Snapshot check of the safety substrate. Sound at event boundaries:
   every handler runs atomically, so the monitor (its own event) never
   observes a half-applied transition. *)
let check_invariants t =
  let time = now t in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  (* A home memory controller that never materialized a line for [addr]
     implicitly holds all T tokens plus the owner token (see mem_line). *)
  let find_line node addr =
    if is_mem_node node then
      match Hashtbl.find_opt node.mem_lines addr with
      | Some l -> Some l
      | None ->
        if is_home_mem t node addr then
          Some { tokens = t.cfg.tokens; owner = true; dirty = false; valid = true; hold_until = 0 }
        else None
    else cache_line node addr
  in
  let held_tokens addr =
    Array.fold_left
      (fun acc node -> acc + match find_line node addr with Some l -> l.tokens | None -> 0)
      0 t.nodes
  in
  let held_owners addr =
    Array.fold_left
      (fun acc node ->
        acc + match find_line node addr with Some l when l.owner -> 1 | _ -> 0)
      0 t.nodes
  in
  List.iter
    (fun addr ->
      let held = held_tokens addr and inflight = inflight_count t addr in
      let owners = held_owners addr + inflight_owner_count t addr in
      if recovery_on t then begin
        (* Crashes and recreation make *deficits* legal — lost tokens
           are healed by a future mint — but excess stays fatal: extra
           current-epoch tokens could hand out overlapping write
           permission, which no recovery may ever risk. *)
        if held + inflight > t.cfg.tokens then
          add
            (Mcmp.Violation.make ~kind:"token-conservation-excess" ~addr ~time
               (Printf.sprintf "held %d + in-flight %d > T = %d" held inflight t.cfg.tokens));
        if owners > 1 then
          add
            (Mcmp.Violation.make ~kind:"owner-count" ~addr ~time
               (Printf.sprintf "%d owner tokens exist (at most 1 allowed)" owners))
      end
      else begin
        if held + inflight <> t.cfg.tokens then
          add
            (Mcmp.Violation.make ~kind:"token-conservation" ~addr ~time
               (Printf.sprintf "held %d + in-flight %d <> T = %d" held inflight t.cfg.tokens));
        if owners <> 1 then
          add
            (Mcmp.Violation.make ~kind:"owner-count" ~addr ~time
               (Printf.sprintf "%d owner tokens exist (exactly 1 required)" owners))
      end)
    (touched_addrs t);
  Array.iter
    (fun node ->
      let check_line addr (line : line) =
        if line.valid && line.tokens = 0 then
          add
            (Mcmp.Violation.make ~kind:"data-without-token" ~addr ~node:node.id ~time
               "line holds valid data but zero tokens");
        if line.owner && not line.valid then
          add
            (Mcmp.Violation.make ~kind:"owner-without-data" ~addr ~node:node.id ~time
               "line holds the owner token but no valid data")
      in
      Cache.Sarray.iter check_line node.lines;
      Hashtbl.iter check_line node.mem_lines)
    t.nodes;
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
        if is_mem_node node then
          Hashtbl.iter
            (fun addr (_, l1, _) ->
              if not (L.is_l1 t.layout l1) then
                add
                  (Mcmp.Violation.make ~kind:"arbiter-bad-requester" ~addr ~node:node.id
                     ~time (Printf.sprintf "active entry names non-L1 node %d" l1)))
            node.parb_active)
      t.nodes);
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
          o_retries = m.m_retries;
          o_persistent = m.m_persistent;
        }
        :: acc
      | None -> acc)
    [] t.nodes

let probe_of t =
  {
    Mcmp.Probe.check = (fun () -> check_invariants t);
    outstanding = (fun () -> outstanding_of t);
  }

type instrumented = {
  i_handle : Mcmp.Protocol.handle;
  i_debug : debug;
  i_probe : Mcmp.Probe.t;
  i_dump : Format.formatter -> unit -> unit;
  i_fabric : Msg.t F.t;
  i_crash : int -> unit;
  i_restart : int -> unit;
  i_recovery : unit -> recovery_stats;
  i_set_recreation_source : (unit -> Sim.Time.t) option -> unit;
}

let create_instrumented ?recovery policy engine cfg traffic rng counters =
  let t = create ?recovery policy engine cfg traffic rng counters in
  {
    i_handle =
      {
        Mcmp.Protocol.name = t.policy.Policy.name;
        access = (fun ~proc ~kind addr ~commit -> access t ~proc ~kind addr ~commit);
      };
    i_debug = debug_of t;
    i_probe = probe_of t;
    i_dump = dump t;
    i_fabric = t.fabric;
    i_crash = (fun id -> crash_node t id);
    i_restart = (fun id -> restart_node t id);
    i_recovery =
      (fun () ->
        {
          rs_recreations = t.recreations;
          rs_epoch_bumps = t.epoch_bumps;
          rs_stale_discards = t.stale_discards;
          rs_crashes = t.crashes;
        });
    i_set_recreation_source = (fun f -> t.rec_timeout_src <- f);
  }

let builder policy : Mcmp.Protocol.builder =
 fun engine cfg traffic rng counters ->
  (create_instrumented policy engine cfg traffic rng counters).i_handle
