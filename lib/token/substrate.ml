module E = Sim.Engine
module L = Interconnect.Layout
module F = Interconnect.Fabric
module MC = Interconnect.Msg_class
module DS = Interconnect.Destset

(* Per-block tables keyed by block number, which hashes as itself. *)
module Blocks = Hashtbl.Make (struct
  type t = Cache.Addr.t

  let equal = Int.equal
  let hash (a : t) = a
end)

(* Per-block token state of one cache line (or of memory's home entry).
   Invariant: resident cache lines have tokens >= 1; owner => valid. *)
type line = {
  mutable tokens : int;
  mutable owner : bool;
  mutable dirty : bool;
  mutable valid : bool;  (* holds usable data *)
  mutable hold_until : Sim.Time.t;  (* response-delay window *)
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
  layout : L.t;
  fabric : Msg.t F.t;
  counters : Mcmp.Counters.t;
  recovery : bool;
  memory : bool array;  (* per node: a memory controller *)
  l1 : bool array;  (* per node: an L1 *)
  lines : line Cache.Sarray.t array;  (* per cache; unused singleton for mem *)
  (* Per block, the destset words of the L1s whose tag array holds a
     line for it. Written only beside an L1 tag array's insert and
     remove ([insert_line], [remove_line]). A block keeps its entry,
     all zero, when its last L1 line goes: removing it put the
     benchmark's next set-up in glibc's slow trim mode (EXPERIMENTS.md,
     "Parking from an L1 holder set"). *)
  holders : int array Blocks.t;
  no_holders : int array;  (* all zero, [nwords] long *)
  nwords : int;
  mem_lines : (Cache.Addr.t, line) Hashtbl.t array;  (* per memory controller *)
  epochs : (Cache.Addr.t, int) Hashtbl.t array;
      (* per cache: known recreation epoch per block. Survives a crash:
         incarnation numbers live in NVRAM precisely so a restarted node
         can never accept stale-epoch tokens. *)
  inflight : (Cache.Addr.t, int) Hashtbl.t;
  inflight_owner : (Cache.Addr.t, int) Hashtbl.t;  (* owner tokens inside messages *)
  cur_epoch : (Cache.Addr.t, int) Hashtbl.t;  (* authoritative epoch, bumped at mint *)
  recreating : (Cache.Addr.t, rec_state) Hashtbl.t;  (* home-memory collect phase *)
  mutable recreations : int; mutable epoch_bumps : int; mutable stale_discards : int;
}

let create ~recovery (cfg : Mcmp.Config.t) fabric counters =
  let layout = F.layout fabric in
  let kinds = Array.init (L.node_count layout) (L.kind layout) in
  let per_node f = Array.map f kinds in
  let nwords = ((L.node_count layout - 1) / DS.word_bits) + 1 in
  {
    engine = F.engine fabric; cfg; layout; fabric; counters; recovery;
    memory = per_node (function L.Mem _ -> true | L.L1d _ | L.L1i _ | L.L2 _ -> false);
    l1 = per_node (function L.L1d _ | L.L1i _ -> true | L.L2 _ | L.Mem _ -> false);
    lines =
      per_node (function
        | L.L1d _ | L.L1i _ -> Cache.Sarray.create ~sets:cfg.l1_sets ~ways:cfg.l1_ways
        | L.L2 _ -> Cache.Sarray.create ~sets:cfg.l2_sets ~ways:cfg.l2_ways
        | L.Mem _ -> Cache.Sarray.create ~sets:1 ~ways:1);
    holders = Blocks.create 64;
    no_holders = Array.make nwords 0;
    nwords;
    mem_lines = per_node (fun kind -> Hashtbl.create (match kind with L.Mem _ -> 4096 | _ -> 1));
    epochs = per_node (fun _ -> Hashtbl.create 16);
    inflight = Hashtbl.create 1024;
    inflight_owner = Hashtbl.create 64;
    cur_epoch = Hashtbl.create 64;
    recreating = Hashtbl.create 8;
    recreations = 0; epoch_bumps = 0; stale_discards = 0;
  }

let home_mem s addr = L.mem s.layout ~cmp:(Cache.Addr.home_cmp ~ncmp:s.cfg.Mcmp.Config.ncmp addr)

let home_l2 s ~cmp addr =
  L.l2 s.layout ~cmp ~bank:(Cache.Addr.l2_bank ~nbanks:s.cfg.Mcmp.Config.l2_banks addr)

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)

let fresh_line () = { tokens = 0; owner = false; dirty = false; valid = false; hold_until = 0 }

(* Memory starts with all T tokens of every block, and the owner token,
   at the block's home controller; other controllers never hold tokens.
   A controller's line is this until first stored. *)
let implicit_line s id addr =
  if id = home_mem s addr then
    { tokens = s.cfg.tokens; owner = true; dirty = false; valid = true; hold_until = 0 }
  else fresh_line ()

let mem_line s id addr =
  try Hashtbl.find s.mem_lines.(id) addr
  with Not_found ->
    let l = implicit_line s id addr in
    Hashtbl.add s.mem_lines.(id) addr l;
    l

let[@inline] find s id addr =
  if not s.memory.(id) then Cache.Sarray.find s.lines.(id) addr
  else if id = home_mem s addr then Some (mem_line s id addr)
  else None

(* The line [id] holds for [addr], for reads that must not store one. *)
let peek s id addr =
  if not s.memory.(id) then Cache.Sarray.find s.lines.(id) addr
  else Some (try Hashtbl.find s.mem_lines.(id) addr with Not_found -> implicit_line s id addr)

let tokens l = l.tokens
let owner l = l.owner
let valid l = l.valid
let dirty l = l.dirty
let hold_until l = l.hold_until
let set_hold_until l time = l.hold_until <- time
let mark_dirty l = l.dirty <- true

let[@inline] permits s l rw =
  l.valid && match rw with Msg.R -> l.tokens >= 1 | Msg.W -> l.tokens = s.cfg.tokens

let touch s id addr = Cache.Sarray.touch s.lines.(id) addr

(* ------------------------------------------------------------------ *)
(* The L1 holder set                                                   *)

(* Set node [id]'s bit in [table]'s words for [addr], adding them. *)
let add_bit s table id addr =
  let w =
    match Blocks.find table addr with
    | w -> w
    | exception Not_found ->
      let w = Array.make s.nwords 0 in
      Blocks.add table addr w;
      w
  in
  let i = id / DS.word_bits in
  w.(i) <- w.(i) lor (1 lsl (id mod DS.word_bits))

let drop_holder s id addr =
  match Blocks.find s.holders addr with
  | exception Not_found -> ()
  | w ->
    let i = id / DS.word_bits in
    w.(i) <- w.(i) land lnot (1 lsl (id mod DS.word_bits))

let l1_holders s addr = try Blocks.find s.holders addr with Not_found -> s.no_holders

(* The only writes to a cache's tag array. *)
let insert_line s id addr line =
  Cache.Sarray.insert s.lines.(id) addr line;
  if s.l1.(id) then add_bit s s.holders id addr

let remove_line s id addr =
  Cache.Sarray.remove s.lines.(id) addr;
  if s.l1.(id) then drop_holder s id addr

(* Token-FSM state label for trace events, e.g. "T3OV" (3 tokens, owner,
   valid) or "I" (no tokens, no data). Only evaluated while tracing. *)
let state_name line =
  if line.tokens = 0 && not line.valid then "I"
  else
    Printf.sprintf "T%d%s%s%s" line.tokens
      (if line.owner then "O" else "")
      (if line.valid then "V" else "")
      (if line.dirty then "D" else "")

(* Drop a cache line whose tokens reached zero. *)
let strip s id addr line =
  if line.tokens = 0 then begin
    line.valid <- false;
    line.dirty <- false;
    line.owner <- false;
    if not s.memory.(id) then remove_line s id addr
  end

(* ------------------------------------------------------------------ *)
(* Epochs and the in-flight account                                    *)

(* Authoritative recreation epoch of a block (bumped only at mint). *)
let cur_epoch s addr = try Hashtbl.find s.cur_epoch addr with Not_found -> 0

(* A cache learns the epoch from bumps and from current-epoch tokens. *)
let node_epoch s id addr =
  if s.memory.(id) then cur_epoch s addr
  else try Hashtbl.find s.epochs.(id) addr with Not_found -> 0

let inflight s addr = try Hashtbl.find s.inflight addr with Not_found -> 0
let inflight_owner s addr = try Hashtbl.find s.inflight_owner addr with Not_found -> 0
let inflight_total s = Hashtbl.fold (fun _ n acc -> acc + n) s.inflight 0

let fail s node addr kind detail =
  Mcmp.Violation.raise_it ~kind ~addr ?node ~time:(E.now s.engine) detail

let add s table addr d ~kind detail =
  let v = (try Hashtbl.find table addr with Not_found -> 0) + d in
  if v < 0 then fail s None addr kind (detail (-v));
  if v = 0 then Hashtbl.remove table addr else Hashtbl.replace table addr v

(* [count] tokens, and the owner token if [owner], enter ([count] > 0)
   or leave the in-flight account. *)
let account s addr count ~owner =
  add s s.inflight addr count ~kind:"negative-inflight" (fun n ->
      Printf.sprintf "received %d more tokens than were in flight (token-creating duplicate?)" n);
  if owner then
    add s s.inflight_owner addr (if count > 0 then 1 else -1) ~kind:"negative-inflight-owner"
      (fun _ -> "received an owner token that was not in flight")

let discard s addr ~count ~owner ~epoch =
  if epoch = cur_epoch s addr then account s addr (-count) ~owner

(* ------------------------------------------------------------------ *)
(* Token movement                                                      *)

let give s ~src ~dst addr line ~count ~owner ~data ~dirty ~writeback =
  if count > line.tokens then
    fail s (Some src) addr "token-overdraw"
      (Printf.sprintf "taking %d tokens from a line holding %d" count line.tokens);
  if owner && not line.owner then
    fail s (Some src) addr "phantom-owner" "taking the owner token from a non-owner line";
  line.tokens <- line.tokens - count;
  if owner then line.owner <- false;
  strip s src addr line;
  if count < 1 then
    fail s (Some src) addr "empty-token-message"
      (Printf.sprintf "attempted to send %d tokens to node %d" count dst);
  if owner && not data then
    fail s (Some src) addr "owner-without-data"
      (Printf.sprintf "owner token sent to node %d without the data block" dst);
  (* Tokens are stamped with the sender's epoch view; a sender always
     holds current-epoch tokens (the collect phase destroys older ones
     before a mint), so the stamp equals the authoritative epoch and
     the in-flight accounting below counts current-epoch tokens only. *)
  let epoch = node_epoch s src addr in
  if epoch = cur_epoch s addr then account s addr count ~owner;
  let cls =
    if writeback then if data then MC.Writeback_data else MC.Writeback_control
    else if data then MC.Response_data
    else MC.Inv_fwd_ack_tokens
  in
  let bytes = if data then s.cfg.data_bytes else s.cfg.ctrl_bytes in
  (* Request copies for [addr] parked at [dst] may find a line now. *)
  F.wake s.fabric ~dst ~key:addr;
  F.send_one s.fabric ~src ~dst ~cls ~bytes
    (Msg.Tokens { addr; src; count; owner; data; dirty; writeback; epoch })

let forward s id addr line ~l1 ~rw =
  let to_l1 ~count ~owner ~data =
    give s ~src:id ~dst:l1 addr line ~count ~owner ~data ~dirty:(line.dirty && owner)
      ~writeback:false
  in
  match rw with
  | Msg.R when not s.memory.(id) ->
    if line.tokens > 1 then to_l1 ~count:(line.tokens - 1) ~owner:false ~data:line.owner
    else if line.owner then to_l1 ~count:1 ~owner:true ~data:true
  | Msg.R | Msg.W -> to_l1 ~count:line.tokens ~owner:line.owner ~data:line.owner

(* Find-or-allocate a cache line. The LRU victim is written back: an
   L1's to its chip's home L2 bank, an L2's to home memory. *)
let alloc_line s id addr =
  match Cache.Sarray.find s.lines.(id) addr with
  | Some l -> l
  | None ->
    (match Cache.Sarray.victim_for s.lines.(id) addr with
    | Some (vaddr, v) ->
      s.counters.Mcmp.Counters.writebacks <- s.counters.Mcmp.Counters.writebacks + 1;
      let cmp = L.cmp_of s.layout id in
      let dst = if L.is_l1 s.layout id then home_l2 s ~cmp vaddr else home_mem s vaddr in
      give s ~src:id ~dst vaddr v ~count:v.tokens ~owner:v.owner ~data:v.owner
        ~dirty:(v.dirty && v.owner) ~writeback:true
    | None -> ());
    let l = fresh_line () in
    insert_line s id addr l;
    l

let receive s id addr ~count ~owner ~data ~dirty ~epoch =
  (* Recovery: tokens stamped with a superseded epoch are discarded on
     receipt — they were declared dead when the home controller minted a
     replacement set, and merging them would overshoot T. Tokens of the
     current epoch reaching a cache that already applied a pending bump
     (node view ahead of the authoritative epoch, mid-collect) are dead
     too, but still leave the current in-flight account. *)
  if s.recovery && (epoch < node_epoch s id addr || epoch < cur_epoch s addr) then begin
    s.stale_discards <- s.stale_discards + 1;
    if E.tracing s.engine then
      E.emit s.engine (Obs.Event.Stale_discard { node = id; addr; epoch });
    discard s addr ~count ~owner ~epoch;
    false
  end
  else begin
    account s addr (-count) ~owner;
    let mem = s.memory.(id) in
    if s.recovery && (not mem) && epoch > node_epoch s id addr then
      Hashtbl.replace s.epochs.(id) addr epoch;
    let line = if mem then mem_line s id addr else alloc_line s id addr in
    let from_state = if E.tracing s.engine then state_name line else "" in
    line.tokens <- line.tokens + count;
    if owner then line.owner <- true;
    if data then line.valid <- true;
    if dirty then line.dirty <- true;
    if E.tracing s.engine then
      E.emit s.engine
        (Obs.Event.Fsm
           { node = id; addr; fsm = "token"; from_state; to_state = state_name line });
    if not mem then Cache.Sarray.touch s.lines.(id) addr;
    true
  end

let crash s id =
  let addrs = ref [] in
  Cache.Sarray.iter (fun a _ -> addrs := a :: !addrs) s.lines.(id);
  List.iter (fun a -> remove_line s id a) !addrs

(* ------------------------------------------------------------------ *)
(* Token recreation. Lost tokens starve a persistent request forever
   under the base substrate, whose safety story assumes tokens are
   conserved. Recreation restores liveness without giving up safety by
   running a two-phase epoch bump at the block's home memory
   controller: (1) collect — broadcast the next epoch number to every
   cache and retry until all ack, each cache destroying whatever it
   holds under older epochs; (2) mint — with every cache provably empty
   and all in-flight tokens doomed to stale-discard on receipt,
   materialize a fresh full set (T tokens + owner) at the controller.
   The block's value is architecturally safe throughout: committed
   stores live in the workload's value oracle, so remint-from-memory
   can never resurrect stale data in this model (a hardware
   implementation would write the owner's data back during collect). *)

let recreate s id addr ~retry =
  if id = home_mem s addr && not (Hashtbl.mem s.recreating addr) then begin
    let rc = { rc_epoch = cur_epoch s addr + 1; rc_acks = Hashtbl.create 16; rc_timer = None } in
    Hashtbl.add s.recreating addr rc;
    let rec broadcast () =
      rc.rc_timer <- None;
      let pending =
        List.filter (fun c -> not (Hashtbl.mem rc.rc_acks c)) (L.all_caches s.layout)
      in
      if pending <> [] then begin
        F.send_set s.fabric ~src:id ~dsts:(DS.of_list pending) ~cls:MC.Persistent
          ~bytes:s.cfg.ctrl_bytes
          (Msg.Epoch_bump { addr; epoch = rc.rc_epoch });
        (* Rebroadcast until everyone acked: this is what rides through
           caches that are crashed mid-recreation. *)
        rc.rc_timer <- Some (E.timer_in s.engine retry broadcast)
      end
    in
    broadcast ()
  end

let bump s id addr ~epoch =
  if epoch > node_epoch s id addr then begin
    Hashtbl.replace s.epochs.(id) addr epoch;
    s.epoch_bumps <- s.epoch_bumps + 1;
    if E.tracing s.engine then E.emit s.engine (Obs.Event.Epoch_bump { node = id; addr; epoch });
    match Cache.Sarray.find s.lines.(id) addr with
    | Some line ->
      line.tokens <- 0;
      strip s id addr line
    | None -> ()
  end

let ack s id addr ~src ~epoch =
  match Hashtbl.find_opt s.recreating addr with
  | Some rc when rc.rc_epoch = epoch ->
    Hashtbl.replace rc.rc_acks src ();
    Hashtbl.length rc.rc_acks = L.ncaches s.layout
    && begin
      (* Every cache renounced the old epoch: mint a fresh full set.
         Surviving in-flight tokens all carry older epochs and will be
         discarded on receipt, so the accounting restarts clean. *)
      (match rc.rc_timer with Some ti -> E.cancel ti | None -> ());
      Hashtbl.remove s.recreating addr;
      Hashtbl.remove s.inflight addr;
      Hashtbl.remove s.inflight_owner addr;
      Hashtbl.replace s.cur_epoch addr rc.rc_epoch;
      let line = mem_line s id addr in
      line.tokens <- s.cfg.tokens;
      line.owner <- true;
      line.valid <- true;
      line.dirty <- false;
      line.hold_until <- 0;
      s.recreations <- s.recreations + 1;
      if E.tracing s.engine then
        E.emit s.engine
          (Obs.Event.Token_recreated { addr; epoch = rc.rc_epoch; tokens = s.cfg.tokens });
      true
    end
  | Some _ | None -> false

let recreating s = Hashtbl.length s.recreating > 0

(* ------------------------------------------------------------------ *)
(* Probe, debug and dump                                               *)

let node_tokens s id addr = match peek s id addr with Some l -> l.tokens | None -> 0
let node_owner s id addr = match peek s id addr with Some l -> l.owner | None -> false

let count_nodes s f =
  let n = ref 0 in
  for id = 0 to Array.length s.lines - 1 do
    n := !n + f id
  done;
  !n

let held s addr = count_nodes s (fun id -> node_tokens s id addr)

(* Every block any node or message has ever mentioned. *)
let touched_addrs s =
  let set = Hashtbl.create 256 in
  let mark a = Hashtbl.replace set a () in
  Array.iteri
    (fun id lines ->
      Cache.Sarray.iter (fun a _ -> mark a) lines;
      Hashtbl.iter (fun a _ -> mark a) s.mem_lines.(id))
    s.lines;
  Hashtbl.iter (fun a _ -> mark a) s.inflight;
  Hashtbl.iter (fun a _ -> mark a) s.inflight_owner;
  Hashtbl.fold (fun a () acc -> a :: acc) set []

(* Snapshot check of the safety substrate. Sound at event boundaries:
   every handler runs atomically, so the monitor (its own event) never
   observes a half-applied transition. *)
let check s =
  let time = E.now s.engine in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let total = s.cfg.tokens in
  List.iter
    (fun addr ->
      let held = held s addr and inflight = inflight s addr in
      let owners =
        count_nodes s (fun id -> if node_owner s id addr then 1 else 0) + inflight_owner s addr
      in
      (* Crashes and recreation make *deficits* legal — lost tokens are
         healed by a future mint — but excess stays fatal: extra
         current-epoch tokens could hand out overlapping write
         permission, which no recovery may ever risk. *)
      let kind, rel, rule =
        if s.recovery then ("token-conservation-excess", ">", "at most 1 allowed")
        else ("token-conservation", "<>", "exactly 1 required")
      in
      if held + inflight > total || ((not s.recovery) && held + inflight < total) then
        add
          (Mcmp.Violation.make ~kind ~addr ~time
             (Printf.sprintf "held %d + in-flight %d %s T = %d" held inflight rel total));
      if owners > 1 || ((not s.recovery) && owners < 1) then
        add
          (Mcmp.Violation.make ~kind:"owner-count" ~addr ~time
             (Printf.sprintf "%d owner tokens exist (%s)" owners rule)))
    (touched_addrs s);
  Array.iteri
    (fun id lines ->
      let check_line addr line =
        if line.valid && line.tokens = 0 then
          add
            (Mcmp.Violation.make ~kind:"data-without-token" ~addr ~node:id ~time
               "line holds valid data but zero tokens");
        if line.owner && not line.valid then
          add
            (Mcmp.Violation.make ~kind:"owner-without-data" ~addr ~node:id ~time
               "line holds the owner token but no valid data")
      in
      Cache.Sarray.iter check_line lines;
      Hashtbl.iter check_line s.mem_lines.(id))
    s.lines;
  (* The holder set against the L1 tag arrays it mirrors. *)
  let tags = Blocks.create 64 in
  Array.iteri
    (fun id lines ->
      if s.l1.(id) then Cache.Sarray.iter (fun addr _ -> add_bit s tags id addr) lines)
    s.lines;
  let ids w =
    List.init (s.nwords * DS.word_bits) Fun.id
    |> List.filter (fun id -> w.(id / DS.word_bits) land (1 lsl (id mod DS.word_bits)) <> 0)
    |> List.map string_of_int |> String.concat ","
  in
  let compare_holders addr =
    let held = l1_holders s addr
    and tagged = try Blocks.find tags addr with Not_found -> s.no_holders in
    if held <> tagged then
      add
        (Mcmp.Violation.make ~kind:"l1-holders" ~addr ~time
           (Printf.sprintf "holder set {%s}, L1 tag arrays {%s}" (ids held) (ids tagged)))
  in
  Blocks.iter (fun addr _ -> compare_holders addr) tags;
  Blocks.iter (fun addr _ -> if not (Blocks.mem tags addr) then compare_holders addr) s.holders;
  List.rev !vs

let recreations s = s.recreations
let epoch_bumps s = s.epoch_bumps
let stale_discards s = s.stale_discards

let dump s fmt =
  Hashtbl.iter
    (fun addr n ->
      if n > 0 then Format.fprintf fmt "in flight: %a x%d tokens@." Cache.Addr.pp addr n)
    s.inflight;
  Hashtbl.iter
    (fun addr e ->
      if e > 0 then Format.fprintf fmt "epoch: %a e%d@." Cache.Addr.pp addr e)
    s.cur_epoch;
  Hashtbl.iter
    (fun addr rc ->
      Format.fprintf fmt "recreating: %a -> e%d (%d acks)@." Cache.Addr.pp addr rc.rc_epoch
        (Hashtbl.length rc.rc_acks))
    s.recreating
