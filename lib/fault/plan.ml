module MC = Interconnect.Msg_class

type drop_record = {
  dr_time : Sim.Time.t;
  dr_src : int;
  dr_dst : int;
  dr_cls : MC.t;
  dr_label : string;
  dr_recoverable : bool;
}

type action = Drop_copy | Delay_copy of Sim.Time.t | Duplicate_copy of Sim.Time.t

type event = {
  ev_index : int;
  ev_time : Sim.Time.t;
  ev_src : int;
  ev_dst : int;
  ev_cls : MC.t;
  ev_label : string;
  ev_action : action;
  ev_destructive : bool;
}

type stats = {
  mutable delays : int;
  mutable reorders : int;
  mutable dups : int;
  mutable stall_holds : int;
  mutable drops_recoverable : int;
  mutable drops_unrecoverable : int;
  mutable token_dups : int;
}

type t = {
  spec : Spec.t;
  seed : int;
  rng : Sim.Rng.t;
  nodes : int;
  recovery : bool;  (* token drops are recoverable (recreation heals them) *)
  script : (int, action) Hashtbl.t option;  (* offer index -> scripted action *)
  stalled : (int, Sim.Time.t) Hashtbl.t;  (* node -> stall end *)
  mutable next_roll : Sim.Time.t;
  mutable offers : int;  (* decision points consulted so far *)
  stats : stats;
  mutable drops : drop_record list;  (* newest first *)
  mutable events : event list;  (* every non-Pass decision, newest first *)
}

let create ?(recovery = false) ?script ~seed ~nodes spec =
  let script =
    match script with
    | None -> None
    | Some evs ->
      let tbl = Hashtbl.create (List.length evs * 2) in
      List.iter
        (fun e ->
          if Hashtbl.mem tbl e.ev_index then
            invalid_arg
              (Printf.sprintf "Plan.create: duplicate scripted offer index %d" e.ev_index);
          Hashtbl.replace tbl e.ev_index e.ev_action)
        evs;
      Some tbl
  in
  {
    spec;
    seed;
    rng = Sim.Rng.create (seed * 2_654_435_761);
    nodes;
    recovery;
    script;
    stalled = Hashtbl.create 8;
    next_roll = Sim.Time.zero;
    offers = 0;
    stats =
      {
        delays = 0;
        reorders = 0;
        dups = 0;
        stall_holds = 0;
        drops_recoverable = 0;
        drops_unrecoverable = 0;
        token_dups = 0;
      };
    drops = [];
    events = [];
  }

let spec t = t.spec
let seed t = t.seed
let stats t = t.stats
let scripted t = t.script <> None
let offers t = t.offers
let drop_records t = List.rev t.drops
let events t = List.rev t.events

let unrecoverable_drops t =
  List.filter (fun r -> not r.dr_recoverable) (drop_records t)

let last_destructive t = List.find_opt (fun e -> e.ev_destructive) t.events

let last_drop_on t ~src ~dst =
  List.find_opt
    (fun e -> e.ev_action = Drop_copy && e.ev_src = src && e.ev_dst = dst)
    t.events

let record t ~index ~now ~src ~dst ~cls ~label ~action ~destructive =
  t.events <-
    {
      ev_index = index;
      ev_time = now;
      ev_src = src;
      ev_dst = dst;
      ev_cls = cls;
      ev_label = label ();
      ev_action = action;
      ev_destructive = destructive;
    }
    :: t.events

let record_drop t ~now ~src ~dst ~cls ~label ~recoverable =
  if recoverable then t.stats.drops_recoverable <- t.stats.drops_recoverable + 1
  else t.stats.drops_unrecoverable <- t.stats.drops_unrecoverable + 1;
  t.drops <-
    {
      dr_time = now;
      dr_src = src;
      dr_dst = dst;
      dr_cls = cls;
      dr_label = label ();
      dr_recoverable = recoverable;
    }
    :: t.drops

(* Re-roll the stalled-node set once per stall period (lazily, on the
   first decision inside the new period). *)
let roll_stalls t ~now =
  if now >= t.next_roll && t.spec.Spec.stall_nodes > 0 then begin
    Hashtbl.reset t.stalled;
    for _ = 1 to t.spec.Spec.stall_nodes do
      if Sim.Rng.float t.rng 1.0 < t.spec.Spec.stall_prob then
        Hashtbl.replace t.stalled (Sim.Rng.int t.rng t.nodes) (now + t.spec.Spec.stall_len)
    done;
    t.next_roll <- now + t.spec.Spec.stall_period
  end

let stall_hold t ~now node =
  match Hashtbl.find_opt t.stalled node with
  | Some until when until > now -> Some (until - now)
  | Some _ | None -> None

let hit t p = p > 0. && Sim.Rng.float t.rng 1.0 < p

(* The stochastic decision point. Every non-Pass verdict is also
   appended to the plan's event log under its offer [index], which is
   what makes the materialized fault schedule replayable: the log plus
   the run recipe IS the counterexample. Recording draws nothing from
   the rng, so logging leaves the fault sequence untouched. *)
let random_decide t ~index ~now ~src ~dst ~cls ~tokens_carried ~label =
  let s = t.spec in
  roll_stalls t ~now;
  (* A stalled endpoint holds its traffic until the stall window ends. *)
  match
    match stall_hold t ~now src with Some h -> Some h | None -> stall_hold t ~now dst
  with
  | Some hold ->
    t.stats.stall_holds <- t.stats.stall_holds + 1;
    record t ~index ~now ~src ~dst ~cls ~label ~action:(Delay_copy hold) ~destructive:false;
    Interconnect.Fabric.Delay hold
  | None ->
    let carries_tokens = tokens_carried > 0 in
    let persistent = cls = MC.Persistent in
    if (not persistent) && carries_tokens && s.Spec.duplicate_tokens && hit t s.Spec.dup_prob
    then begin
      (* Deliberate corruption: the duplicate mints tokens. *)
      t.stats.token_dups <- t.stats.token_dups + 1;
      let d = Sim.Time.ns (Sim.Rng.int_in t.rng 10 200) in
      record t ~index ~now ~src ~dst ~cls ~label ~action:(Duplicate_copy d)
        ~destructive:true;
      Interconnect.Fabric.Duplicate d
    end
    else if (not persistent) && hit t s.Spec.drop_prob then
      if carries_tokens then
        if s.Spec.drop_tokens then begin
          (* Under the recovery layer a lost token is healed by
             recreation, so the drop is recorded as recoverable — the
             recording is the ONLY thing [recovery] changes; the RNG
             draw sequence is identical either way, so one (seed, spec)
             pair fires the exact same fault schedule with recovery on
             or off. *)
          record_drop t ~now ~src ~dst ~cls ~label ~recoverable:t.recovery;
          record t ~index ~now ~src ~dst ~cls ~label ~action:Drop_copy ~destructive:true;
          Interconnect.Fabric.Drop
        end
        else Interconnect.Fabric.Pass
      else if cls = MC.Request then begin
        record_drop t ~now ~src ~dst ~cls ~label ~recoverable:true;
        record t ~index ~now ~src ~dst ~cls ~label ~action:Drop_copy ~destructive:false;
        Interconnect.Fabric.Drop
      end
      else Interconnect.Fabric.Pass
    else if cls = MC.Request && hit t s.Spec.dup_prob then begin
      t.stats.dups <- t.stats.dups + 1;
      let d = Sim.Time.ns (Sim.Rng.int_in t.rng 10 200) in
      record t ~index ~now ~src ~dst ~cls ~label ~action:(Duplicate_copy d)
        ~destructive:false;
      Interconnect.Fabric.Duplicate d
    end
    else if hit t s.Spec.delay_prob then begin
      t.stats.delays <- t.stats.delays + 1;
      let d = Sim.Rng.int_in t.rng s.Spec.delay_min (max s.Spec.delay_min s.Spec.delay_max) in
      record t ~index ~now ~src ~dst ~cls ~label ~action:(Delay_copy d) ~destructive:false;
      Interconnect.Fabric.Delay d
    end
    else if hit t s.Spec.reorder_prob then begin
      t.stats.reorders <- t.stats.reorders + 1;
      let d = Sim.Rng.int t.rng (max 1 s.Spec.reorder_max) in
      record t ~index ~now ~src ~dst ~cls ~label ~action:(Delay_copy d) ~destructive:false;
      Interconnect.Fabric.Delay d
    end
    else Interconnect.Fabric.Pass

(* Scripted replay: apply the scheduled action at this offer index, if
   any, drawing nothing from the rng. An action is applied only if the
   stochastic plan could have offered it to this message — persistent
   requests are never harmed, drops/duplicates respect the spec's
   corruption flags and class gating — so a shrunk schedule whose run
   diverged cannot express a fault the torture harness never injects.
   Ineligible actions quietly become Pass; ddmin treats the candidate
   like any other. *)
let scripted_decide t sched ~index ~now ~src ~dst ~cls ~tokens_carried ~label =
  match Hashtbl.find_opt sched index with
  | None -> Interconnect.Fabric.Pass
  | Some a -> (
    let persistent = cls = MC.Persistent in
    let carries_tokens = tokens_carried > 0 in
    match a with
    | Delay_copy d ->
      t.stats.delays <- t.stats.delays + 1;
      record t ~index ~now ~src ~dst ~cls ~label ~action:(Delay_copy d) ~destructive:false;
      Interconnect.Fabric.Delay d
    | Drop_copy when persistent -> Interconnect.Fabric.Pass
    | Drop_copy when carries_tokens ->
      if t.spec.Spec.drop_tokens then begin
        record_drop t ~now ~src ~dst ~cls ~label ~recoverable:t.recovery;
        record t ~index ~now ~src ~dst ~cls ~label ~action:Drop_copy ~destructive:true;
        Interconnect.Fabric.Drop
      end
      else Interconnect.Fabric.Pass
    | Drop_copy ->
      if cls = MC.Request then begin
        record_drop t ~now ~src ~dst ~cls ~label ~recoverable:true;
        record t ~index ~now ~src ~dst ~cls ~label ~action:Drop_copy ~destructive:false;
        Interconnect.Fabric.Drop
      end
      else Interconnect.Fabric.Pass
    | Duplicate_copy _ when persistent -> Interconnect.Fabric.Pass
    | Duplicate_copy d when carries_tokens ->
      if t.spec.Spec.duplicate_tokens then begin
        t.stats.token_dups <- t.stats.token_dups + 1;
        record t ~index ~now ~src ~dst ~cls ~label ~action:(Duplicate_copy d)
          ~destructive:true;
        Interconnect.Fabric.Duplicate d
      end
      else Interconnect.Fabric.Pass
    | Duplicate_copy d ->
      if cls = MC.Request then begin
        t.stats.dups <- t.stats.dups + 1;
        record t ~index ~now ~src ~dst ~cls ~label ~action:(Duplicate_copy d)
          ~destructive:false;
        Interconnect.Fabric.Duplicate d
      end
      else Interconnect.Fabric.Pass)

let decide t ~now ~src ~dst ~cls ~tokens_carried ~label =
  let index = t.offers in
  t.offers <- t.offers + 1;
  match t.script with
  | Some sched -> scripted_decide t sched ~index ~now ~src ~dst ~cls ~tokens_carried ~label
  | None -> random_decide t ~index ~now ~src ~dst ~cls ~tokens_carried ~label

let token_injector t : Token.Msg.t Interconnect.Fabric.injector =
 fun ~now ~src ~dst ~cls ~arrive:_ msg ->
  decide t ~now ~src ~dst ~cls
    ~tokens_carried:(Token.Msg.tokens_carried msg)
    ~label:(fun () -> Token.Msg.label msg)

(* The directory protocol cannot survive loss or duplication of any
   message (no timeouts, ack-counted transactions), so its plans must
   be {!Spec.delay_only}; [tokens_carried = 0] here only means
   "not a token message", never "safe to drop". *)
let directory_injector t : Directory.Msg.t Interconnect.Fabric.injector =
 fun ~now ~src ~dst ~cls ~arrive:_ msg ->
  ignore msg;
  decide t ~now ~src ~dst ~cls ~tokens_carried:0 ~label:(fun () -> MC.to_string cls)

let pp_drop_record fmt r =
  Format.fprintf fmt "%a %s %d->%d [%s] %s" Sim.Time.pp r.dr_time
    (if r.dr_recoverable then "dropped" else "DROPPED-UNRECOVERABLE")
    r.dr_src r.dr_dst (MC.to_string r.dr_cls) r.dr_label

let pp_action fmt = function
  | Drop_copy -> Format.pp_print_string fmt "drop"
  | Delay_copy d -> Format.fprintf fmt "delay %a" Sim.Time.pp d
  | Duplicate_copy d -> Format.fprintf fmt "duplicate +%a" Sim.Time.pp d

let pp_event fmt e =
  Format.fprintf fmt "#%-6d %a %d->%d [%s] %a%s %s" e.ev_index Sim.Time.pp e.ev_time
    e.ev_src e.ev_dst (MC.to_string e.ev_cls) pp_action e.ev_action
    (if e.ev_destructive then " DESTRUCTIVE" else "")
    e.ev_label

let pp_stats fmt s =
  Format.fprintf fmt
    "delays=%d reorders=%d dups=%d stall-holds=%d drops=%d unrecoverable-drops=%d token-dups=%d"
    s.delays s.reorders s.dups s.stall_holds s.drops_recoverable s.drops_unrecoverable
    s.token_dups
