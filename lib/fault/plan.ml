module MC = Interconnect.Msg_class

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
  rng : Sim.Rng.t;
  nodes : int;
  recovery : bool;  (* token drops are recoverable (recreation heals them) *)
  script : (int, action) Hashtbl.t option;  (* offer index -> scripted action *)
  stalled : (int, Sim.Time.t) Hashtbl.t;  (* node -> stall end *)
  mutable next_roll : Sim.Time.t;
  mutable offers : int;  (* decision points consulted so far *)
  stats : stats;
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
    events = [];
  }

let stats t = t.stats
let offers t = t.offers
let events t = List.rev t.events

let unrecoverable_drops t =
  if t.recovery then []
  else List.filter (fun e -> e.ev_action = Drop_copy && e.ev_destructive) (events t)

let last_destructive t = List.find_opt (fun e -> e.ev_destructive) t.events

let last_drop_on t ~src ~dst =
  List.find_opt
    (fun e -> e.ev_action = Drop_copy && e.ev_src = src && e.ev_dst = dst)
    t.events

(* The counters a delay can bump: which knob drew it. *)
let count_delay s = s.delays <- s.delays + 1
let count_reorder s = s.reorders <- s.reorders + 1
let count_stall_hold s = s.stall_holds <- s.stall_holds + 1

(* The one fault rule, as a guard per action (DESIGN.md §6): a delay
   may hit any copy; a drop or duplicate never hits a persistent copy,
   hits a token-carrying copy only under the spec's matching corruption
   flag, and otherwise hits only a transient request. An eligible
   action bumps its stats counter ([count] for a delay) and is logged
   under its offer [index]; an ineligible one passes the copy. Logging
   draws nothing from the rng, so it leaves the fault sequence
   untouched, and the log plus the run recipe IS the counterexample. *)
let apply t ~index ~now ~src ~dst ~cls ~tokens_carried ~label ~count action =
  let s = t.stats and carries = tokens_carried > 0 in
  let eligible corruption =
    cls <> MC.Persistent && if carries then corruption else cls = MC.Request
  in
  let log ~destructive verdict =
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
      :: t.events;
    verdict
  in
  match action with
  | Delay_copy d ->
    count s;
    log ~destructive:false (Interconnect.Fabric.Delay d)
  | Drop_copy when eligible t.spec.Spec.drop_tokens ->
    (* Under the recovery layer a lost token is healed by recreation,
       so the drop counts as recoverable: the count is the ONLY thing
       [recovery] changes. *)
    if carries && not t.recovery then s.drops_unrecoverable <- s.drops_unrecoverable + 1
    else s.drops_recoverable <- s.drops_recoverable + 1;
    log ~destructive:carries Interconnect.Fabric.Drop
  | Duplicate_copy d when eligible t.spec.Spec.duplicate_tokens ->
    (* A token-carrying duplicate is deliberate corruption: it mints
       tokens. *)
    if carries then s.token_dups <- s.token_dups + 1 else s.dups <- s.dups + 1;
    log ~destructive:carries (Interconnect.Fabric.Duplicate d)
  | Drop_copy | Duplicate_copy _ -> Interconnect.Fabric.Pass

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

(* The stochastic proposal, drawing from the rng in the order the
   golden suite pins: node-stall hold (a stalled endpoint holds its
   traffic until the stall window ends), token-minting duplicate, drop,
   request duplicate, delay spike, reorder. A proposal also names the
   counter a delay bumps; {!apply} decides whether the copy takes it. *)
let propose t ~now ~src ~dst ~cls ~tokens_carried =
  let s = t.spec in
  roll_stalls t ~now;
  match
    match stall_hold t ~now src with Some h -> Some h | None -> stall_hold t ~now dst
  with
  | Some hold -> Some (Delay_copy hold, count_stall_hold)
  | None ->
    let persistent = cls = MC.Persistent in
    let duplicate () = Duplicate_copy (Sim.Time.ns (Sim.Rng.int_in t.rng 10 200)) in
    if (not persistent) && tokens_carried > 0 && s.Spec.duplicate_tokens
       && hit t s.Spec.dup_prob
    then Some (duplicate (), count_delay)
    else if (not persistent) && hit t s.Spec.drop_prob then Some (Drop_copy, count_delay)
    else if cls = MC.Request && hit t s.Spec.dup_prob then Some (duplicate (), count_delay)
    else if hit t s.Spec.delay_prob then
      let d = Sim.Rng.int_in t.rng s.Spec.delay_min (max s.Spec.delay_min s.Spec.delay_max) in
      Some (Delay_copy d, count_delay)
    else if hit t s.Spec.reorder_prob then
      Some (Delay_copy (Sim.Rng.int t.rng (max 1 s.Spec.reorder_max)), count_reorder)
    else None

let decide t ~now ~src ~dst ~cls ~tokens_carried ~label =
  let index = t.offers in
  t.offers <- t.offers + 1;
  let proposal =
    match t.script with
    | Some script -> Option.map (fun a -> (a, count_delay)) (Hashtbl.find_opt script index)
    | None -> propose t ~now ~src ~dst ~cls ~tokens_carried
  in
  match proposal with
  | None -> Interconnect.Fabric.Pass
  | Some (action, count) ->
    apply t ~index ~now ~src ~dst ~cls ~tokens_carried ~label ~count action

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
