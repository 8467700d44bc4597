module E = Sim.Engine
module F = Interconnect.Fabric
module L = Interconnect.Layout

type burst = {
  burst_at : Sim.Time.t;
  burst_duration : Sim.Time.t;
  burst_drop_prob : float;
  burst_latency_mult : float;
}

type spec = {
  flap_links : int;
  flap_cycles : int;
  flap_start : Sim.Time.t;
  flap_down : Sim.Time.t;
  flap_period : Sim.Time.t;
  partition_at : Sim.Time.t option;
  partition_duration : Sim.Time.t;
  bursts : burst list;
  brownout : bool;
  brownout_mult : float;
}

let none =
  {
    flap_links = 0;
    flap_cycles = 0;
    flap_start = Sim.Time.us 2;
    flap_down = Sim.Time.us 5;
    flap_period = Sim.Time.us 12;
    partition_at = None;
    partition_duration = Sim.Time.zero;
    bursts = [];
    brownout = false;
    brownout_mult = 8.;
  }

let flaky ?(links = 1) ?(cycles = 3) ?(start = Sim.Time.us 2) ?(down = Sim.Time.us 5)
    ?(period = Sim.Time.us 12) () =
  if down >= period then invalid_arg "Chaos.flaky: down time must be shorter than the period";
  { none with flap_links = links; flap_cycles = cycles; flap_start = start;
    flap_down = down; flap_period = period }

let split ?(at = Sim.Time.us 5) ~duration () =
  { none with partition_at = Some at; partition_duration = duration }

let burst_loss () =
  {
    none with
    bursts =
      [
        {
          burst_at = Sim.Time.us 3;
          burst_duration = Sim.Time.us 4;
          burst_drop_prob = 0.3;
          burst_latency_mult = 4.;
        };
      ];
  }

let brownout_of spec = { spec with brownout = true }

let active s =
  (s.flap_links > 0 && s.flap_cycles > 0) || s.partition_at <> None || s.bursts <> []

let has_partition s = s.partition_at <> None

(* Longest continuous impairment of any single link — what a liveness
   watchdog must be willing to wait out on top of recovery latency. *)
let max_outage s =
  let flap = if s.flap_links > 0 && s.flap_cycles > 0 then s.flap_down else Sim.Time.zero in
  let part = match s.partition_at with Some _ -> s.partition_duration | None -> Sim.Time.zero in
  let burst =
    List.fold_left (fun acc b -> max acc b.burst_duration) Sim.Time.zero s.bursts
  in
  max flap (max part burst)

(* Latest scheduled heal — after this the network is whole again and
   convergence is owed. *)
let horizon s =
  let flap =
    if s.flap_links > 0 && s.flap_cycles > 0 then
      s.flap_start + ((s.flap_cycles - 1) * s.flap_period) + s.flap_down
    else Sim.Time.zero
  in
  let part =
    match s.partition_at with Some at -> at + s.partition_duration | None -> Sim.Time.zero
  in
  let burst =
    List.fold_left (fun acc b -> max acc (b.burst_at + b.burst_duration)) Sim.Time.zero
      s.bursts
  in
  max flap (max part burst)

type stats = {
  mutable flap_downs : int;
  mutable partitions : int;
  mutable heals : int;
  mutable bursts_applied : int;
}

let pp fmt s =
  let part =
    match s.partition_at with
    | Some at ->
      Format.asprintf " partition@%a+%a" Sim.Time.pp at Sim.Time.pp s.partition_duration
    | None -> ""
  in
  Format.fprintf fmt "flaps=%dx%d%s bursts=%d%s" s.flap_links s.flap_cycles part
    (List.length s.bursts)
    (if s.brownout then " brownout" else "")

let pp_stats fmt st =
  Format.fprintf fmt "flap-downs=%d partitions=%d heals=%d bursts=%d" st.flap_downs
    st.partitions st.heals st.bursts_applied

(* ---- the link table ---- *)

type link_state =
  | Link_up
  | Link_degraded of { latency_mult : float; drop_prob : float }
  | Link_down

(* One state per ordered site pair. The rng is a dedicated stream
   (degraded-link drop draws only), so arming the table perturbs no
   other sequence. *)
type links = {
  engine : E.t;
  layout : L.t;
  inter_latency : Sim.Time.t;
  rng : Sim.Rng.t;
  state : link_state array;
  down_since : Sim.Time.t array;  (* valid while the link is down *)
  mutable links_down : int;
  mutable downtime : Sim.Time.t;  (* of links already healed *)
  mutable drops : int;  (* copies lost to down or degraded links *)
  mutable transitions : int;
}

let index name l ~src_site ~dst_site =
  let ncmp = l.layout.L.ncmp in
  if src_site < 0 || src_site >= ncmp || dst_site < 0 || dst_site >= ncmp then
    invalid_arg (Printf.sprintf "Chaos.%s: link %d->%d out of range" name src_site dst_site);
  (src_site * ncmp) + dst_site

(* Healed links' downtime plus that of the links down now. *)
let link_downtime l =
  let now = E.now l.engine in
  let acc = ref l.downtime in
  Array.iteri
    (fun i st -> match st with Link_down -> acc := !acc + (now - l.down_since.(i)) | _ -> ())
    l.state;
  !acc

let links_down l = l.links_down
let outage_drops l = l.drops
let link_transitions l = l.transitions

let link_state l ~src_site ~dst_site = l.state.(index "link_state" l ~src_site ~dst_site)

let set_link_state l ~src_site ~dst_site state =
  let i = index "set_link_state" l ~src_site ~dst_site in
  if src_site = dst_site then
    invalid_arg "Chaos.set_link_state: on-chip crossbar has no link state";
  let prev = l.state.(i) in
  if prev <> state then begin
    let now = E.now l.engine in
    l.transitions <- l.transitions + 1;
    (match prev with
    | Link_down ->
      l.links_down <- l.links_down - 1;
      l.downtime <- l.downtime + (now - l.down_since.(i))
    | Link_up | Link_degraded _ -> ());
    (match state with
    | Link_down ->
      l.links_down <- l.links_down + 1;
      l.down_since.(i) <- now
    | Link_up | Link_degraded _ -> ());
    l.state.(i) <- state;
    if E.tracing l.engine then
      E.emit l.engine
        (match state with
        | Link_down -> Obs.Event.Link_down { src_site; dst_site }
        | Link_degraded { latency_mult; drop_prob } ->
          Obs.Event.Link_degraded { src_site; dst_site; latency_mult; drop_prob }
        | Link_up -> Obs.Event.Link_healed { src_site; dst_site })
  end

(* Every link that passes [cut] goes to [state]. *)
let set_links l cut state =
  let ncmp = l.layout.L.ncmp in
  for a = 0 to ncmp - 1 do
    for b = 0 to ncmp - 1 do
      if a <> b && cut a b then set_link_state l ~src_site:a ~dst_site:b state
    done
  done

let partition l state =
  let half = l.layout.L.ncmp / 2 in
  set_links l (fun a b -> (a < half) <> (b < half)) state

let heal l = set_links l (fun _ _ -> true) Link_up

let drop l =
  l.drops <- l.drops + 1;
  F.Drop

(* The wrapped injector speaks first, so its rng stream sees the same
   offers whether or not the table is armed; the link state then
   applies to a copy it did not drop. On-chip traffic crosses no link.
   A degraded link's extra latency stacks on a delay; a duplicate's
   second copy rides the link un-delayed (the verdict cannot say
   both). *)
let arm fabric rng inner =
  let layout = F.layout fabric and engine = F.engine fabric in
  let n = layout.L.ncmp * layout.L.ncmp in
  let l =
    {
      engine;
      layout;
      inter_latency = (F.params fabric).F.inter_latency;
      rng;
      state = Array.make n Link_up;
      down_since = Array.make n Sim.Time.zero;
      links_down = 0;
      downtime = Sim.Time.zero;
      drops = 0;
      transitions = 0;
    }
  in
  F.set_fault_injector fabric (fun ~now ~src ~dst ~cls msg ->
      match inner ~now ~src ~dst ~cls msg with
      | F.Drop -> F.Drop
      | v -> (
        let src_site = L.cmp_of layout src and dst_site = L.cmp_of layout dst in
        if src_site = dst_site then v
        else
          match l.state.((src_site * layout.L.ncmp) + dst_site) with
          | Link_up -> v
          | Link_down -> drop l
          | Link_degraded { latency_mult; drop_prob } ->
            if drop_prob > 0. && Sim.Rng.float l.rng 1.0 < drop_prob then drop l
            else if latency_mult > 1.0 then
              let d = Sim.Time.mul_f l.inter_latency (latency_mult -. 1.0) in
              match v with F.Pass -> F.Delay d | F.Delay d2 -> F.Delay (d + d2) | v -> v
            else v));
  (match Obs.Registry.of_engine engine with
  | Some registry ->
    let module R = Obs.Registry in
    R.register_int registry "fabric.links_down" (fun () -> l.links_down);
    R.register_float registry "fabric.link_downtime_ns" (fun () ->
        Sim.Time.to_ns (link_downtime l));
    R.register_int registry "fabric.outage_drops" (fun () -> l.drops);
    R.register_int registry "fabric.link_transitions" (fun () -> l.transitions)
  | None -> ());
  l

let install ~seed ~spec fabric inner =
  let stats = { flap_downs = 0; partitions = 0; heals = 0; bursts_applied = 0 } in
  (* Dedicated chaos stream (same discipline as the crash scheduler):
     installing a plan draws nothing from the protocol's, the fault
     plan's or the fabric's streams, so chaos on/off leaves every other
     draw identical. *)
  let rng = Sim.Rng.create ((seed * 48_271) + 1_013) in
  let l = arm fabric (Sim.Rng.split rng) inner in
  let engine = F.engine fabric and ncmp = (F.layout fabric).L.ncmp in
  let at time f = E.schedule_at engine time f in
  if ncmp > 1 then begin
    let impaired =
      if spec.brownout then Link_degraded { latency_mult = spec.brownout_mult; drop_prob = 0. }
      else Link_down
    in
    for _ = 1 to spec.flap_links do
      let a = Sim.Rng.int rng ncmp in
      let b = (a + 1 + Sim.Rng.int rng (ncmp - 1)) mod ncmp in
      let both state =
        set_link_state l ~src_site:a ~dst_site:b state;
        set_link_state l ~src_site:b ~dst_site:a state
      in
      for c = 0 to spec.flap_cycles - 1 do
        let t0 = spec.flap_start + (c * spec.flap_period) in
        at t0 (fun () ->
            stats.flap_downs <- stats.flap_downs + 1;
            both impaired);
        at (t0 + spec.flap_down) (fun () ->
            stats.heals <- stats.heals + 1;
            both Link_up)
      done
    done;
    (match spec.partition_at with
    | Some t0 ->
      at t0 (fun () ->
          stats.partitions <- stats.partitions + 1;
          partition l impaired);
      at (t0 + spec.partition_duration) (fun () ->
          stats.heals <- stats.heals + 1;
          heal l)
    | None -> ());
    List.iter
      (fun b ->
        (* Correlated loss: every inter-site link degrades at once. The
           closing heal is global, by design — bursts model a
           fabric-wide episode, not a per-link fault. *)
        let state =
          Link_degraded
            {
              latency_mult = b.burst_latency_mult;
              drop_prob = (if spec.brownout then 0. else b.burst_drop_prob);
            }
        in
        at b.burst_at (fun () ->
            stats.bursts_applied <- stats.bursts_applied + 1;
            set_links l (fun _ _ -> true) state);
        at (b.burst_at + b.burst_duration) (fun () ->
            stats.heals <- stats.heals + 1;
            heal l))
      spec.bursts
  end;
  (stats, l)
