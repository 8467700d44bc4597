module E = Sim.Engine
module F = Interconnect.Fabric
module L = Interconnect.Layout

type link_state =
  | Link_up
  | Link_degraded of { latency_mult : float; drop_prob : float }
  | Link_down

type held = Pair of int | Cut | Every_link
type cause = { held : held; from : Sim.Time.t; until : Sim.Time.t; state : link_state }
type spec = cause list

let flaky ?(links = 1) ?(cycles = 3) ?(start = Sim.Time.us 2) ?(down = Sim.Time.us 5)
    ?(period = Sim.Time.us 12) () =
  if down >= period then invalid_arg "Chaos.flaky: down time must be shorter than the period";
  List.concat
    (List.init links (fun i ->
         List.init cycles (fun c ->
             let from = start + (c * period) in
             { held = Pair i; from; until = from + down; state = Link_down })))

let split ?(at = Sim.Time.us 5) ~duration () =
  [ { held = Cut; from = at; until = at + duration; state = Link_down } ]

let burst_loss () =
  [
    {
      held = Every_link;
      from = Sim.Time.us 3;
      until = Sim.Time.us 7;
      state = Link_degraded { latency_mult = 4.; drop_prob = 0.3 };
    };
  ]

let brownout_of spec =
  List.map
    (fun c ->
      match c.state with
      | Link_up -> c
      | Link_down -> { c with state = Link_degraded { latency_mult = 8.; drop_prob = 0. } }
      | Link_degraded d -> { c with state = Link_degraded { d with drop_prob = 0. } })
    spec

let lossy spec =
  List.exists
    (fun c ->
      match c.state with
      | Link_down -> true
      | Link_degraded { drop_prob; _ } -> drop_prob > 0.
      | Link_up -> false)
    spec

(* Sweep the causes by start time, growing the current stretch while
   the next cause starts before it ends. *)
let max_outage spec =
  let stretch (best, lo, hi) c =
    if c.from <= hi then (best, lo, max hi c.until) else (max best (hi - lo), c.from, c.until)
  in
  let sorted = List.sort (fun a b -> compare a.from b.from) spec in
  let best, lo, hi = List.fold_left stretch Sim.Time.(zero, zero, zero) sorted in
  max best (hi - lo)

type stats = {
  mutable flap_downs : int;
  mutable partitions : int;
  mutable heals : int;
  mutable bursts_applied : int;
  mutable cut_copies : int;
}

(* No break hints: the plan stays on one line. *)
let pp fmt spec =
  let cause fmt c =
    Format.fprintf fmt "%s %s %a..%a"
      (match c.held with Pair i -> Printf.sprintf "pair%d" i | Cut -> "cut" | Every_link -> "all")
      (match c.state with
      | Link_up -> "up"
      | Link_down -> "down"
      | Link_degraded { latency_mult; drop_prob } ->
        Printf.sprintf "degraded(%gx,loss=%g)" latency_mult drop_prob)
      Sim.Time.pp c.from Sim.Time.pp c.until
  in
  let sep fmt () = Format.pp_print_string fmt "; " in
  Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:sep cause) spec

let pp_stats fmt st =
  Format.fprintf fmt "flap-downs=%d partitions=%d heals=%d bursts=%d" st.flap_downs
    st.partitions st.heals st.bursts_applied

(* ---- the link table ---- *)

(* One state per ordered site pair. The rng is a dedicated stream
   (degraded-link drop draws only), so arming the table perturbs no
   other sequence. *)
type links = {
  engine : E.t;
  layout : L.t;
  inter_latency : Sim.Time.t;
  rng : Sim.Rng.t;
  stats : stats;
  state : link_state array;
  cut : bool array;  (* held by a [Cut] cause now *)
  since : Sim.Time.t array;  (* when the link went down or degraded *)
  mutable links_down : int;
  mutable downtime : Sim.Time.t;  (* of down stretches already over *)
  mutable degraded : Sim.Time.t;  (* of degraded stretches already over *)
  mutable drops : int;  (* copies lost to down or degraded links *)
  mutable transitions : int;
}

let index name l ~src_site ~dst_site =
  let ncmp = l.layout.L.ncmp in
  if src_site < 0 || src_site >= ncmp || dst_site < 0 || dst_site >= ncmp then
    invalid_arg (Printf.sprintf "Chaos.%s: link %d->%d out of range" name src_site dst_site);
  (src_site * ncmp) + dst_site

(* The stretches already over, plus those of the links that are in
   the state now. *)
let time_in l ~down =
  let now = E.now l.engine in
  let acc = ref (if down then l.downtime else l.degraded) in
  Array.iteri
    (fun i st ->
      match st with
      | Link_down when down -> acc := !acc + (now - l.since.(i))
      | Link_degraded _ when not down -> acc := !acc + (now - l.since.(i))
      | _ -> ())
    l.state;
  !acc

let link_downtime l = time_in l ~down:true
let link_degraded_time l = time_in l ~down:false

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
    (* A degraded link that degrades differently stays in one stretch. *)
    (match (prev, state) with
    | Link_degraded _, Link_degraded _ -> ()
    | _ ->
      (match prev with
      | Link_down ->
        l.links_down <- l.links_down - 1;
        l.downtime <- l.downtime + (now - l.since.(i))
      | Link_degraded _ -> l.degraded <- l.degraded + (now - l.since.(i))
      | Link_up -> ());
      if state = Link_down then l.links_down <- l.links_down + 1;
      l.since.(i) <- now);
    l.state.(i) <- state;
    if E.tracing l.engine then
      E.emit l.engine
        (match state with
        | Link_down -> Obs.Event.Link_down { src_site; dst_site }
        | Link_degraded { latency_mult; drop_prob } ->
          Obs.Event.Link_degraded { src_site; dst_site; latency_mult; drop_prob }
        | Link_up -> Obs.Event.Link_healed { src_site; dst_site })
  end

(* The inter-site links (a, b) that pass [keep], in row-major order. *)
let site_pairs ncmp keep =
  List.filter
    (fun (a, b) -> a <> b && keep a b)
    (List.init (ncmp * ncmp) (fun i -> (i / ncmp, i mod ncmp)))

let in_cut ncmp a b = (a < ncmp / 2) <> (b < ncmp / 2)

let set_links l pairs state =
  List.iter (fun (a, b) -> set_link_state l ~src_site:a ~dst_site:b state) pairs

let partition l state = set_links l (site_pairs l.layout.L.ncmp (in_cut l.layout.L.ncmp)) state
let heal l = set_links l (site_pairs l.layout.L.ncmp (fun _ _ -> true)) Link_up

(* Verdict [v] on a copy that link [i] lost or delayed; on a link a cut
   holds the copy is cut traffic. *)
let hit l i v =
  if l.cut.(i) then l.stats.cut_copies <- l.stats.cut_copies + 1;
  (match v with F.Drop -> l.drops <- l.drops + 1 | _ -> ());
  v

(* The wrapped injector speaks first, so its rng stream sees the same
   offers whether or not the table is armed; the link state then
   applies to a copy it did not drop. On-chip traffic crosses no link.
   A degraded link's extra latency stacks on a delay; a duplicate's
   second copy rides the link un-delayed (the verdict cannot say
   both). *)
let arm fabric rng stats inner =
  let layout = F.layout fabric and engine = F.engine fabric in
  let n = layout.L.ncmp * layout.L.ncmp in
  let l =
    {
      engine;
      layout;
      inter_latency = (F.params fabric).F.inter_latency;
      rng;
      stats;
      state = Array.make n Link_up;
      cut = Array.make n false;
      since = Array.make n Sim.Time.zero;
      links_down = 0;
      downtime = Sim.Time.zero;
      degraded = Sim.Time.zero;
      drops = 0;
      transitions = 0;
    }
  in
  let inject ~now ~src ~dst ~cls ~arrive msg =
    match inner ~now ~src ~dst ~cls ~arrive msg with
    | F.Drop -> F.Drop
    | v -> (
      let src_site = L.cmp_of layout src and dst_site = L.cmp_of layout dst in
      if src_site = dst_site then v
      else
        let i = (src_site * layout.L.ncmp) + dst_site in
        match l.state.(i) with
        | Link_up -> v
        | Link_down -> hit l i F.Drop
        | Link_degraded { latency_mult; drop_prob } ->
          if drop_prob > 0. && Sim.Rng.float l.rng 1.0 < drop_prob then hit l i F.Drop
          else if latency_mult > 1.0 then
            let d = Sim.Time.mul_f l.inter_latency (latency_mult -. 1.0) in
            match v with
            | F.Pass -> hit l i (F.Delay d)
            | F.Delay d2 -> hit l i (F.Delay (d + d2))
            | v -> v
          else v)
  in
  (match Obs.Registry.of_engine engine with
  | Some registry ->
    let module R = Obs.Registry in
    R.register_int registry "fabric.links_down" (fun () -> l.links_down);
    R.register_float registry "fabric.link_downtime_ns" (fun () ->
        Sim.Time.to_ns (link_downtime l));
    R.register_int registry "fabric.outage_drops" (fun () -> l.drops);
    R.register_int registry "fabric.link_transitions" (fun () -> l.transitions)
  | None -> ());
  (l, inject)

(* Down beats a degrade; two degrades combine factor by factor. *)
let worst a b =
  match (a, b) with
  | Link_down, _ | _, Link_down -> Link_down
  | Link_up, s | s, Link_up -> s
  | Link_degraded x, Link_degraded y ->
    let latency_mult = Float.max x.latency_mult y.latency_mult in
    Link_degraded { latency_mult; drop_prob = Float.max x.drop_prob y.drop_prob }

let install ~seed ~spec fabric inner =
  if List.exists (fun c -> c.until < c.from) spec then
    invalid_arg "Chaos.install: a cause ends before it starts";
  let stats =
    { flap_downs = 0; partitions = 0; heals = 0; bursts_applied = 0; cut_copies = 0 }
  in
  (* Dedicated chaos stream (same discipline as the crash scheduler):
     installing a plan draws nothing from the protocol's, the fault
     plan's or the fabric's streams, so chaos on/off leaves every other
     draw identical. *)
  let rng = Sim.Rng.create ((seed * 48_271) + 1_013) in
  let l, inject = arm fabric (Sim.Rng.split rng) stats inner in
  let ncmp = l.layout.L.ncmp in
  if ncmp > 1 then begin
    let npairs =
      List.fold_left
        (fun n c -> match c.held with Pair i -> max n (i + 1) | Cut | Every_link -> n)
        0 spec
    in
    let pairs =
      Array.init npairs (fun _ ->
          let a = Sim.Rng.int rng ncmp in
          (a, (a + 1 + Sim.Rng.int rng (ncmp - 1)) mod ncmp))
    in
    let causes = Array.of_list spec in
    let held =
      Array.map
        (fun c ->
          match c.held with
          | Pair i ->
            let a, b = pairs.(i) in
            [ (a, b); (b, a) ]
          | Cut -> site_pairs ncmp (in_cut ncmp)
          | Every_link -> site_pairs ncmp (fun _ _ -> true))
        causes
    in
    let on = Array.make (Array.length causes) false in
    (* Each link cause [k] holds takes the worst state of the causes
       holding it now, so a cause that ends lifts only its own hold.
       Returns whether some link came back up. *)
    let refresh k =
      List.fold_left
        (fun lifted (a, b) ->
          let state = ref Link_up and cut = ref false in
          Array.iteri
            (fun j (c : cause) ->
              if on.(j) && List.mem (a, b) held.(j) then begin
                state := worst !state c.state;
                cut := !cut || c.held = Cut
              end)
            causes;
          l.cut.((a * ncmp) + b) <- !cut;
          let was_up = l.state.((a * ncmp) + b) = Link_up in
          set_link_state l ~src_site:a ~dst_site:b !state;
          lifted || ((not was_up) && !state = Link_up))
        false held.(k)
    in
    let at time f = E.schedule_at l.engine time f in
    Array.iteri
      (fun k c ->
        at c.from (fun () ->
            (match c.held with
            | Pair _ -> stats.flap_downs <- stats.flap_downs + 1
            | Cut -> stats.partitions <- stats.partitions + 1
            | Every_link -> stats.bursts_applied <- stats.bursts_applied + 1);
            on.(k) <- true;
            ignore (refresh k));
        at c.until (fun () ->
            on.(k) <- false;
            if refresh k then stats.heals <- stats.heals + 1))
      causes
  end;
  (stats, l, inject)
