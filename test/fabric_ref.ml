(* Reference model of Interconnect.Fabric's fault-free send: the plain
   list-based multicast, written for clarity rather than speed. It is
   the oracle the send_set / send_one equivalence properties compare
   the library against.

   The model keeps its own port and link reservations, traffic and
   busy-time totals and jitter stream, and records every copy as
   (msg, dst, arrival time) instead of scheduling it. Copies, and so
   jitter draws, go in the fabric's order: local destinations
   ascending, then remote sites ascending, each site's destinations
   descending. Sends must be fed in issue-time order. *)

module L = Interconnect.Layout

type 'msg t = {
  layout : L.t;
  params : Interconnect.Fabric.params;
  rng : Sim.Rng.t;
  port_busy : Sim.Time.t array;  (* per node *)
  link_busy : Sim.Time.t array;  (* per ordered site pair *)
  mutable intra : int;
  mutable inter : int;
  mutable port_total : Sim.Time.t;
  mutable link_total : Sim.Time.t;
  mutable copies : ('msg * int * Sim.Time.t) list;
}

let create layout params rng =
  {
    layout;
    params;
    rng;
    port_busy = Array.make (L.node_count layout) 0;
    link_busy = Array.make (layout.L.ncmp * layout.L.ncmp) 0;
    intra = 0;
    inter = 0;
    port_total = 0;
    link_total = 0;
    copies = [];
  }

let serialization bytes_per_ns bytes =
  Sim.Time.ps (int_of_float (Float.round (float_of_int bytes /. bytes_per_ns *. 1000.)))

let jitter t = if t.params.jitter = 0 then 0 else Sim.Rng.int t.rng (t.params.jitter + 1)

let claim_port t ~now node ser =
  let start = max now t.port_busy.(node) in
  t.port_busy.(node) <- start + ser;
  t.port_total <- t.port_total + ser;
  start + ser

let claim_link t ~src_site ~dst_site ready ser =
  let i = (src_site * t.layout.L.ncmp) + dst_site in
  let start = max ready t.link_busy.(i) in
  t.link_busy.(i) <- start + ser;
  t.link_total <- t.link_total + ser;
  start + ser

let deliver t msg d time = t.copies <- (msg, d, time) :: t.copies

let send t ~now ~src ~dsts ~bytes msg =
  let p = t.params and lay = t.layout in
  let src_site = L.cmp_of lay src and src_onchip = L.is_cache lay src in
  let dsts = List.sort_uniq compare (List.filter (fun d -> d <> src) dsts) in
  let local, remote = List.partition (fun d -> L.cmp_of lay d = src_site) dsts in
  List.iter
    (fun d ->
      if L.is_cache lay d then begin
        t.intra <- t.intra + bytes;
        if src_onchip then
          let dep = claim_port t ~now src (serialization p.intra_bytes_per_ns bytes) in
          deliver t msg d (dep + p.intra_latency + jitter t)
        else deliver t msg d (now + p.mem_link_latency + jitter t)
      end
      else begin
        (* to the chip's memory controller, over the off-chip pins *)
        t.inter <- t.inter + bytes;
        let dep =
          if src_onchip then claim_port t ~now src (serialization p.inter_bytes_per_ns bytes)
          else now
        in
        deliver t msg d (dep + p.mem_link_latency + jitter t)
      end)
    local;
  if remote <> [] then begin
    (* exit hop once, one link crossing per site, then the fan-out *)
    let ready =
      if src_onchip then begin
        t.intra <- t.intra + bytes;
        claim_port t ~now src (serialization p.intra_bytes_per_ns bytes) + p.intra_latency
      end
      else now + p.mem_link_latency
    in
    let sites = List.sort_uniq compare (List.map (L.cmp_of lay) remote) in
    List.iter
      (fun site ->
        t.inter <- t.inter + bytes;
        let arrive =
          claim_link t ~src_site ~dst_site:site ready
            (serialization p.inter_bytes_per_ns bytes)
          + p.inter_latency
        in
        List.iter
          (fun d ->
            let entry =
              if L.is_cache lay d then begin
                t.intra <- t.intra + bytes;
                p.intra_latency
              end
              else p.mem_link_latency
            in
            deliver t msg d (arrive + entry + jitter t))
          (List.rev (List.filter (fun d -> L.cmp_of lay d = site) remote)))
      sites
  end
