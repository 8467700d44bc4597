type params = {
  intra_latency : Sim.Time.t;
  inter_latency : Sim.Time.t;
  mem_link_latency : Sim.Time.t;
  intra_bytes_per_ns : float;
  inter_bytes_per_ns : float;
  jitter : Sim.Time.t;
}

let default_params =
  {
    intra_latency = Sim.Time.ns 2;
    inter_latency = Sim.Time.ns 20;
    mem_link_latency = Sim.Time.ns 20;
    intra_bytes_per_ns = 64.;
    inter_bytes_per_ns = 16.;
    jitter = Sim.Time.ps 500;
  }

type fault_action =
  | Pass
  | Delay of Sim.Time.t
  | Drop
  | Duplicate of Sim.Time.t

type 'msg injector =
  now:Sim.Time.t ->
  src:int ->
  dst:int ->
  cls:Msg_class.t ->
  arrive:Sim.Time.t ->
  'msg ->
  fault_action

(* A pooled delivery: one preallocated cell per concurrently in-flight
   message copy, each carrying a closure allocated once at cell
   creation. Scheduling a delivery fills the mutable fields and hands
   the engine [c_thunk] — no per-copy closure. Cells recycle through an
   index-based free list threaded via [c_next]. A released cell holds
   a unit stand-in in [c_msg], so it pins no message. *)
type 'msg cell = {
  c_idx : int;
  mutable c_src : int;
  mutable c_dst : int;
  mutable c_cls : Msg_class.t;
  mutable c_msg : 'msg;
  mutable c_next : int;  (* free-list link; -1 terminates *)
  c_thunk : unit -> unit;
}

(* One [send_set_parkable] that parked at least one copy: what its
   copies share. Its copies sit in the copy ring from position
   [r_first] up to the next record's [r_first] (or the ring's tail, for
   the newest record). A retired record holds a unit stand-in in
   [r_msg]. *)
type 'msg parked_send = {
  mutable r_key : int;
  mutable r_src : int;
  mutable r_cls : Msg_class.t;
  mutable r_msg : 'msg;
  mutable r_last : Sim.Time.t;  (* latest arrival of its copies *)
  mutable r_first : int;
  mutable r_filed : bool;  (* a copy never woken is filed, not dropped *)
}

type 'msg t = {
  engine : Sim.Engine.t;
  layout : Layout.t;
  params : params;
  traffic : Traffic.t;
  rng : Sim.Rng.t;
  (* The jitter draw's range, [0, jitter], with its rejection bound
     fixed at creation, so a draw does not divide. *)
  jitter_span : Sim.Rng.span;
  (* Per-node layout lookups and per-site node masks, precomputed at
     creation so the send hot path never recomputes divisions or
     allocates. Site masks are multi-word {!Destset} words ([nwords]
     per site, flattened site-major), so any node count takes the same
     bit-operation path. *)
  cmp_arr : int array;
  is_cache_arr : bool array;
  nwords : int;
  site_words : int array;  (* site s, word w at [s * nwords + w] *)
  mutable cells : 'msg cell array;
  mutable free_cell : int;  (* head of the cell free list; -1 = empty *)
  (* Parked copies (see [park]): a FIFO ring of records, one per
     parking send, and a ring of copies, three ints each: destination
     (-1 once woken), arrival and reserved engine sequence number.
     Positions only grow; position [p] lives in slot [p land (capacity
     - 1)] of a ring, whose capacity is a power of two. [parkable]
     gives the destset words of a parking send's destinations that may
     park (see [send_set_parkable]). [park_key] is the key of the
     [send_set_parkable] in progress; [park_open] is set once it opened
     its record, which [cur] then holds (a stand-in before the first). *)
  mutable parkable : int -> 'msg -> int array;
  mutable park_key : int;
  mutable park_open : bool;
  mutable cur : 'msg parked_send;
  mutable recs : 'msg parked_send array;
  mutable rec_head : int;  (* oldest live record *)
  mutable rec_tail : int;  (* next record's position *)
  mutable copies : int array;
  mutable copy_mask : int;  (* the copy ring's capacity - 1 *)
  mutable copy_head : int;  (* first copy of the oldest live record *)
  mutable copy_tail : int;
  mutable parked : int;  (* copies parked and never woken, retired ones included *)
  (* Filed copies (see [set_filer]): [files] picks the sends whose
     copies are filed, [filer] applies one. Per node, [filed] holds a
     (copy position, record position) pair for each of its filed copies
     neither woken nor applied yet, [nfiled] counts them, and both stay
     empty until the first filed copy parks. [file_buf] sorts one
     node's passed copies, four ints each. *)
  mutable files : 'msg -> bool;
  mutable filer : dst:int -> 'msg -> unit;
  mutable filed : int array array;
  mutable nfiled : int array;
  mutable file_buf : int array;
  mutable send_last : Sim.Time.t;  (* latest arrival of the last send's copies *)
  mutable handler : dst:int -> 'msg -> unit;
  port_busy : Sim.Time.t array; (* per node, on-chip egress port *)
  link_busy : Sim.Time.t array; (* per ordered site pair *)
  mutable delivered : int;
  mutable dropped : int;
  mutable injector : 'msg injector option;
  mutable msg_label : 'msg -> string;
  mutable port_busy_total : Sim.Time.t; (* serialization time ever claimed on ports *)
  mutable link_busy_total : Sim.Time.t; (* ... on inter-site links *)
  (* Scratch: the contention wait of the last exit hop and of the last
     link crossing, read back by the send paths to split each remote
     copy's latency into queueing and flight for the trace. Written
     once per send and once per destination site. Pure observation. *)
  mutable exit_wait : Sim.Time.t;
  mutable link_wait : Sim.Time.t;
}

(* The first int of copy position [p]. *)
let[@inline] slot t p = 3 * (p land t.copy_mask)
let record t p = t.recs.(p land (Array.length t.recs - 1))

(* One past the last copy position of the record at position [p]. *)
let copies_end t p = if p + 1 < t.rec_tail then (record t (p + 1)).r_first else t.copy_tail

(* Deliveries, plus the parked copies the engine has run past: the
   count a run without parking would show at this point. A woken copy
   counts at its delivery; a live record whose latest arrival is before
   now has no copy ahead. *)
let delivered t =
  let now = Sim.Engine.now t.engine in
  let ahead = ref 0 in
  for p = t.rec_head to t.rec_tail - 1 do
    let r = record t p in
    if r.r_last >= now then
      for q = r.r_first to copies_end t p - 1 do
        let i = slot t q in
        if
          t.copies.(i) >= 0
          && not (Sim.Engine.passed t.engine t.copies.(i + 1) ~seq:t.copies.(i + 2))
        then incr ahead
      done
  done;
  t.delivered + t.parked - !ahead

let register registry t =
  let module R = Obs.Registry in
  let now_ns () = Sim.Time.to_ns (Sim.Engine.now t.engine) in
  let backlog busy =
    (* Instantaneous queue occupancy: serialization time already claimed
       beyond the present, summed over the array — how far behind the
       ports/links are right now. *)
    let now = Sim.Engine.now t.engine in
    Array.fold_left (fun acc b -> acc +. Sim.Time.to_ns (max 0 (b - now))) 0. busy
  in
  R.register_int registry "fabric.delivered" (fun () -> delivered t);
  R.register_int registry "fabric.dropped" (fun () -> t.dropped);
  R.register_float registry "fabric.port_busy_ns" (fun () ->
      Sim.Time.to_ns t.port_busy_total);
  R.register_float registry "fabric.link_busy_ns" (fun () ->
      Sim.Time.to_ns t.link_busy_total);
  R.register_float registry "fabric.port_utilization" (fun () ->
      let elapsed = now_ns () *. float_of_int (Array.length t.port_busy) in
      if elapsed = 0. then 0. else Sim.Time.to_ns t.port_busy_total /. elapsed);
  R.register_float registry "fabric.link_utilization" (fun () ->
      let nlinks = t.layout.Layout.ncmp * (t.layout.Layout.ncmp - 1) in
      let elapsed = now_ns () *. float_of_int (max 1 nlinks) in
      if elapsed = 0. then 0. else Sim.Time.to_ns t.link_busy_total /. elapsed);
  R.register_float registry "fabric.port_backlog_ns" (fun () -> backlog t.port_busy);
  R.register_float registry "fabric.link_backlog_ns" (fun () -> backlog t.link_busy)

(* A record that holds nothing: [cur] before the first parking send,
   and every spare slot of the record ring. *)
let stand_in () =
  { r_key = -1; r_src = 0; r_cls = Msg_class.Request; r_msg = Obj.magic (); r_last = 0;
    r_first = 0; r_filed = false }

let create engine layout params traffic rng =
  let nnodes = Layout.node_count layout in
  let cmp_arr = Array.init nnodes (fun i -> Layout.cmp_of layout i) in
  let is_cache_arr = Array.init nnodes (fun i -> Layout.is_cache layout i) in
  let nwords = ((nnodes - 1) / Destset.word_bits) + 1 in
  let site_words = Array.make (layout.Layout.ncmp * nwords) 0 in
  for s = 0 to layout.Layout.ncmp - 1 do
    let ds = Layout.nodes_of_cmp_set layout s in
    for w = 0 to Destset.nwords ds - 1 do
      site_words.((s * nwords) + w) <- Destset.word ds w
    done
  done;
  let t =
    {
      engine;
      layout;
      params;
      traffic;
      rng;
      jitter_span = Sim.Rng.span (params.jitter + 1);
      cmp_arr;
      is_cache_arr;
      nwords;
      site_words;
      cells = [||];
      free_cell = -1;
      parkable = (fun _ _ -> [||]);
      park_key = -1;
      park_open = false;
      cur = stand_in ();
      recs = [||];
      rec_head = 0;
      rec_tail = 0;
      copies = [||];
      copy_mask = -1;
      copy_head = 0;
      copy_tail = 0;
      parked = 0;
      files = (fun _ -> false);
      filer = (fun ~dst:_ _ -> ());
      filed = [||];
      nfiled = [||];
      file_buf = [||];
      send_last = Sim.Time.zero;
      handler = (fun ~dst:_ _ -> failwith "Fabric: handler not set");
      port_busy = Array.make (Layout.node_count layout) Sim.Time.zero;
      link_busy = Array.make (layout.Layout.ncmp * layout.Layout.ncmp) Sim.Time.zero;
      delivered = 0;
      dropped = 0;
      injector = None;
      msg_label = (fun _ -> "");
      port_busy_total = Sim.Time.zero;
      link_busy_total = Sim.Time.zero;
      exit_wait = Sim.Time.zero;
      link_wait = Sim.Time.zero;
    }
  in
  (* Self-register occupancy/utilization samplers when the engine
     carries a metrics registry — builders need no extra plumbing. *)
  (match Obs.Registry.of_engine engine with
  | Some registry -> register registry t
  | None -> ());
  t

let set_handler t h = t.handler <- h

(* Unit stand-in (same dead-slot discipline as {!Sim.Heap}): a free
   cell must not pin the last message it carried. *)
let release_cell t c =
  c.c_msg <- Obj.magic ();
  c.c_next <- t.free_cell;
  t.free_cell <- c.c_idx

let set_parkable t f = t.parkable <- f

let set_filer t ~files filer =
  t.files <- files;
  t.filer <- filer

let last_arrival t = t.send_last

let set_fault_injector t i = t.injector <- Some i

let set_msg_label t f = t.msg_label <- f
let layout t = t.layout
let params t = t.params
let engine t = t.engine
let dropped t = t.dropped

let serialization bytes_per_ns bytes =
  Sim.Time.ps (int_of_float (Float.round (float_of_int bytes /. bytes_per_ns *. 1000.)))

(* Every route to a cache ends in one of these two hops, or adds hops
   to one; port queueing and jitter only add. *)
let min_cache_latency p ~bytes =
  min (serialization p.intra_bytes_per_ns bytes + p.intra_latency) p.mem_link_latency

let[@inline] jitter t =
  if t.params.jitter = 0 then 0 else Sim.Rng.int_span t.rng t.jitter_span

(* Claim the on-chip egress port of [node] for [ser] at [now]: returns
   when the claim starts, so the copy departs [ser] later. *)
let[@inline] claim_port t node now ser =
  let start = max now (Array.unsafe_get t.port_busy node) in
  Array.unsafe_set t.port_busy node (start + ser);
  t.port_busy_total <- t.port_busy_total + ser;
  start

(* The exit hop toward other sites, charged once per send: a cache
   claims its port for [ser] and crosses the chip, a memory controller
   (no port) goes over its pins. Returns when the message reaches the
   global links, leaving its port wait in [t.exit_wait]. *)
let[@inline] exit_hop t ~src ~src_onchip ~ser now =
  if src_onchip then begin
    let start = claim_port t src now ser in
    t.exit_wait <- start - now;
    start + ser + t.params.intra_latency
  end
  else begin
    t.exit_wait <- Sim.Time.zero;
    now + t.params.mem_link_latency
  end

(* One global-link crossing, charged once per destination site: the
   message reaches the link at [ready] and claims it for [ser]. Returns
   its arrival at [dst_site], leaving its link wait in [t.link_wait]. *)
let cross_link t ~src_site ~dst_site ~cls ~bytes ~ser ready =
  let i = (src_site * t.layout.Layout.ncmp) + dst_site in
  let start = max ready t.link_busy.(i) in
  t.link_busy.(i) <- start + ser;
  t.link_busy_total <- t.link_busy_total + ser;
  t.link_wait <- start - ready;
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine
      (Obs.Event.Link_xfer
         { src_site; dst_site; cls = Msg_class.to_string cls; bytes; start;
           finish = start + ser });
  start + ser + t.params.inter_latency

let fault t ~src ~dst ~cls action =
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine
      (Obs.Event.Fault_action { src; dst; cls = Msg_class.to_string cls; action })

(* Fire one pooled delivery. The cell is snapshotted and released
   {e before} the handler runs, so sends the handler performs can reuse
   it immediately; the engine pops strictly one event at a time, so a
   cell is never read after release. *)
let deliver_cell t c =
  let src = c.c_src and dst = c.c_dst and cls = c.c_cls and msg = c.c_msg in
  release_cell t c;
  t.delivered <- t.delivered + 1;
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine
      (Obs.Event.Msg_deliver
         { src; dst; cls = Msg_class.to_string cls; label = t.msg_label msg });
  t.handler ~dst msg

let acquire_cell t ~src ~dst ~cls msg =
  if t.free_cell >= 0 then begin
    let c = t.cells.(t.free_cell) in
    t.free_cell <- c.c_next;
    c.c_src <- src;
    c.c_dst <- dst;
    c.c_cls <- cls;
    c.c_msg <- msg;
    c
  end
  else begin
    (* Pool growth: geometric doubling at a new in-flight high-water
       mark, so steady state never lands here and a burst of B pending
       copies costs O(B) total growth work. Spare cells start with a
       unit stand-in for [c_msg] (overwritten before first use). *)
    let old = Array.length t.cells in
    let cap = max 64 (2 * old) in
    let cells =
      Array.init cap (fun i ->
          if i < old then t.cells.(i)
          else
            let rec c =
              { c_idx = i; c_src = src; c_dst = dst; c_cls = cls;
                c_msg = Obj.magic (); c_next = -1; c_thunk = (fun () -> deliver_cell t c) }
            in
            c)
    in
    t.cells <- cells;
    for i = cap - 1 downto old + 1 do
      cells.(i).c_next <- t.free_cell;
      t.free_cell <- i
    done;
    let c = cells.(old) in
    c.c_msg <- msg;
    c
  end

let schedule_delivery t ~src ~cls time dst msg =
  let c = acquire_cell t ~src ~dst ~cls msg in
  Sim.Engine.schedule_at t.engine time c.c_thunk

(* Parked copies. A copy parks instead of being scheduled: it takes
   its engine sequence number now, as a scheduled copy would, and its
   destination, arrival and sequence number go to the copy ring. The
   first copy a send parks opens the send's record, which holds what
   all its copies share. Opening a record first retires, oldest first,
   the records the engine has left behind, so the live records start
   at the oldest one with a copy still in flight. A filed copy is also
   indexed under its destination until it is woken or applied. *)

let grow_records t =
  let old = t.recs in
  let cap = max 16 (2 * Array.length old) in
  let recs = Array.init cap (fun _ -> stand_in ()) in
  for p = t.rec_head to t.rec_tail - 1 do
    recs.(p land (cap - 1)) <- old.(p land (Array.length old - 1))
  done;
  t.recs <- recs

let grow_copies t =
  let old = t.copies and old_mask = t.copy_mask in
  let cap = max 64 (2 * (old_mask + 1)) in
  let copies = Array.make (3 * cap) 0 in
  for p = t.copy_head to t.copy_tail - 1 do
    Array.blit old (3 * (p land old_mask)) copies (3 * (p land (cap - 1))) 3
  done;
  t.copies <- copies;
  t.copy_mask <- cap - 1

let index_filed t dst p rp =
  if Array.length t.nfiled = 0 then begin
    let n = Array.length t.port_busy in
    t.nfiled <- Array.make n 0;
    t.filed <- Array.make n [||]
  end;
  let n = t.nfiled.(dst) and v = t.filed.(dst) in
  let v =
    if 2 * n < Array.length v then v
    else begin
      let v' = Array.make (max 8 (4 * n)) 0 in
      Array.blit v 0 v' 0 (2 * n);
      t.filed.(dst) <- v';
      v'
    end
  in
  v.(2 * n) <- p;
  v.(2 * n + 1) <- rp;
  t.nfiled.(dst) <- n + 1

(* Apply [dst]'s filed copies whose place the engine has passed, in
   (arrival, seq) order, the order they would have run in. Each is
   marked, so nothing wakes it and [delivered] counts it once; the
   others stay indexed. The filer only writes state, so nothing it
   does reaches the fabric. *)
let file_node t dst =
  let v = t.filed.(dst) and n = t.nfiled.(dst) in
  if Array.length t.file_buf < 4 * n then t.file_buf <- Array.make (max 64 (8 * n)) 0;
  let buf = t.file_buf in
  let kept = ref 0 and found = ref 0 in
  for k = 0 to n - 1 do
    let p = v.(2 * k) and rp = v.(2 * k + 1) in
    let i = slot t p in
    let time = t.copies.(i + 1) and seq = t.copies.(i + 2) in
    if Sim.Engine.passed t.engine time ~seq then begin
      let j = ref !found in
      while
        !j > 0
        && (buf.(4 * (!j - 1)) > time || (buf.(4 * (!j - 1)) = time && buf.((4 * !j) - 3) > seq))
      do
        Array.blit buf (4 * (!j - 1)) buf (4 * !j) 4;
        decr j
      done;
      buf.(4 * !j) <- time;
      buf.((4 * !j) + 1) <- seq;
      buf.((4 * !j) + 2) <- p;
      buf.((4 * !j) + 3) <- rp;
      incr found
    end
    else begin
      v.(2 * !kept) <- p;
      v.((2 * !kept) + 1) <- rp;
      incr kept
    end
  done;
  t.nfiled.(dst) <- !kept;
  for j = 0 to !found - 1 do
    t.copies.(slot t buf.((4 * j) + 2)) <- -1;
    t.filer ~dst (record t buf.((4 * j) + 3)).r_msg
  done

let[@inline] file t ~dst =
  if Array.length t.nfiled > 0 && Array.unsafe_get t.nfiled dst > 0 then file_node t dst

(* A record retires once every copy of it arrived before now: none can
   be woken, and [delivered] counts them all. A filed record's copies
   are applied first, with every other passed copy at their
   destinations. The unit stand-in keeps a retired record from pinning
   its message. The new record is the send's until it returns, which
   writes its latest arrival. *)
let open_record t ~src ~cls msg =
  let now = Sim.Engine.now t.engine in
  while t.rec_head < t.rec_tail && (record t t.rec_head).r_last < now do
    let r = record t t.rec_head in
    if r.r_filed then
      for q = r.r_first to copies_end t t.rec_head - 1 do
        let d = t.copies.(slot t q) in
        if d >= 0 then file_node t d
      done;
    r.r_msg <- Obj.magic ();
    t.rec_head <- t.rec_head + 1
  done;
  t.copy_head <- (if t.rec_head < t.rec_tail then (record t t.rec_head).r_first else t.copy_tail);
  if t.rec_tail - t.rec_head = Array.length t.recs then grow_records t;
  let r = record t t.rec_tail in
  r.r_key <- t.park_key;
  r.r_src <- src;
  r.r_cls <- cls;
  r.r_msg <- msg;
  r.r_last <- 0;
  r.r_first <- t.copy_tail;
  r.r_filed <- t.files msg;
  t.rec_tail <- t.rec_tail + 1;
  t.cur <- r;
  t.park_open <- true

(* A parked copy costs its ring slot and its sequence number; the send
   counts it and keeps its record's latest arrival. *)
let[@inline] park t ~src ~cls time dst msg =
  if not t.park_open then open_record t ~src ~cls msg;
  if t.copy_tail - t.copy_head > t.copy_mask then grow_copies t;
  let i = slot t t.copy_tail and c = t.copies in
  Array.unsafe_set c i dst;
  Array.unsafe_set c (i + 1) time;
  Array.unsafe_set c (i + 2) (Sim.Engine.reserve t.engine);
  if t.cur.r_filed then index_filed t dst t.copy_tail (t.rec_tail - 1);
  t.copy_tail <- t.copy_tail + 1

(* Schedule the copy at ring index [i] of record [r] at its original
   arrival and sequence number in a fresh cell, where it would have
   been had it never parked. Its delivery counts it, so it leaves
   [parked], and it is marked, so nothing schedules or files it
   again. *)
let reschedule t r ~dst i =
  t.copies.(i) <- -1;
  t.parked <- t.parked - 1;
  let c = acquire_cell t ~src:r.r_src ~dst ~cls:r.r_cls r.r_msg in
  Sim.Engine.schedule_reserved t.engine t.copies.(i + 1) ~seq:t.copies.(i + 2) c.c_thunk

(* Schedule [dst]'s dropped-kind copies with key [key] whose arrival
   is after now. Every other copy stays parked. One that arrives this
   very instant, after the running event, needs no waking: whatever
   the running event sends lands after that copy's lookup. *)
let wake t ~dst ~key =
  let now = Sim.Engine.now t.engine in
  for p = t.rec_head to t.rec_tail - 1 do
    let r = record t p in
    if r.r_key = key && r.r_last > now && not r.r_filed then
      for q = r.r_first to copies_end t p - 1 do
        let i = slot t q in
        if t.copies.(i) = dst && t.copies.(i + 1) > now then reschedule t r ~dst i
      done
  done

(* Schedule [dst]'s filed copies whose place the engine has not passed,
   whose key is [key] (any key, when negative) and whose message
   [pick] accepts, this instant's later ones included. *)
let wake_filed_if t ~dst ~key pick =
  if Array.length t.nfiled > 0 && t.nfiled.(dst) > 0 then begin
    let v = t.filed.(dst) and n = t.nfiled.(dst) in
    let kept = ref 0 in
    for k = 0 to n - 1 do
      let p = v.(2 * k) and rp = v.(2 * k + 1) in
      let r = record t rp and i = slot t p in
      if
        (key < 0 || r.r_key = key)
        && (not (Sim.Engine.passed t.engine t.copies.(i + 1) ~seq:t.copies.(i + 2)))
        && pick r.r_msg
      then reschedule t r ~dst i
      else begin
        v.(2 * !kept) <- p;
        v.((2 * !kept) + 1) <- rp;
        incr kept
      end
    done;
    t.nfiled.(dst) <- !kept
  end

let any _ = true
let wake_filed t ~dst ~key = wake_filed_if t ~dst ~key any
let wake_filed_where t ~dst pick = wake_filed_if t ~dst ~key:(-1) pick

(* One offer of a copy to the injector, which may delay, drop or
   duplicate it; [arrive] is its fault-free arrival. Faults are emitted
   as structured events so a violation dump shows exactly what the
   network did. *)
let apply t inject ~src ~dst ~cls ~arrive msg =
  match inject ~now:(Sim.Engine.now t.engine) ~src ~dst ~cls ~arrive msg with
  | Pass -> schedule_delivery t ~src ~cls arrive dst msg
  | Delay extra ->
    fault t ~src ~dst ~cls "delay";
    schedule_delivery t ~src ~cls (arrive + extra) dst msg
  | Duplicate extra ->
    fault t ~src ~dst ~cls "duplicate";
    schedule_delivery t ~src ~cls arrive dst msg;
    schedule_delivery t ~src ~cls (arrive + extra) dst msg
  | Drop ->
    t.dropped <- t.dropped + 1;
    fault t ~src ~dst ~cls "drop"

let offer t ~src ~dst ~cls ~arrive msg =
  match t.injector with
  | None -> schedule_delivery t ~src ~cls arrive dst msg
  | Some inject -> apply t inject ~src ~dst ~cls ~arrive msg

(* The trace of one copy, emitted at send. [queue] is the contention
   wait (busy port + busy link) already baked into [time]; the rest of
   [time - now] is flight/serialization. *)
let trace_copy t ~src ~cls ~bytes ~queue time dst msg =
  Sim.Engine.emit t.engine
    (Obs.Event.Msg_send
       { src; dst; cls = Msg_class.to_string cls; bytes; label = t.msg_label msg });
  let flight = time - Sim.Engine.now t.engine - queue in
  Sim.Engine.emit t.engine
    (Obs.Event.Net_hop
       { src; dst; cls = Msg_class.to_string cls;
         queue_ns = Sim.Time.to_ns queue; flight_ns = Sim.Time.to_ns flight;
         arrive = time })

(* Every copy of every message passes through here once its fault-free
   arrival time is known: it parks ([parks], decided by the send), is
   scheduled, or is offered to the injector. *)
let[@inline] place t ~tracing ~src ~cls ~bytes ~queue ~parks time dst msg =
  if tracing then trace_copy t ~src ~cls ~bytes ~queue time dst msg;
  if parks then park t ~src ~cls time dst msg
  else
    match t.injector with
    | None -> schedule_delivery t ~src ~cls time dst msg
    | Some inject -> apply t inject ~src ~dst ~cls ~arrive:time msg

(* What a copy pays on its own. A copy to a node on the sender's own
   site takes one hop: across the on-chip crossbar, from the memory
   controller back on chip, or from a cache out to its local
   controller over the off-chip pins. A cache sender claims its port
   per such copy, for the hop's serialization ([ser_intra] on chip,
   [ser_inter] over the pins; a controller has no port): a broadcast is
   charged per copy, reflecting the per-cache lookup bandwidth the
   paper highlights for broadcast protocols. A copy to another site
   takes the entry hop from the site's link. Each draws its jitter and
   returns its arrival; everything its send's copies share is charged
   by the send (see [send_set_parkable]). *)
let[@inline] local_copy t ~tracing ~src ~src_onchip ~cls ~bytes ~ser_intra ~ser_inter ~parks now
    ~to_cache d msg =
  let p = t.params in
  let ser = if not src_onchip then 0 else if to_cache then ser_intra else ser_inter in
  let start = if src_onchip then claim_port t src now ser else now in
  let hop = if src_onchip && to_cache then p.intra_latency else p.mem_link_latency in
  let time = start + ser + hop + jitter t in
  place t ~tracing ~src ~cls ~bytes ~queue:(start - now) ~parks time d msg;
  time

let[@inline] remote_copy t ~tracing ~src ~cls ~bytes ~queue ~parks arrive ~to_cache d msg =
  let p = t.params in
  let time = arrive + (if to_cache then p.intra_latency else p.mem_link_latency) + jitter t in
  place t ~tracing ~src ~cls ~bytes ~queue ~parks time d msg;
  time

(* Bitset multicast: dedup, self-exclusion and the local/remote split
   are bit operations over the destset's words against the precomputed
   per-site word masks — no list, pair or hashtable allocation at any
   node count. Copies, and so jitter draws, go in a fixed order: local
   destinations ascending, then remote sites ascending, each site's
   destinations descending. Which copies park is decided once, here:
   the protocol's words for the key, read a word at a time, one bit per
   copy.

   What the copies share is charged once per send: the two
   serialization times, the exit hop, one link crossing per
   destination site, the traffic (hops counted per counter, times
   [bytes]), the latest arrival of all copies ([last_arrival]) and of
   the parked ones (the record's), and the count of parked copies. *)
let send_set_parkable t ~park ~src ~dsts ~cls ~bytes msg =
  t.park_key <- park;
  let pw =
    match t.injector with None when park >= 0 -> t.parkable park msg | None | Some _ -> [||]
  in
  let npw = Array.length pw in
  let p = t.params in
  let now = Sim.Engine.now t.engine and tracing = Sim.Engine.tracing t.engine in
  let src_site = t.cmp_arr.(src) and src_onchip = t.is_cache_arr.(src) in
  let ser_intra = serialization p.intra_bytes_per_ns bytes
  and ser_inter = serialization p.inter_bytes_per_ns bytes in
  let first_copy = t.copy_tail in
  let last = ref Sim.Time.zero and parked_last = ref Sim.Time.zero in
  let intra = ref 0 and inter = ref 0 in
  let wb = Destset.word_bits in
  let mwords = Destset.unsafe_words dsts in
  (* The destset may span fewer words than the layout (trailing zeros
     are trimmed); ids beyond the layout are not valid destinations. *)
  let top = min (Array.length mwords) t.nwords - 1 in
  let sbase = src_site * t.nwords in
  let src_w = src / wb and src_b = 1 lsl (src mod wb) in
  for w = 0 to top do
    let lm0 = Array.unsafe_get mwords w land Array.unsafe_get t.site_words (sbase + w) in
    let lm = ref (if w = src_w then lm0 land lnot src_b else lm0) in
    let base = w * wb and pm = if w < npw then Array.unsafe_get pw w else 0 in
    while !lm <> 0 do
      let b = Destset.lsb !lm in
      lm := !lm lxor b;
      let d = base + Destset.bit_index b in
      let to_cache = Array.unsafe_get t.is_cache_arr d in
      if to_cache then incr intra else incr inter;
      let parks = pm land b <> 0 in
      let time =
        local_copy t ~tracing ~src ~src_onchip ~cls ~bytes ~ser_intra ~ser_inter ~parks now
          ~to_cache d msg
      in
      if time > !last then last := time;
      if parks && time > !parked_last then parked_last := time
    done
  done;
  (* Any remote destination at all? One word-skip pass. *)
  let has_remote = ref false in
  for w = 0 to top do
    if
      Array.unsafe_get mwords w land lnot (Array.unsafe_get t.site_words (sbase + w))
      <> 0
    then has_remote := true
  done;
  if !has_remote then begin
    let ready = exit_hop t ~src ~src_onchip ~ser:ser_intra now in
    let exit_wait = t.exit_wait in
    if src_onchip then incr intra;
    for site = 0 to t.layout.Layout.ncmp - 1 do
      if site <> src_site then begin
        let tbase = site * t.nwords in
        let nonempty = ref false in
        for w = 0 to top do
          if Array.unsafe_get mwords w land Array.unsafe_get t.site_words (tbase + w) <> 0
          then nonempty := true
        done;
        if !nonempty then begin
          incr inter;
          let arrive = cross_link t ~src_site ~dst_site:site ~cls ~bytes ~ser:ser_inter ready in
          let queue = exit_wait + t.link_wait in
          for w = top downto 0 do
            let rm =
              ref
                (Array.unsafe_get mwords w
                land Array.unsafe_get t.site_words (tbase + w))
            in
            let base = w * wb and pm = if w < npw then Array.unsafe_get pw w else 0 in
            while !rm <> 0 do
              let b = Destset.msb !rm in
              rm := !rm lxor b;
              let d = base + Destset.bit_index b in
              let to_cache = Array.unsafe_get t.is_cache_arr d in
              if to_cache then incr intra;
              let parks = pm land b <> 0 in
              let time =
                remote_copy t ~tracing ~src ~cls ~bytes ~queue ~parks arrive ~to_cache d msg
              in
              if time > !last then last := time;
              if parks && time > !parked_last then parked_last := time
            done
          done
        end
      end
    done
  end;
  Traffic.add_intra t.traffic cls (!intra * bytes);
  Traffic.add_inter t.traffic cls (!inter * bytes);
  t.send_last <- !last;
  if t.park_open then begin
    t.cur.r_last <- !parked_last;
    t.parked <- t.parked + (t.copy_tail - first_copy);
    t.park_open <- false
  end

let[@inline] send_set t ~src ~dsts ~cls ~bytes msg =
  send_set_parkable t ~park:(-1) ~src ~dsts ~cls ~bytes msg

(* The scalar path: exactly the charges [send_set] makes for a
   one-node destination set, without the word scans. *)
let send_one t ~src ~dst ~cls ~bytes msg =
  if dst = src then
    invalid_arg (Printf.sprintf "Fabric.send_one: node %d sending to itself" src);
  let p = t.params in
  let now = Sim.Engine.now t.engine and tracing = Sim.Engine.tracing t.engine in
  let src_site = t.cmp_arr.(src) and dst_site = t.cmp_arr.(dst) in
  let src_onchip = t.is_cache_arr.(src) and to_cache = t.is_cache_arr.(dst) in
  let ser_intra = serialization p.intra_bytes_per_ns bytes
  and ser_inter = serialization p.inter_bytes_per_ns bytes in
  if dst_site = src_site then begin
    if to_cache then Traffic.add_intra t.traffic cls bytes
    else Traffic.add_inter t.traffic cls bytes;
    t.send_last <-
      local_copy t ~tracing ~src ~src_onchip ~cls ~bytes ~ser_intra ~ser_inter ~parks:false now
        ~to_cache dst msg
  end
  else begin
    let ready = exit_hop t ~src ~src_onchip ~ser:ser_intra now in
    let arrive = cross_link t ~src_site ~dst_site ~cls ~bytes ~ser:ser_inter ready in
    if src_onchip then Traffic.add_intra t.traffic cls bytes;
    Traffic.add_inter t.traffic cls bytes;
    if to_cache then Traffic.add_intra t.traffic cls bytes;
    t.send_last <-
      remote_copy t ~tracing ~src ~cls ~bytes ~queue:(t.exit_wait + t.link_wait) ~parks:false
        arrive ~to_cache dst msg
  end
