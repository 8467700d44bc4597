type t = {
  mutable loads : int;
  mutable stores : int;
  mutable atomics : int;
  mutable ifetches : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_local_fills : int;
  mutable remote_fills : int;
  mutable mem_fills : int;
  mutable transient_retries : int;
  mutable persistent_requests : int;
  mutable persistent_reads : int;
  mutable writebacks : int;
  mutable dir_indirections : int;
  miss_latency : Sim.Stat.Welford.t;
  miss_histogram : Sim.Stat.Histogram.t;
  cause_counts : int array;
  cause_latency : Sim.Stat.Histogram.t array;
}

let create () =
  {
    loads = 0;
    stores = 0;
    atomics = 0;
    ifetches = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_local_fills = 0;
    remote_fills = 0;
    mem_fills = 0;
    transient_retries = 0;
    persistent_requests = 0;
    persistent_reads = 0;
    writebacks = 0;
    dir_indirections = 0;
    miss_latency = Sim.Stat.Welford.create ();
    miss_histogram = Sim.Stat.Histogram.create ~bucket:10 ~buckets:200;
    cause_counts = Array.make Obs.Event.ncauses 0;
    cause_latency =
      Array.init Obs.Event.ncauses (fun _ ->
          Sim.Stat.Histogram.create ~bucket:10 ~buckets:200);
  }

let data_ops t = t.loads + t.stores + t.atomics
let ops t = data_ops t + t.ifetches

(* The single funnel for miss-latency samples: every protocol
   completion path calls this once, so the per-cause decomposition sums
   to the Welford/overall histogram exactly by construction. *)
let record_miss t ~cause lat_ns =
  Sim.Stat.Welford.add t.miss_latency lat_ns;
  let v = int_of_float lat_ns in
  Sim.Stat.Histogram.add t.miss_histogram v;
  let i = Obs.Event.cause_index cause in
  t.cause_counts.(i) <- t.cause_counts.(i) + 1;
  Sim.Stat.Histogram.add t.cause_latency.(i) v

let cause_count t cause = t.cause_counts.(Obs.Event.cause_index cause)
let cause_histogram t cause = t.cause_latency.(Obs.Event.cause_index cause)

let merge ~into src =
  into.loads <- into.loads + src.loads;
  into.stores <- into.stores + src.stores;
  into.atomics <- into.atomics + src.atomics;
  into.ifetches <- into.ifetches + src.ifetches;
  into.l1_hits <- into.l1_hits + src.l1_hits;
  into.l1_misses <- into.l1_misses + src.l1_misses;
  into.l2_local_fills <- into.l2_local_fills + src.l2_local_fills;
  into.remote_fills <- into.remote_fills + src.remote_fills;
  into.mem_fills <- into.mem_fills + src.mem_fills;
  into.transient_retries <- into.transient_retries + src.transient_retries;
  into.persistent_requests <- into.persistent_requests + src.persistent_requests;
  into.persistent_reads <- into.persistent_reads + src.persistent_reads;
  into.writebacks <- into.writebacks + src.writebacks;
  into.dir_indirections <- into.dir_indirections + src.dir_indirections;
  Sim.Stat.Welford.merge ~into:into.miss_latency src.miss_latency;
  Sim.Stat.Histogram.merge ~into:into.miss_histogram src.miss_histogram;
  Array.iteri (fun i c -> into.cause_counts.(i) <- into.cause_counts.(i) + c) src.cause_counts;
  Array.iteri
    (fun i h -> Sim.Stat.Histogram.merge ~into:into.cause_latency.(i) h)
    src.cause_latency

let persistent_fraction t =
  if t.l1_misses = 0 then 0.
  else float_of_int t.persistent_requests /. float_of_int t.l1_misses

let register registry t =
  let module R = Obs.Registry in
  let ints =
    [ ("loads", fun () -> t.loads);
      ("stores", fun () -> t.stores);
      ("atomics", fun () -> t.atomics);
      ("ifetches", fun () -> t.ifetches);
      ("l1_hits", fun () -> t.l1_hits);
      ("l1_misses", fun () -> t.l1_misses);
      ("l2_local_fills", fun () -> t.l2_local_fills);
      ("remote_fills", fun () -> t.remote_fills);
      ("mem_fills", fun () -> t.mem_fills);
      ("transient_retries", fun () -> t.transient_retries);
      ("persistent_requests", fun () -> t.persistent_requests);
      ("persistent_reads", fun () -> t.persistent_reads);
      ("writebacks", fun () -> t.writebacks);
      ("dir_indirections", fun () -> t.dir_indirections) ]
  in
  List.iter (fun (name, f) -> R.register_int registry ("counters." ^ name) f) ints;
  R.register_float registry "counters.persistent_fraction" (fun () ->
      persistent_fraction t);
  R.register_float registry "counters.miss_latency_ns.mean" (fun () ->
      Sim.Stat.Welford.mean t.miss_latency);
  R.register_float registry "counters.miss_latency_ns.stddev" (fun () ->
      Sim.Stat.Welford.stddev t.miss_latency);
  List.iter
    (fun cause ->
      let name = Obs.Event.cause_to_string cause in
      let i = Obs.Event.cause_index cause in
      R.register_int registry ("counters.miss_class." ^ name) (fun () ->
          t.cause_counts.(i)))
    Obs.Event.all_causes

let pp fmt t =
  Format.fprintf fmt
    "@[<v>ops: %d loads, %d stores, %d atomics, %d ifetches@,\
     L1: %d hits, %d misses (%.1f%% miss)@,\
     fills: %d local-L2, %d remote, %d memory@,\
     retries: %d, persistent: %d (%d reads, %.3f%% of misses)@,\
     writebacks: %d, indirections: %d, avg miss latency: %.1f ns@]"
    t.loads t.stores t.atomics t.ifetches t.l1_hits t.l1_misses
    (if t.l1_hits + t.l1_misses = 0 then 0.
     else 100. *. float_of_int t.l1_misses /. float_of_int (t.l1_hits + t.l1_misses))
    t.l2_local_fills t.remote_fills t.mem_fills t.transient_retries
    t.persistent_requests t.persistent_reads
    (100. *. persistent_fraction t)
    t.writebacks t.dir_indirections
    (Sim.Stat.Welford.mean t.miss_latency);
  if Sim.Stat.Histogram.count t.miss_histogram > 0 then
    Format.fprintf fmt "@,miss latency p50/p90/p99: %d/%d/%d ns"
      (Sim.Stat.Histogram.percentile t.miss_histogram 50.)
      (Sim.Stat.Histogram.percentile t.miss_histogram 90.)
      (Sim.Stat.Histogram.percentile t.miss_histogram 99.)
