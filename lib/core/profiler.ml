type class_row = {
  cause : Obs.Event.cause;
  count : int;
  share : float;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p99_clamped : bool;
  class_total_ns : float;
}

type block_row = {
  block_addr : int;
  block_misses : int;
  block_total_ns : float;
  block_retries : int;
  block_persistent : int;
}

type reconciliation = {
  misses : int;
  class_count_total : int;
  class_mass_ns : float;
  histogram_mass_ns : float;
  welford_mass_ns : float;
  span_mass_ns : float;
  spans : int;
  incomplete : int;
  dropped_spans : int;
  buffer_dropped : int;
  classes_exact : bool;
  spans_exact : bool;
}

type t = {
  protocol : string;
  seed : int;
  runtime_ns : float;
  completed : bool;
  ops : int;
  events : int;
  l1_misses : int;
  classes : class_row list;
  hot_blocks : block_row list;
  contended_blocks : block_row list;
  attribution : Obs.Span.attribution;
  tail : (float * Obs.Span.attribution) option;
  nsamples : int;
  reconciliation : reconciliation;
  perfetto : Tcjson.t;
}

let class_rows counters =
  let total =
    List.fold_left
      (fun acc c -> acc + Mcmp.Counters.cause_count counters c)
      0 Obs.Event.all_causes
  in
  List.map
    (fun cause ->
      let count = Mcmp.Counters.cause_count counters cause in
      let h = Mcmp.Counters.cause_histogram counters cause in
      {
        cause;
        count;
        share = (if total = 0 then 0. else float_of_int count /. float_of_int total);
        mean_ns = Sim.Stat.Histogram.mean h;
        p50_ns = Sim.Stat.Histogram.percentile h 50.;
        p99_ns = Sim.Stat.Histogram.percentile h 99.;
        p99_clamped = Sim.Stat.Histogram.percentile_clamped h 99.;
        class_total_ns = float_of_int (Sim.Stat.Histogram.total h);
      })
    Obs.Event.all_causes

let block_rows ~top_k spans =
  let by_addr = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.Span.t) ->
      match Obs.Span.total_ns s with
      | None -> ()
      | Some total ->
        let row =
          match Hashtbl.find_opt by_addr s.Obs.Span.addr with
          | Some r -> r
          | None ->
            let r =
              ref
                {
                  block_addr = s.Obs.Span.addr;
                  block_misses = 0;
                  block_total_ns = 0.;
                  block_retries = 0;
                  block_persistent = 0;
                }
            in
            Hashtbl.add by_addr s.Obs.Span.addr r;
            r
        in
        row :=
          {
            !row with
            block_misses = !row.block_misses + 1;
            block_total_ns = !row.block_total_ns +. total;
            block_retries = !row.block_retries + s.Obs.Span.retries;
            block_persistent =
              (!row.block_persistent + if s.Obs.Span.persistent then 1 else 0);
          })
    spans;
  let rows = Hashtbl.fold (fun _ r acc -> !r :: acc) by_addr [] in
  let top cmp =
    let sorted =
      List.sort
        (fun a b ->
          let c = cmp a b in
          if c <> 0 then c else compare a.block_addr b.block_addr)
        rows
    in
    List.filteri (fun i _ -> i < top_k) sorted
  in
  ( top (fun a b -> compare b.block_misses a.block_misses),
    top (fun a b -> compare b.block_total_ns a.block_total_ns) )

let spans_reconcile r =
  r.buffer_dropped = 0
  && r.spans + r.dropped_spans = r.misses
  && Float.abs (r.span_mass_ns -. r.welford_mass_ns) <= 1e-6 *. Float.max 1. r.welford_mass_ns

let profile ?(config = Mcmp.Config.tiny) ?(capacity = 1_000_000)
    ?(period = Sim.Time.ns 1_000) ?(top_k = 8)
    ~(protocol : Protocols.t) ~programs ~seed () =
  let buffer = Obs.Buffer.create ~capacity () in
  let registry = Obs.Registry.create () in
  (* The sampler arms once the machine is built, so its timeline sees
     every gauge the protocol registered. *)
  let sampler = ref None in
  let on_start engine ~running:_ =
    sampler := Some (Obs.Sampler.create engine registry ~period)
  in
  let r =
    Mcmp.Runner.run ~config ~registry ~buffer ~on_start protocol.Protocols.builder
      ~programs ~seed
  in
  let c = r.Mcmp.Runner.counters in
  let spans, dropped_spans = Obs.Span.assemble_full buffer in
  let span_summary = Obs.Span.summarize ~dropped_spans spans in
  let attribution, tail = Obs.Span.attribution spans in
  let hot_blocks, contended_blocks = block_rows ~top_k spans in
  let classes = class_rows c in
  let w = c.Mcmp.Counters.miss_latency in
  let misses = Sim.Stat.Welford.count w in
  let class_count_total = List.fold_left (fun acc row -> acc + row.count) 0 classes in
  let class_mass_ns =
    List.fold_left (fun acc row -> acc +. row.class_total_ns) 0. classes
  in
  let histogram_mass_ns =
    float_of_int (Sim.Stat.Histogram.total c.Mcmp.Counters.miss_histogram)
  in
  let reconciliation =
    {
      misses;
      class_count_total;
      class_mass_ns;
      histogram_mass_ns;
      welford_mass_ns = float_of_int misses *. Sim.Stat.Welford.mean w;
      span_mass_ns = span_summary.Obs.Span.total_ns;
      spans = span_summary.Obs.Span.spans;
      incomplete = span_summary.Obs.Span.incomplete;
      dropped_spans;
      buffer_dropped = Obs.Buffer.dropped buffer;
      classes_exact =
        class_count_total = misses && class_mass_ns = histogram_mass_ns;
      spans_exact = false;
    }
  in
  let reconciliation =
    { reconciliation with spans_exact = spans_reconcile reconciliation }
  in
  let samples = match !sampler with Some s -> Obs.Sampler.samples s | None -> [] in
  let perfetto =
    Obs.Perfetto.export ~process_name:protocol.Protocols.name ~samples buffer
  in
  {
    protocol = protocol.Protocols.name;
    seed;
    runtime_ns = Sim.Time.to_ns r.Mcmp.Runner.runtime;
    completed = r.Mcmp.Runner.completed;
    ops = r.Mcmp.Runner.ops;
    events = r.Mcmp.Runner.events;
    l1_misses = c.Mcmp.Counters.l1_misses;
    classes;
    hot_blocks;
    contended_blocks;
    attribution;
    tail;
    nsamples = List.length samples;
    reconciliation;
    perfetto;
  }

(* ------------------------------------------------------------------ *)
(* The report: each table's rows for one report, stacked over several
   reports behind a [protocol] column. *)

let runs_rows t =
  [
    [
      ("seed", Tcjson.Int t.seed);
      ("runtime_ns", Tcjson.Float t.runtime_ns);
      ("completed", Tcjson.Bool t.completed);
      ("ops", Tcjson.Int t.ops);
      ("events", Tcjson.Int t.events);
      ("l1_misses", Tcjson.Int t.l1_misses);
      ("samples", Tcjson.Int t.nsamples);
    ];
  ]

let class_rows t =
  List.map
    (fun row ->
      [
        ("class", Tcjson.String (Obs.Event.cause_to_string row.cause));
        ("count", Tcjson.Int row.count);
        ("share", Tcjson.Float row.share);
        ("mean_ns", Tcjson.Float row.mean_ns);
        ("p50_ns", Tcjson.Int row.p50_ns);
        ("p99_ns", Tcjson.Int row.p99_ns);
        ("p99_clamped", Tcjson.Bool row.p99_clamped);
        ("total_ns", Tcjson.Float row.class_total_ns);
      ])
    t.classes

let attribution_rows t =
  let row window threshold (a : Obs.Span.attribution) =
    [
      ("window", Tcjson.String window);
      ("threshold_ns", threshold);
      ("spans", Tcjson.Int a.Obs.Span.att_spans);
      ("mem_ns", Tcjson.Float a.Obs.Span.att_mem_ns);
      ("queue_ns", Tcjson.Float a.Obs.Span.att_queue_ns);
      ("flight_ns", Tcjson.Float a.Obs.Span.att_flight_ns);
      ("proto_ns", Tcjson.Float a.Obs.Span.att_proto_ns);
      ("total_ns", Tcjson.Float a.Obs.Span.att_total_ns);
    ]
  in
  row "all misses" Tcjson.Null t.attribution
  :: (match t.tail with
     | Some (threshold, a) -> [ row "p99 tail" (Tcjson.Float threshold) a ]
     | None -> [])

let block_rows rows =
  List.map
    (fun b ->
      [
        ("addr", Tcjson.Int b.block_addr);
        ("misses", Tcjson.Int b.block_misses);
        ("total_ns", Tcjson.Float b.block_total_ns);
        ("retries", Tcjson.Int b.block_retries);
        ("persistent", Tcjson.Int b.block_persistent);
      ])
    rows

let reconciliation_rows t =
  let r = t.reconciliation in
  [
    [
      ("misses", Tcjson.Int r.misses);
      ("class_count_total", Tcjson.Int r.class_count_total);
      ("class_mass_ns", Tcjson.Float r.class_mass_ns);
      ("histogram_mass_ns", Tcjson.Float r.histogram_mass_ns);
      ("welford_mass_ns", Tcjson.Float r.welford_mass_ns);
      ("span_mass_ns", Tcjson.Float r.span_mass_ns);
      ("spans", Tcjson.Int r.spans);
      ("incomplete", Tcjson.Int r.incomplete);
      ("dropped_spans", Tcjson.Int r.dropped_spans);
      ("buffer_dropped", Tcjson.Int r.buffer_dropped);
      ("classes_exact", Tcjson.Bool r.classes_exact);
      ("spans_exact", Tcjson.Bool r.spans_exact);
    ];
  ]

(* (key, title, rows of one report), in print order. *)
let table_specs =
  [
    ("runs", "Runs", runs_rows);
    ("classes", "Miss classification", class_rows);
    ("attribution", "Critical-path attribution", attribution_rows);
    ("hot_blocks", "Hot blocks (by miss count)", fun t -> block_rows t.hot_blocks);
    ( "contended_blocks",
      "Contended blocks (by total latency)",
      fun t -> block_rows t.contended_blocks );
    ("reconciliation", "Reconciliation", reconciliation_rows);
  ]

let tables reports =
  List.map
    (fun (key, title, rows) ->
      ( key,
        Table.make title
          (List.concat_map
             (fun t -> List.map (fun row -> ("protocol", Tcjson.String t.protocol) :: row) (rows t))
             reports) ))
    table_specs

let failures t =
  let r = t.reconciliation in
  let att = t.attribution.Obs.Span.att_total_ns in
  let check ok fmt =
    Printf.ksprintf (fun s -> if ok then None else Some (t.protocol ^ ": " ^ s)) fmt
  in
  List.filter_map Fun.id
    [
      check t.completed "run did not complete";
      check r.classes_exact "class decomposition does not reconcile (%d classified vs %d misses)"
        r.class_count_total r.misses;
      (* A ring that dropped events cannot reconcile its spans; one
         that dropped nothing must. *)
      check
        (r.buffer_dropped > 0 || r.spans_exact)
        "span accounting not exact (%d spans + %d dropped vs %d misses; span mass %.3f ns vs \
         Welford %.3f ns)"
        r.spans r.dropped_spans r.misses r.span_mass_ns r.welford_mass_ns;
      check
        (Float.abs (att -. r.span_mass_ns) <= 1e-6 *. Float.max 1. r.span_mass_ns)
        "attribution total %.3f ns vs span total %.3f ns" att r.span_mass_ns;
      check (t.nsamples > 0) "sampler recorded no counter-track samples";
      (match Obs.Perfetto.validate t.perfetto with
      | Ok () -> None
      | Error e -> check false "perfetto validation: %s" e);
    ]
