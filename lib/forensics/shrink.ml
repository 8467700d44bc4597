module T = Fault.Torture
module P = Fault.Plan

type stats = {
  s_candidates : int;
  s_failing : int;
  s_rounds : int;
  s_shape_trials : int;
  s_wall_s : float;
}

type result = {
  r_bundle : Bundle.t;
  r_outcome : T.outcome;
  r_schedule : P.event list;
  r_original_events : int;
  r_stats : stats;
}

type state = {
  bundle : Bundle.t;
  want : T.verdict;  (* the failure the candidate must reproduce *)
  jobs : int;
  log : string -> unit;
  cache : (string, bool) Hashtbl.t;
  mutable candidates : int;
  mutable failing : int;
  mutable rounds : int;
  mutable shape_trials : int;
}

let logf st fmt = Printf.ksprintf st.log fmt

let params_for st ~config sched =
  { st.bundle.Bundle.params with T.p_config = config; p_script = Some sched }

let run_candidate st ~config sched =
  T.run (params_for st ~config sched) st.bundle.Bundle.target
    ~spec:st.bundle.Bundle.spec ~seed:st.bundle.Bundle.seed

let key ~config sched =
  Printf.sprintf "%d/%d/%d:%s" config.Mcmp.Config.ncmp config.Mcmp.Config.procs_per_cmp
    config.Mcmp.Config.l2_banks
    (String.concat "," (List.map (fun e -> string_of_int e.P.ev_index) sched))

(* Evaluate a batch of candidate schedules, memoized; uncached ones fan
   out over the pool. Results are inserted in submission order and each
   run is independent and self-seeded, so the cache contents — and
   every later first-failing pick — are identical at any [jobs]. *)
let eval_batch st ~config cands =
  let seen = Hashtbl.create 16 in
  let misses =
    List.filter
      (fun c ->
        let k = key ~config c in
        if Hashtbl.mem st.cache k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      cands
  in
  if misses <> [] then begin
    let test c = T.verdict (run_candidate st ~config c) = st.want in
    let results =
      Par.Pool.map ~jobs:st.jobs
        ~label:(fun i c -> Printf.sprintf "shrink candidate %d (%d events)" i (List.length c))
        test misses
    in
    List.iter2
      (fun c r ->
        st.candidates <- st.candidates + 1;
        if r then st.failing <- st.failing + 1;
        Hashtbl.replace st.cache (key ~config c) r)
      misses results
  end

let fails st ~config c = Hashtbl.find st.cache (key ~config c)

let test_one st ~config c =
  eval_batch st ~config [ c ];
  fails st ~config c

(* Split [cs] into [n] contiguous chunks (first chunks one longer when
   it does not divide evenly). *)
let partition cs n =
  let len = List.length cs in
  let base = len / n and extra = len mod n in
  let rec go cs i =
    if i >= n then []
    else begin
      let take = base + (if i < extra then 1 else 0) in
      let rec split acc k rest =
        if k = 0 then (List.rev acc, rest)
        else match rest with [] -> (List.rev acc, []) | x :: tl -> split (x :: acc) (k - 1) tl
      in
      let chunk, rest = split [] take cs in
      chunk :: go rest (i + 1)
    end
  in
  go cs 0

let remove_nth chunks i =
  List.concat (List.filteri (fun j _ -> j <> i) chunks)

(* Zeller-Hildebrandt ddmin over the schedule, candidates evaluated in
   deterministic parallel batches. Precondition: [cs] fails. Returns a
   1-minimal failing subset: on termination the granularity has reached
   the schedule length, so every remove-one complement was tested and
   passed. *)
let rec ddmin st ~config cs n =
  let len = List.length cs in
  if len <= 1 then cs
  else begin
    st.rounds <- st.rounds + 1;
    let chunks = partition cs n in
    let subsets = chunks in
    let complements =
      if n = 2 then [] (* complements at n=2 are the subsets themselves *)
      else List.mapi (fun i _ -> remove_nth chunks i) chunks
    in
    eval_batch st ~config (subsets @ complements);
    match List.find_opt (fun c -> c <> [] && fails st ~config c) subsets with
    | Some s ->
      logf st "  reduced to subset: %d events" (List.length s);
      ddmin st ~config s 2
    | None -> (
      match List.find_opt (fun c -> c <> [] && fails st ~config c) complements with
      | Some c ->
        logf st "  reduced to complement: %d events" (List.length c);
        ddmin st ~config c (max (n - 1) 2)
      | None -> if n >= len then cs else ddmin st ~config cs (min len (2 * n)))
  end

let minimize_schedule st ~config sched ~first_report_at =
  (* Chaos-only failures need no per-copy faults at all: try the empty
     schedule before anything else. *)
  if test_one st ~config [] then []
  else begin
    (* Horizon truncation: events after the first report cannot have
       caused it; adopt the truncated prefix if it still fails. *)
    let sched =
      match first_report_at with
      | None -> sched
      | Some at ->
        let cut = List.filter (fun e -> e.P.ev_time <= at) sched in
        if List.length cut < List.length sched && test_one st ~config cut then begin
          logf st "  horizon truncation: %d -> %d events" (List.length sched)
            (List.length cut);
          cut
        end
        else sched
    in
    ddmin st ~config sched 2
  end

(* Machine-shape shrinking: halve each of (ncmp, procs_per_cmp,
   l2_banks) toward (2, 1, 1), keeping any reduction under which the
   current schedule still fails identically, then re-materialize and
   re-minimize the schedule on the smaller machine (its decision-point
   sequence is different, so surviving events are re-derived from the
   adopted run, not carried over blindly). *)
let shape_candidates (c : Mcmp.Config.t) =
  let halve x floor_ = if x > floor_ then [ max floor_ (x / 2) ] else [] in
  List.map (fun n -> { c with Mcmp.Config.ncmp = n }) (halve c.Mcmp.Config.ncmp 2)
  @ List.map
      (fun n -> { c with Mcmp.Config.procs_per_cmp = n })
      (halve c.Mcmp.Config.procs_per_cmp 1)
  @ List.map (fun n -> { c with Mcmp.Config.l2_banks = n }) (halve c.Mcmp.Config.l2_banks 1)
  |> List.filter (fun c -> Mcmp.Config.validate c = Ok ())

let rec shape_loop st config sched =
  let adopted =
    List.find_opt
      (fun config' ->
        st.shape_trials <- st.shape_trials + 1;
        test_one st ~config:config' sched)
      (shape_candidates config)
  in
  match adopted with
  | None -> (config, sched)
  | Some config' ->
    logf st "  shape reduced to %dx%dx%d" config'.Mcmp.Config.ncmp
      config'.Mcmp.Config.procs_per_cmp config'.Mcmp.Config.l2_banks;
    let o = run_candidate st ~config:config' sched in
    st.candidates <- st.candidates + 1;
    let sched' = minimize_schedule st ~config:config' o.T.plan_events ~first_report_at:None in
    shape_loop st config' sched'

let first_report_at (o : T.outcome) =
  match o.T.reports with [] -> None | r :: _ -> Some r.Fault.Report.at

let run ?(jobs = 1) ?(shrink_shape = true) ?(log = fun _ -> ()) (b : Bundle.t) =
  match b.Bundle.recorded.Bundle.d_verdict with
  | T.Clean | T.Survived_partition ->
    Error "bundle records a passing run; nothing to shrink"
  | (T.Detected | T.Failed _) as want -> (
    let t0 = Unix.gettimeofday () in
    let st =
      {
        bundle = b;
        want;
        jobs;
        log;
        cache = Hashtbl.create 256;
        candidates = 0;
        failing = 0;
        rounds = 0;
        shape_trials = 0;
      }
    in
    (* Materialize the schedule by re-running the recipe; this also
       guards against shrinking a bundle that no longer reproduces. *)
    let o0 = Replay.run b in
    if not (Bundle.digest_matches b.Bundle.recorded o0) then
      Error
        (Format.asprintf
           "bundle does not reproduce; refusing to shrink@,  recorded: %a@,  got:      %a"
           Bundle.pp_digest b.Bundle.recorded Bundle.pp_digest
           (Bundle.digest_of_outcome o0))
    else begin
      let config0 = b.Bundle.params.T.p_config in
      let sched0 = o0.T.plan_events in
      logf st "materialized schedule: %d events over %d decision points"
        (List.length sched0) o0.T.plan_offers;
      let sched =
        minimize_schedule st ~config:config0 sched0 ~first_report_at:(first_report_at o0)
      in
      let config, sched =
        if shrink_shape then shape_loop st config0 sched else (config0, sched)
      in
      (* The minimal run, re-executed once to capture its outcome and
         re-digest the (possibly changed) recorded verdict fields. *)
      let o = run_candidate st ~config sched in
      st.candidates <- st.candidates + 1;
      if T.verdict o <> want then
        Error "internal error: minimal schedule no longer reproduces the failure"
      else
        Ok
          {
            r_bundle = Bundle.make o;
            r_outcome = o;
            r_schedule = sched;
            r_original_events = List.length sched0;
            r_stats =
              {
                s_candidates = st.candidates;
                s_failing = st.failing;
                s_rounds = st.rounds;
                s_shape_trials = st.shape_trials;
                s_wall_s = Unix.gettimeofday () -. t0;
              };
          }
    end)

(* ---- human-readable forensics report ----------------------------- *)

let report r =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let o = r.r_outcome in
  let b = r.r_bundle in
  let cfg = b.Bundle.params.T.p_config in
  Format.fprintf fmt "@[<v>=== forensics report ===@,";
  Format.fprintf fmt "target:   %s@," (T.target_name b.Bundle.target);
  Format.fprintf fmt "seed:     %d@," b.Bundle.seed;
  Format.fprintf fmt "machine:  %d CMPs x %d procs x %d L2 banks@," cfg.Mcmp.Config.ncmp
    cfg.Mcmp.Config.procs_per_cmp cfg.Mcmp.Config.l2_banks;
  Format.fprintf fmt "verdict:  %a@," T.pp_verdict (T.verdict o);
  Format.fprintf fmt "schedule: %d of %d original fault events survive@,"
    (List.length r.r_schedule) r.r_original_events;
  (match r.r_schedule with
  | [] -> Format.fprintf fmt "  (empty: the chaos/crash recipe alone reproduces it)@,"
  | evs -> List.iter (fun e -> Format.fprintf fmt "  %a@," P.pp_event e) evs);
  Format.fprintf fmt "reports:@,";
  List.iter (fun rep -> Format.fprintf fmt "  %a@," Fault.Report.pp rep) o.T.reports;
  (match
     List.find_map
       (fun rep ->
         match rep.Fault.Report.kind with
         | Fault.Report.Invariant { violation; _ } -> Some violation
         | _ -> None)
       o.T.reports
   with
  | Some v -> Format.fprintf fmt "violation: %a@," Mcmp.Violation.pp v
  | None -> ());
  (match
     List.filter_map
       (fun (rep : Fault.Report.t) -> Fault.Report.blame rep)
       o.T.reports
   with
  | [] -> ()
  | blames ->
    Format.fprintf fmt "blamed schedule entries:@,";
    List.iter
      (fun (e : P.event) ->
        Format.fprintf fmt "  plan event #%d at %a@," e.P.ev_index Sim.Time.pp e.P.ev_time)
      blames);
  Format.fprintf fmt
    "shrink:   %d candidate runs (%d still failing), %d ddmin rounds, %d shape trials, %.2fs@]@."
    r.r_stats.s_candidates r.r_stats.s_failing r.r_stats.s_rounds r.r_stats.s_shape_trials
    r.r_stats.s_wall_s;
  Buffer.contents buf
