module J = Tcjson
module T = Fault.Torture
module MC = Interconnect.Msg_class

let schema_version = 3
let kind_tag = "tokencmp-repro"

type digest = {
  d_verdict : T.verdict;
  d_ops : int;
  d_events : int;
  d_runtime : Sim.Time.t;
  d_misses : int;
  d_reports : string list;
}

type t = {
  target : T.target;
  seed : int;
  spec : Fault.Spec.t;
  params : T.run_params;
  recorded : digest;
}

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ---- outcome digest ---------------------------------------------- *)

let report_kinds (o : T.outcome) =
  List.map (fun r -> Fault.Report.kind_name r) o.T.reports

let digest_of_outcome (o : T.outcome) =
  {
    d_verdict = T.verdict o;
    d_ops = o.T.ops;
    d_events = o.T.events;
    d_runtime = o.T.runtime;
    d_misses = o.T.misses;
    d_reports = report_kinds o;
  }

let digest_matches d o = d = digest_of_outcome o

let make (o : T.outcome) =
  {
    target = o.T.target;
    seed = o.T.seed;
    spec = o.T.spec;
    params = o.T.params;
    recorded = digest_of_outcome o;
  }

(* ---- serialization ----------------------------------------------- *)

let verdict_to_json = function
  | T.Clean -> J.Obj [ ("kind", J.String "clean") ]
  | T.Survived_partition -> J.Obj [ ("kind", J.String "survived-partition") ]
  | T.Detected -> J.Obj [ ("kind", J.String "detected") ]
  | T.Failed msg -> J.Obj [ ("kind", J.String "failed"); ("msg", J.String msg) ]

let spec_to_json (s : Fault.Spec.t) =
  J.Obj
    [ ("delay_prob", J.Float s.Fault.Spec.delay_prob);
      ("delay_min_ps", J.Int s.Fault.Spec.delay_min);
      ("delay_max_ps", J.Int s.Fault.Spec.delay_max);
      ("reorder_prob", J.Float s.Fault.Spec.reorder_prob);
      ("reorder_max_ps", J.Int s.Fault.Spec.reorder_max);
      ("dup_prob", J.Float s.Fault.Spec.dup_prob);
      ("stall_prob", J.Float s.Fault.Spec.stall_prob);
      ("stall_nodes", J.Int s.Fault.Spec.stall_nodes);
      ("stall_len_ps", J.Int s.Fault.Spec.stall_len);
      ("stall_period_ps", J.Int s.Fault.Spec.stall_period);
      ("drop_prob", J.Float s.Fault.Spec.drop_prob);
      ("drop_tokens", J.Bool s.Fault.Spec.drop_tokens);
      ("duplicate_tokens", J.Bool s.Fault.Spec.duplicate_tokens);
      ("crashes", J.Int s.Fault.Spec.crashes);
      ("crash_down_ps", J.Int s.Fault.Spec.crash_down) ]

let cause_to_json (c : Fault.Chaos.cause) =
  J.Obj
    ((match c.Fault.Chaos.held with
     | Fault.Chaos.Pair i -> [ ("held", J.String "pair"); ("pair", J.Int i) ]
     | Fault.Chaos.Cut -> [ ("held", J.String "cut") ]
     | Fault.Chaos.Every_link -> [ ("held", J.String "every-link") ])
    @ [ ("from_ps", J.Int c.Fault.Chaos.from); ("until_ps", J.Int c.Fault.Chaos.until) ]
    @
    match c.Fault.Chaos.state with
    | Fault.Chaos.Link_up -> [ ("state", J.String "up") ]
    | Fault.Chaos.Link_down -> [ ("state", J.String "down") ]
    | Fault.Chaos.Link_degraded { latency_mult; drop_prob } ->
      [ ("state", J.String "degraded");
        ("latency_mult", J.Float latency_mult);
        ("drop_prob", J.Float drop_prob) ])

(* The CLI exposes exactly two machine shapes; the bundle records which
   base the run used plus the three shape dimensions the shrinker is
   allowed to cut, so a shrunk machine round-trips exactly; the event
   cap is the params' "max_events". Custom configs beyond (base, ncmp,
   procs_per_cmp, l2_banks, max_events) are not representable —
   [config_to_json] snaps to the nearer base. *)
let config_base (c : Mcmp.Config.t) =
  if c.Mcmp.Config.l1_sets = Mcmp.Config.tiny.Mcmp.Config.l1_sets then "tiny" else "default"

let config_of_base = function
  | "tiny" -> Mcmp.Config.tiny
  | "default" -> Mcmp.Config.default
  | b -> fail "unknown config base %S" b

let config_to_json (c : Mcmp.Config.t) =
  J.Obj
    [ ("base", J.String (config_base c));
      ("ncmp", J.Int c.Mcmp.Config.ncmp);
      ("procs_per_cmp", J.Int c.Mcmp.Config.procs_per_cmp);
      ("l2_banks", J.Int c.Mcmp.Config.l2_banks) ]

let cls_to_string = MC.to_string

let cls_of_string s =
  match List.find_opt (fun c -> MC.to_string c = s) MC.all with
  | Some c -> c
  | None -> fail "unknown message class %S" s

let action_fields = function
  | Fault.Plan.Drop_copy -> [ ("action", J.String "drop") ]
  | Fault.Plan.Delay_copy d -> [ ("action", J.String "delay"); ("arg_ps", J.Int d) ]
  | Fault.Plan.Duplicate_copy d ->
    [ ("action", J.String "duplicate"); ("arg_ps", J.Int d) ]

let event_to_json (e : Fault.Plan.event) =
  J.Obj
    ([ ("index", J.Int e.Fault.Plan.ev_index);
       ("at_ps", J.Int e.Fault.Plan.ev_time);
       ("src", J.Int e.Fault.Plan.ev_src);
       ("dst", J.Int e.Fault.Plan.ev_dst);
       ("cls", J.String (cls_to_string e.Fault.Plan.ev_cls));
       ("label", J.String e.Fault.Plan.ev_label) ]
    @ action_fields e.Fault.Plan.ev_action
    @ [ ("destructive", J.Bool e.Fault.Plan.ev_destructive) ])

let params_to_json (p : T.run_params) =
  J.Obj
    [ ("config", config_to_json p.T.p_config);
      ("trace_capacity", J.Int p.T.p_trace_capacity);
      ("no_progress_windows", J.Int p.T.p_no_progress_windows);
      ("starvation_bound_ps", J.Int p.T.p_starvation_bound);
      ("max_events", J.Int p.T.p_config.Mcmp.Config.max_events);
      ("recover", J.Bool p.T.p_recover);
      ("chaos",
       match p.T.p_chaos with None -> J.Null | Some c -> J.List (List.map cause_to_json c));
      ("script",
       match p.T.p_script with
       | None -> J.Null
       | Some evs -> J.List (List.map event_to_json evs)) ]

let digest_to_json d =
  J.Obj
    [ ("verdict", verdict_to_json d.d_verdict);
      ("ops", J.Int d.d_ops);
      ("events", J.Int d.d_events);
      ("runtime_ps", J.Int d.d_runtime);
      ("misses", J.Int d.d_misses);
      ("reports", J.List (List.map (fun k -> J.String k) d.d_reports)) ]

let to_json b =
  J.Obj
    [ ("schema_version", J.Int schema_version);
      ("kind", J.String kind_tag);
      ("target", J.String (T.target_name b.target));
      ("seed", J.Int b.seed);
      ("spec", spec_to_json b.spec);
      ("params", params_to_json b.params);
      ("recorded", digest_to_json b.recorded) ]

(* ---- deserialization --------------------------------------------- *)

let field j k =
  match J.member k j with Some v -> v | None -> fail "missing field %S" k

let get_int j k =
  match field j k with
  | J.Int i -> i
  | J.Float f when Float.is_integer f -> int_of_float f
  | _ -> fail "field %S: expected int" k

let get_float j k =
  match field j k with
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> fail "field %S: expected float" k

let get_bool j k =
  match field j k with J.Bool b -> b | _ -> fail "field %S: expected bool" k

let get_string j k =
  match field j k with J.String s -> s | _ -> fail "field %S: expected string" k

let get_list j k =
  match field j k with J.List l -> l | _ -> fail "field %S: expected list" k

let target_of_string s =
  match String.index_opt s ':' with
  | Some _ when String.length s > 6 && String.sub s 0 6 = "token:" -> (
    let name = String.sub s 6 (String.length s - 6) in
    match Token.Policy.by_name name with
    | Some p -> T.Token p
    | None -> fail "unknown token policy %S" name)
  | _ ->
    if s = Directory.Protocol.name ~dram_directory:true then
      T.Directory { dram_directory = true }
    else if s = Directory.Protocol.name ~dram_directory:false then
      T.Directory { dram_directory = false }
    else fail "unknown target %S" s

let verdict_of_json j =
  match get_string j "kind" with
  | "clean" -> T.Clean
  | "survived-partition" -> T.Survived_partition
  | "detected" -> T.Detected
  | "failed" -> T.Failed (get_string j "msg")
  | k -> fail "unknown verdict kind %S" k

let spec_of_json j : Fault.Spec.t =
  {
    delay_prob = get_float j "delay_prob";
    delay_min = get_int j "delay_min_ps";
    delay_max = get_int j "delay_max_ps";
    reorder_prob = get_float j "reorder_prob";
    reorder_max = get_int j "reorder_max_ps";
    dup_prob = get_float j "dup_prob";
    stall_prob = get_float j "stall_prob";
    stall_nodes = get_int j "stall_nodes";
    stall_len = get_int j "stall_len_ps";
    stall_period = get_int j "stall_period_ps";
    drop_prob = get_float j "drop_prob";
    drop_tokens = get_bool j "drop_tokens";
    duplicate_tokens = get_bool j "duplicate_tokens";
    crashes = get_int j "crashes";
    crash_down = get_int j "crash_down_ps";
  }

let cause_of_json j : Fault.Chaos.cause =
  {
    held =
      (match get_string j "held" with
      | "pair" -> Fault.Chaos.Pair (get_int j "pair")
      | "cut" -> Fault.Chaos.Cut
      | "every-link" -> Fault.Chaos.Every_link
      | h -> fail "unknown held links %S" h);
    from = get_int j "from_ps";
    until = get_int j "until_ps";
    state =
      (match get_string j "state" with
      | "up" -> Fault.Chaos.Link_up
      | "down" -> Fault.Chaos.Link_down
      | "degraded" ->
        Fault.Chaos.Link_degraded
          { latency_mult = get_float j "latency_mult"; drop_prob = get_float j "drop_prob" }
      | st -> fail "unknown link state %S" st);
  }

let config_of_json j =
  let base = config_of_base (get_string j "base") in
  {
    base with
    Mcmp.Config.ncmp = get_int j "ncmp";
    procs_per_cmp = get_int j "procs_per_cmp";
    l2_banks = get_int j "l2_banks";
  }

let event_of_json j : Fault.Plan.event =
  {
    ev_index = get_int j "index";
    ev_time = get_int j "at_ps";
    ev_src = get_int j "src";
    ev_dst = get_int j "dst";
    ev_cls = cls_of_string (get_string j "cls");
    ev_label = get_string j "label";
    ev_action =
      (match get_string j "action" with
      | "drop" -> Fault.Plan.Drop_copy
      | "delay" -> Fault.Plan.Delay_copy (get_int j "arg_ps")
      | "duplicate" -> Fault.Plan.Duplicate_copy (get_int j "arg_ps")
      | a -> fail "unknown action %S" a);
    ev_destructive = get_bool j "destructive";
  }

let params_of_json j : T.run_params =
  {
    p_config =
      { (config_of_json (field j "config")) with
        Mcmp.Config.max_events = get_int j "max_events" };
    p_trace_capacity = get_int j "trace_capacity";
    p_no_progress_windows = get_int j "no_progress_windows";
    p_starvation_bound = get_int j "starvation_bound_ps";
    p_recover = get_bool j "recover";
    p_chaos =
      (match field j "chaos" with
      | J.Null -> None
      | J.List causes -> Some (List.map cause_of_json causes)
      | _ -> fail "chaos: expected list or null");
    p_script =
      (match field j "script" with
      | J.Null -> None
      | J.List evs -> Some (List.map event_of_json evs)
      | _ -> fail "script: expected list or null");
  }

let digest_of_json j =
  {
    d_verdict = verdict_of_json (field j "verdict");
    d_ops = get_int j "ops";
    d_events = get_int j "events";
    d_runtime = get_int j "runtime_ps";
    d_misses = get_int j "misses";
    d_reports =
      List.map
        (function J.String s -> s | _ -> fail "reports: expected strings")
        (get_list j "reports");
  }

let of_json j =
  try
    (match J.member "kind" j with
    | Some (J.String k) when k = kind_tag -> ()
    | Some (J.String k) -> fail "not a repro bundle (kind %S)" k
    | _ -> fail "not a repro bundle (no kind field)");
    (match J.member "schema_version" j with
    | Some (J.Int v) when v = schema_version -> ()
    | Some (J.Int v) ->
      fail "unsupported bundle schema version %d (this build reads %d)" v schema_version
    | _ -> fail "missing schema_version");
    Ok
      {
        target = target_of_string (get_string j "target");
        seed = get_int j "seed";
        spec = spec_of_json (field j "spec");
        params = params_of_json (field j "params");
        recorded = digest_of_json (field j "recorded");
      }
  with Malformed msg -> Error msg

let write_file path b = J.write_file path (to_json b)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match J.parse contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok j -> (
      match of_json j with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok b -> Ok b))

let pp_digest fmt d =
  Format.fprintf fmt "verdict=%a ops=%d events=%d runtime=%a misses=%d reports=[%s]"
    T.pp_verdict d.d_verdict d.d_ops d.d_events Sim.Time.pp d.d_runtime d.d_misses
    (String.concat "," d.d_reports)
