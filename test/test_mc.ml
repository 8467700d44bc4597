(* The explicit-state model checker and the Section 5 protocol models. *)

(* A toy counter model for the explorer itself. *)
let counter_model ?(bug_at = 3) ~bound ~bug () : (module Mc.Explore.MODEL) =
  (module struct
    type state = int

    let name = "counter"
    let initial = [ 0 ]

    let next s =
      if s >= bound then [] else [ ("inc", s + 1) ] @ if s > 0 then [ ("dec", s - 1) ] else []

    let invariant s = if bug && s = bug_at then Error "hit the bug" else Ok ()
    let goal s = s = bound
    let pp = Format.pp_print_int
    let canonicalize s = s
  end)

let run ?(max_states = 1_000_000) m () =
  let module M = (val m : Mc.Explore.MODEL) in
  let module R = Mc.Explore.Make (M) in
  R.run ~max_states ()

(* The explorer always interns through [canonicalize]; an identity one
   gives the unreduced graph. *)
let unreduced m : (module Mc.Explore.MODEL) =
  let module M = (val m : Mc.Explore.MODEL) in
  (module struct
    include M

    let canonicalize s = s
  end)

let test_explorer_counts () =
  let s = run (counter_model ~bound:10 ~bug:false ()) () in
  Alcotest.(check int) "states" 11 s.Mc.Explore.states;
  Alcotest.(check int) "diameter" 10 s.Mc.Explore.diameter;
  Alcotest.(check (option int)) "goal reachable from everywhere" (Some 0) s.Mc.Explore.doomed;
  Alcotest.(check bool) "no violation" true (s.Mc.Explore.violation = None)

let test_explorer_finds_violation () =
  let s = run (counter_model ~bound:10 ~bug:true ()) () in
  match s.Mc.Explore.violation with
  | Some (reason, trace) ->
    Alcotest.(check string) "reason" "hit the bug" reason;
    Alcotest.(check (list string)) "shortest trace" [ "inc"; "inc"; "inc" ] trace;
    Alcotest.(check (option int)) "no doomed count after a violation" None s.Mc.Explore.doomed
  | None -> Alcotest.fail "violation not found"

let test_explorer_truncation () =
  let s = run (counter_model ~bound:1000 ~bug:false ()) ~max_states:10 () in
  Alcotest.(check bool) "truncated" true s.Mc.Explore.truncated;
  Alcotest.(check int) "states capped" 10 s.Mc.Explore.states;
  Alcotest.(check (option int)) "no doomed count on an open graph" None s.Mc.Explore.doomed

let test_truncated_run_checks_counted_states () =
  (* The budget fills while state 0 is expanded; state 1 was counted
     before it did, so its violation must still be reported. With goal
     state 2, counting the open graph would report state 1 as doomed. *)
  let m : (module Mc.Explore.MODEL) =
    (module struct
      type state = int

      let name = "fan"
      let initial = [ 0 ]
      let next = function 0 -> [ ("to1", 1); ("to2", 2); ("to3", 3) ] | _ -> []
      let invariant s = if s = 1 then Error "state 1" else Ok ()
      let goal s = s = 2
      let pp = Format.pp_print_int
      let canonicalize s = s
    end)
  in
  let s = run m ~max_states:3 () in
  Alcotest.(check bool) "truncated" true s.Mc.Explore.truncated;
  Alcotest.(check int) "states capped" 3 s.Mc.Explore.states;
  (match s.Mc.Explore.violation with
  | Some (reason, trace) ->
    Alcotest.(check string) "reason" "state 1" reason;
    Alcotest.(check (list string)) "trace" [ "to1" ] trace
  | None -> Alcotest.fail "violation on a counted state not reported");
  Alcotest.(check (option int)) "no doomed count" None s.Mc.Explore.doomed

let test_doomed_detection () =
  (* A model with an absorbing non-goal state must report doomed states. *)
  let m : (module Mc.Explore.MODEL) =
    (module struct
      type state = int

      let name = "trap"
      let initial = [ 0 ]

      let next = function
        | 0 -> [ ("to-goal", 1); ("to-trap", 2) ]
        | _ -> []

      let invariant _ = Ok ()
      let goal s = s = 1
      let pp = Format.pp_print_int
      let canonicalize s = s
    end)
  in
  let s = run m () in
  Alcotest.(check (option int)) "trap state is doomed" (Some 1) s.Mc.Explore.doomed

let micro = { Mc.Token_model.caches = 2; tokens = 3; max_writes = 1; net_cap = 3 }

let test_token_safety_model () =
  let s = run (Mc.Token_model.safety micro) () in
  Alcotest.(check bool) "states explored" true (s.Mc.Explore.states > 100);
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "not truncated" true (not s.Mc.Explore.truncated)

let test_token_dst_model () =
  let s = run (Mc.Token_model.distributed micro) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check (option int)) "no doomed states (liveness proxy)" (Some 0) s.Mc.Explore.doomed

let test_token_arb_model () =
  (* the arbiter's activate/deactivate broadcasts need one more slot of
     network headroom than the distributed scheme *)
  let s = run (Mc.Token_model.arbiter { micro with Mc.Token_model.net_cap = 4 }) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check (option int)) "no doomed states" (Some 0) s.Mc.Explore.doomed

let dir2 = { Mc.Dir_model.caches = 2; max_writes = 2; net_cap = 4 }

let test_dir_model () =
  let s = run (Mc.Dir_model.flat dir2) () in
  Alcotest.(check bool) "invariants hold" true (s.Mc.Explore.violation = None);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check (option int)) "no doomed states" (Some 0) s.Mc.Explore.doomed

let test_dst_cheaper_than_arb () =
  (* The paper found TokenCMP-dst somewhat more intensive than -arb in
     TLC; in our encoding the arbiter's queue makes it the bigger one.
     Either way both must close their graphs at this scale. *)
  let d = run (Mc.Token_model.distributed micro) () in
  let a = run (Mc.Token_model.arbiter micro) () in
  Alcotest.(check bool) "both finite" true
    ((not d.Mc.Explore.truncated) && not a.Mc.Explore.truncated)

let test_safety_model_smallest () =
  let s = run (Mc.Token_model.safety micro) () in
  let d = run (Mc.Token_model.distributed micro) () in
  Alcotest.(check bool) "safety-only model is the smallest" true
    (s.Mc.Explore.states < d.Mc.Explore.states)

let test_recovery_model () =
  (* The recreation substrate on the tiny config: one lost token, at
     most one epoch bump, spurious recreation allowed. Safety must hold
     on every reachable state and the loss must always be survivable
     (no doomed states = both requests still complete). *)
  let s = run (Mc.Recovery_model.model Mc.Recovery_model.default_params) () in
  (match s.Mc.Explore.violation with
  | None -> ()
  | Some (reason, trace) ->
    Alcotest.failf "violation: %s via %s" reason (String.concat ";" trace));
  Alcotest.(check bool) "states explored" true (s.Mc.Explore.states > 100);
  Alcotest.(check bool) "not truncated" true (not s.Mc.Explore.truncated);
  Alcotest.(check bool) "goals reached" true (s.Mc.Explore.goals > 0);
  Alcotest.(check (option int)) "loss always survivable (no doomed states)" (Some 0)
    s.Mc.Explore.doomed

let test_model_loc_metric () =
  let t = Mc.Model_loc.token and d = Mc.Model_loc.directory in
  let r = Mc.Model_loc.recovery in
  Alcotest.(check bool) "positive" true (t > 0 && d > 0 && r > 0)

(* ------------------------------------------------------------------ *)
(* Exact-mode pinning: the engine restructure (open-addressing store,
   CSR reverse edges, id-indexed path reconstruction) must not change
   a single number of the historical exact serial semantics. Counts
   pinned from the pre-restructure checker. *)

let check_counts name (exp_states, exp_trans, exp_diam, exp_goals, exp_doomed) s =
  Alcotest.(check int) (name ^ " states") exp_states s.Mc.Explore.states;
  Alcotest.(check int) (name ^ " transitions") exp_trans s.Mc.Explore.transitions;
  Alcotest.(check int) (name ^ " diameter") exp_diam s.Mc.Explore.diameter;
  Alcotest.(check int) (name ^ " goals") exp_goals s.Mc.Explore.goals;
  Alcotest.(check (option int)) (name ^ " doomed") (Some exp_doomed) s.Mc.Explore.doomed;
  Alcotest.(check bool) (name ^ " closed") false s.Mc.Explore.truncated;
  Alcotest.(check bool) (name ^ " no violation") true (s.Mc.Explore.violation = None)

(* The 2-cache directory attains a network of 3, so every larger cap
   gives the same graph. *)
let test_exact_stats_pinned_small () =
  check_counts "tok-safety-micro" (984, 6289, 11, 0, 0) (run (Mc.Token_model.safety micro) ());
  List.iter
    (fun net_cap ->
      check_counts
        (Printf.sprintf "dir-2c cap %d" net_cap)
        (403, 825, 17, 29, 0)
        (run (Mc.Dir_model.flat { dir2 with Mc.Dir_model.net_cap }) ()))
    [ 3; 4; 5; 6 ]

(* FIFO deferral and rank-compressed writeback serials keep the flat
   directory's state finite, so its 3-cache graph closes. *)
let test_dir_3c_closes () =
  let s =
    run ~max_states:2_000_000
      (Mc.Dir_model.flat { Mc.Dir_model.caches = 3; max_writes = 2; net_cap = 3 })
      ()
  in
  Alcotest.(check bool) "closed" false s.Mc.Explore.truncated;
  Alcotest.(check bool) "no violation" true (s.Mc.Explore.violation = None);
  Alcotest.(check int) "states" 1_749_354 s.Mc.Explore.states;
  Alcotest.(check int) "transitions" 5_248_933 s.Mc.Explore.transitions;
  Alcotest.(check int) "diameter" 86 s.Mc.Explore.diameter;
  Alcotest.(check int) "goals" 118_432 s.Mc.Explore.goals;
  Alcotest.(check (option int)) "doomed" (Some 0) s.Mc.Explore.doomed

let test_exact_stats_pinned_big () =
  check_counts "tok-dst-micro" (123929, 777046, 24, 45178, 0)
    (run (Mc.Token_model.distributed micro) ());
  check_counts "recovery-default" (133284, 756330, 24, 12646, 0)
    (run (Mc.Recovery_model.model Mc.Recovery_model.default_params) ())

(* ------------------------------------------------------------------ *)
(* Two runs agree on every reported number: the symmetry tests compare
   a reduced run with an unreduced one. *)

let check_same_stats name (a : Mc.Explore.stats) (b : Mc.Explore.stats) =
  Alcotest.(check int) (name ^ " states") a.states b.states;
  Alcotest.(check int) (name ^ " transitions") a.transitions b.transitions;
  Alcotest.(check int) (name ^ " diameter") a.diameter b.diameter;
  Alcotest.(check int) (name ^ " goals") a.goals b.goals;
  Alcotest.(check (option int)) (name ^ " doomed") a.doomed b.doomed;
  Alcotest.(check bool) (name ^ " truncated") a.truncated b.truncated;
  Alcotest.(check bool) (name ^ " violation") true (a.violation = b.violation);
  Alcotest.(check bool) (name ^ " violation state") true
    (a.violation_state = b.violation_state);
  Alcotest.(check bool) (name ^ " doomed example") true (a.doomed_example = b.doomed_example)

(* ------------------------------------------------------------------ *)
(* Violation-path reconstruction: a deep violation must render every
   state along the path (regression for the O(states x path) full-table
   scan this used to be), decoding each state's bytes by id. *)

let test_deep_violation_path () =
  let m = counter_model ~bound:100 ~bug:true ~bug_at:50 () in
  let s = run m () in
  let expected = List.init 51 string_of_int in
  Alcotest.(check (list string)) "every state rendered" expected s.Mc.Explore.violation_path;
  Alcotest.(check bool) "violating state rendered" true
    (s.Mc.Explore.violation_state = Some "50")

(* The visited set compares marshalled bytes. Marshalling with sharing
   encodes a pair of one list twice as a back-reference, and a pair of
   two equal lists built apart as two copies; the explorer must see
   one state. *)
let test_equal_states_share_bytes () =
  let m : (module Mc.Explore.MODEL) =
    (module struct
      type state = int list * int list

      let name = "aliased"
      let initial = [ ([ 1; 2; 3 ], List.map (fun x -> x) [ 1; 2; 3 ]) ]
      let next (a, _) = [ ("alias", (a, a)) ]
      let invariant _ = Ok ()
      let goal _ = true
      let pp fmt (a, b) = Format.fprintf fmt "%d,%d" (List.length a) (List.length b)
      let canonicalize s = s
    end)
  in
  let s = run m () in
  Alcotest.(check int) "one state" 1 s.Mc.Explore.states;
  Alcotest.(check int) "one transition" 1 s.Mc.Explore.transitions

(* The visited table keys each state by the hash of its bytes, and a
   key match counts as a hit only when the bytes are equal. Among the
   100001 counter states some pairs share a key, and the table grows
   past its first capacity, so no state may be lost or merged. *)
let test_shared_hash_keys_stay_distinct () =
  let bound = 100_000 in
  let keys = Hashtbl.create 1024 in
  for i = 0 to bound do
    Hashtbl.replace keys (Hashtbl.hash (Marshal.to_string i [ Marshal.No_sharing ])) ()
  done;
  Alcotest.(check bool) "some states share a hash key" true (Hashtbl.length keys <= bound);
  let s = run (counter_model ~bound ~bug:false ()) () in
  Alcotest.(check int) "every state counted" (bound + 1) s.Mc.Explore.states;
  Alcotest.(check int) "transitions" ((2 * bound) - 1) s.Mc.Explore.transitions;
  Alcotest.(check int) "diameter" bound s.Mc.Explore.diameter;
  Alcotest.(check (option int)) "closed, nothing doomed" (Some 0) s.Mc.Explore.doomed

(* Ids are handed out in discovery order and the cursor expands them in
   that order, so a binary tree is expanded level by level. A LIFO
   frontier would expand 0, 2, 6, 14, ... first. *)
let test_cursor_expands_in_discovery_order () =
  let expanded = ref [] in
  let m : (module Mc.Explore.MODEL) =
    (module struct
      type state = int

      let name = "tree"
      let initial = [ 0 ]
      let next n = if n < 15 then [ ("l", (2 * n) + 1); ("r", (2 * n) + 2) ] else []

      let invariant n =
        expanded := n :: !expanded;
        Ok ()

      let goal _ = false
      let pp = Format.pp_print_int
      let canonicalize s = s
    end)
  in
  let s = run m () in
  Alcotest.(check (list int)) "breadth-first order" (List.init 31 Fun.id) (List.rev !expanded);
  Alcotest.(check int) "states" 31 s.Mc.Explore.states;
  Alcotest.(check int) "diameter" 4 s.Mc.Explore.diameter

(* ------------------------------------------------------------------ *)
(* The Section 5 report: [check] and [bench sec5] share its rows and
   its failure rule. *)

module E = Tokencmp.Experiments

let row ?violation ?(doomed = Some 0) ?(truncated = false) () =
  let stats =
    {
      Mc.Explore.states = 10;
      transitions = 20;
      diameter = 3;
      violation;
      violation_state = None;
      violation_path = [];
      doomed;
      doomed_example = None;
      goals = 1;
      truncated;
    }
  in
  { E.model = "m"; caches = 2; net_cap = 3; stats; model_loc = 1 }

let test_mc_failed_rule () =
  Alcotest.(check bool) "closed and live" false (E.mc_failed (row ()));
  Alcotest.(check bool) "a doomed state" true (E.mc_failed (row ~doomed:(Some 2) ()));
  Alcotest.(check bool) "a violation" true
    (E.mc_failed (row ~violation:("stale data", [ "req" ]) ~doomed:None ()));
  Alcotest.(check bool) "truncation alone" false
    (E.mc_failed (row ~doomed:None ~truncated:true ()))

(* At a 2000-state budget only the 2-cache safety and directory graphs
   close. Each traversal of the rows explores them again, to the same
   numbers. *)
let test_model_checking_rows () =
  let rows = E.model_checking ~max_states:2000 () in
  let first = List.of_seq rows and again = List.of_seq rows in
  Alcotest.(check (list (triple string int int)))
    "report order"
    [
      ("TokenCMP-safety", 2, 4);
      ("TokenCMP-dst", 2, 4);
      ("TokenCMP-arb", 2, 4);
      ("TokenCMP-recovery", 2, 3);
      ("TokenCMP-dst", 2, 3);
      ("TokenCMP-dst", 3, 3);
      ("Flat Directory", 2, 3);
      ("Flat Directory", 3, 3);
    ]
    (List.map (fun (r : E.mc_row) -> (r.model, r.caches, r.net_cap)) first);
  Alcotest.(check (list bool))
    "truncated"
    [ false; true; true; true; true; true; false; true ]
    (List.map (fun (r : E.mc_row) -> r.stats.Mc.Explore.truncated) first);
  Alcotest.(check bool) "no row fails" false (List.exists E.mc_failed first);
  List.iter2
    (fun (a : E.mc_row) (b : E.mc_row) -> check_same_stats a.model a.stats b.stats)
    first again

(* ------------------------------------------------------------------ *)
(* Canonicalization properties. States are sampled through the models'
   own [next] so every tested state is reachable. *)

let sample (type s) (module M : Mc.Explore.MODEL with type state = s) n =
  let seen = ref [] in
  let frontier = Queue.create () in
  List.iter (fun s -> Queue.push s frontier) M.initial;
  while List.length !seen < n && not (Queue.is_empty frontier) do
    let s = Queue.pop frontier in
    if not (List.mem s !seen) then begin
      seen := s :: !seen;
      List.iter (fun (_, s') -> Queue.push s' frontier) (M.next s)
    end
  done;
  !seen

let sym_tp = { Mc.Token_model.caches = 4; tokens = 5; max_writes = 1; net_cap = 2 }
let sym_dp = { Mc.Dir_model.caches = 4; max_writes = 1; net_cap = 3 }
let sym_rp = { Mc.Recovery_model.caches = 4; tokens = 4; max_writes = 1; net_cap = 2 }

let canon_properties name states ~canonicalize ~apply_perm ~mappings ~invariant ~goal =
  List.iter
    (fun s ->
      let c = canonicalize s in
      Alcotest.(check bool) (name ^ " idempotent") true (canonicalize c = c);
      Alcotest.(check bool) (name ^ " preserves invariant verdict") true
        (Result.is_ok (invariant c) = Result.is_ok (invariant s));
      Alcotest.(check bool) (name ^ " preserves goal verdict") true (goal c = goal s);
      List.iter
        (fun f ->
          Alcotest.(check bool) (name ^ " invariant under permutation") true
            (canonicalize (apply_perm f s) = c))
        mappings)
    states

let test_canon_properties_token () =
  let module M = (val Mc.Token_model.model Mc.Token_model.Distributed sym_tp) in
  canon_properties "token"
    (sample (module M) 150)
    ~canonicalize:(Mc.Token_model.canonicalize sym_tp)
    ~apply_perm:(Mc.Token_model.apply_perm sym_tp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Token_model.movable sym_tp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_properties_dir () =
  let module M = (val Mc.Dir_model.flat_sym sym_dp) in
  canon_properties "dir"
    (sample (module M) 150)
    ~canonicalize:(Mc.Dir_model.canonicalize sym_dp)
    ~apply_perm:(Mc.Dir_model.apply_perm sym_dp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Dir_model.movable sym_dp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_properties_recovery () =
  let module M = (val Mc.Recovery_model.model_sym sym_rp) in
  canon_properties "recovery"
    (sample (module M) 150)
    ~canonicalize:(Mc.Recovery_model.canonicalize sym_rp)
    ~apply_perm:(Mc.Recovery_model.apply_perm sym_rp)
    ~mappings:(Mc.Symmetry.mappings (Mc.Recovery_model.movable sym_rp))
    ~invariant:M.invariant ~goal:M.goal

let test_canon_identity_on_2c () =
  (* with two caches there are no interchangeable nodes: the reduced
     run must equal the unreduced run exactly *)
  let m = Mc.Token_model.distributed micro in
  check_same_stats "2c sym==nosym" (run (unreduced m) ()) (run m ());
  Alcotest.(check bool) "movable empty" true (Mc.Token_model.movable micro = [])

let test_canon_reduces_4c () =
  (* with two interchangeable caches the reduction must shrink the
     graph (and never grow it), preserving the verdicts *)
  let m = Mc.Token_model.safety sym_tp in
  let off = run (unreduced m) () in
  let on = run m () in
  Alcotest.(check bool) "reduced is strictly smaller" true
    (on.Mc.Explore.states < off.Mc.Explore.states);
  Alcotest.(check bool) "same verdict" true
    (off.Mc.Explore.violation = None && on.Mc.Explore.violation = None);
  Alcotest.(check bool) "both closed" true
    ((not on.Mc.Explore.truncated) && not off.Mc.Explore.truncated)

(* A symmetric toy model with a planted violation: the engine must find
   the same violation at the same depth with and without reduction. *)
let pair_model ~bound ~bug_sum : (module Mc.Explore.MODEL) =
  (module struct
    type state = int * int

    let name = "pair"
    let initial = [ (0, 0) ]

    let next (a, b) =
      (if a < bound then [ ("incA", (a + 1, b)) ] else [])
      @ if b < bound then [ ("incB", (a, b + 1)) ] else []

    let invariant (a, b) = if a + b = bug_sum then Error "bad sum" else Ok ()
    let goal (a, b) = a = bound && b = bound
    let pp fmt (a, b) = Format.fprintf fmt "(%d,%d)" a b
    let canonicalize (a, b) = if a <= b then (a, b) else (b, a)
  end)

let test_canon_preserves_violation () =
  let m = pair_model ~bound:6 ~bug_sum:5 in
  let off = run (unreduced m) () in
  let on = run m () in
  (match (off.Mc.Explore.violation, on.Mc.Explore.violation) with
  | Some (r1, t1), Some (r2, t2) ->
    Alcotest.(check string) "same reason" r1 r2;
    Alcotest.(check int) "same depth" (List.length t1) (List.length t2)
  | _ -> Alcotest.fail "violation lost by reduction");
  Alcotest.(check bool) "reduced graph is smaller" true
    (on.Mc.Explore.states < off.Mc.Explore.states)

let test_symmetry_helpers () =
  let perms = Mc.Symmetry.permutations [ 1; 2; 3 ] in
  Alcotest.(check int) "3! orderings" 6 (List.length perms);
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare perms));
  let maps = Mc.Symmetry.mappings [ 4; 7 ] in
  Alcotest.(check bool) "identity included" true
    (List.exists (fun f -> f 4 = 4 && f 7 = 7) maps);
  Alcotest.(check bool) "swap included" true
    (List.exists (fun f -> f 4 = 7 && f 7 = 4) maps);
  Alcotest.(check bool) "fixes others" true (List.for_all (fun f -> f 0 = 0 && f 9 = 9) maps)

let tests =
  [
    Alcotest.test_case "explorer counts a line graph" `Quick test_explorer_counts;
    Alcotest.test_case "explorer reports shortest violating trace" `Quick
      test_explorer_finds_violation;
    Alcotest.test_case "explorer truncation guard" `Quick test_explorer_truncation;
    Alcotest.test_case "doomed-state detection" `Quick test_doomed_detection;
    Alcotest.test_case "token safety substrate verifies" `Quick test_token_safety_model;
    Alcotest.test_case "token distributed activation verifies" `Slow test_token_dst_model;
    Alcotest.test_case "token arbiter activation verifies" `Slow test_token_arb_model;
    Alcotest.test_case "flat directory model verifies" `Quick test_dir_model;
    Alcotest.test_case "token recreation substrate verifies" `Quick test_recovery_model;
    Alcotest.test_case "activation variants both close" `Slow test_dst_cheaper_than_arb;
    Alcotest.test_case "safety-only model is smallest" `Slow test_safety_model_smallest;
    Alcotest.test_case "model LoC metric" `Quick test_model_loc_metric;
    Alcotest.test_case "exact-mode stats pinned (small models)" `Quick
      test_exact_stats_pinned_small;
    Alcotest.test_case "exact-mode stats pinned (big models)" `Slow test_exact_stats_pinned_big;
    Alcotest.test_case "flat directory 3c closes at cap 3" `Slow test_dir_3c_closes;
    Alcotest.test_case "deep violation path renders every state" `Quick
      test_deep_violation_path;
    Alcotest.test_case "equal states intern once, however shared" `Quick
      test_equal_states_share_bytes;
    Alcotest.test_case "states sharing a hash key stay distinct" `Quick
      test_shared_hash_keys_stay_distinct;
    Alcotest.test_case "cursor expands states in discovery order" `Quick
      test_cursor_expands_in_discovery_order;
    Alcotest.test_case "mc_failed: a violation or a doomed state" `Quick test_mc_failed_rule;
    Alcotest.test_case "model_checking rows in report order" `Quick test_model_checking_rows;
    Alcotest.test_case "canonicalization properties (token)" `Quick test_canon_properties_token;
    Alcotest.test_case "canonicalization properties (directory)" `Quick
      test_canon_properties_dir;
    Alcotest.test_case "canonicalization properties (recovery)" `Quick
      test_canon_properties_recovery;
    Alcotest.test_case "canonicalize is identity on 2-cache configs" `Slow
      test_canon_identity_on_2c;
    Alcotest.test_case "symmetry shrinks a 4-cache graph" `Quick test_canon_reduces_4c;
    Alcotest.test_case "reduction preserves violations" `Quick test_canon_preserves_violation;
    Alcotest.test_case "symmetry helpers" `Quick test_symmetry_helpers;
    Alcotest.test_case "truncated run checks every counted state" `Quick
      test_truncated_run_checks_counted_states;
  ]
