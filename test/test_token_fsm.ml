(* Transaction-level tests of the TokenCMP protocol: canonical token
   flows observed through counters and the debug introspection. *)

let tiny = Mcmp.Config.tiny

type rig = {
  engine : Sim.Engine.t;
  counters : Mcmp.Counters.t;
  handle : Mcmp.Protocol.handle;
  debug : Token.Protocol.debug;
  layout : Interconnect.Layout.t;
}

let make_rig ?(policy = Token.Policy.dst1) ?(config = tiny) () =
  let engine = Sim.Engine.create () in
  let counters = Mcmp.Counters.create () in
  let { Token.Protocol.i_handle = handle; i_debug = debug; _ } =
    Token.Protocol.create_instrumented policy engine config
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 123) counters
  in
  { engine; counters; handle; debug; layout = Mcmp.Config.layout config }

let access rig ~proc ~kind addr =
  let done_ = ref false in
  rig.handle.Mcmp.Protocol.access ~proc ~kind addr ~commit:(fun () -> done_ := true);
  Sim.Engine.run ~max_events:1_000_000 rig.engine;
  Alcotest.(check bool) "access completed" true !done_

let block = 6000
let l1d rig proc = Interconnect.Layout.l1d_of_proc rig.layout proc

let quiesce rig = Sim.Engine.run ~max_events:1_000_000 rig.engine

let test_write_collects_all_tokens () =
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  Alcotest.(check int) "writer holds all tokens" rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 0) block);
  Alcotest.(check bool) "writer holds the owner token" true
    (rig.debug.Token.Protocol.node_owner (l1d rig 0) block)

let test_read_leaves_tokens_at_memory () =
  (* an uncached read takes everything (directory-E analogue) *)
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Read block;
  Alcotest.(check int) "reader got all tokens" rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 0) block)

let test_sharers_split_tokens () =
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  access rig ~proc:1 ~kind:Mcmp.Protocol.Read block;
  quiesce rig;
  (* after a local read of dirty data the tokens moved (migratory) or
     split; either way conservation holds and both can read *)
  let total =
    rig.debug.Token.Protocol.token_count block + rig.debug.Token.Protocol.inflight_count block
  in
  Alcotest.(check int) "conservation" rig.debug.Token.Protocol.total_tokens total

let test_migratory_dirty_read_moves_everything () =
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  access rig ~proc:2 ~kind:Mcmp.Protocol.Read block;
  quiesce rig;
  Alcotest.(check int) "migratory grab: reader holds all tokens"
    rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 2) block);
  Alcotest.(check int) "old writer holds none" 0
    (rig.debug.Token.Protocol.node_tokens (l1d rig 0) block)

let test_non_migratory_splits () =
  let config = { tiny with Mcmp.Config.migratory = false } in
  let rig = make_rig ~config () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  access rig ~proc:2 ~kind:Mcmp.Protocol.Read block;
  quiesce rig;
  let reader = rig.debug.Token.Protocol.node_tokens (l1d rig 2) block in
  let writer = rig.debug.Token.Protocol.node_tokens (l1d rig 0) block in
  Alcotest.(check bool) "reader has some tokens" true (reader >= 1);
  Alcotest.(check bool) "writer keeps some tokens" true (writer >= 1);
  Alcotest.(check bool) "writer keeps ownership" true
    (rig.debug.Token.Protocol.node_owner (l1d rig 0) block)

let test_second_writer_reclaims () =
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  access rig ~proc:1 ~kind:Mcmp.Protocol.Read block;
  access rig ~proc:3 ~kind:Mcmp.Protocol.Write block;
  quiesce rig;
  Alcotest.(check int) "new writer holds everything"
    rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 3) block);
  Alcotest.(check int) "no tokens left behind" 0
    (rig.debug.Token.Protocol.node_tokens (l1d rig 0) block
    + rig.debug.Token.Protocol.node_tokens (l1d rig 1) block)

let test_persistent_only_write () =
  let rig = make_rig ~policy:Token.Policy.dst0 () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  Alcotest.(check int) "went persistent" 1 rig.counters.Mcmp.Counters.persistent_requests;
  Alcotest.(check int) "writer satisfied" rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 0) block);
  quiesce rig;
  Alcotest.(check int) "tables drained" 0 (rig.debug.Token.Protocol.persistent_entries ())

let test_arbiter_persistent_write () =
  let rig = make_rig ~policy:Token.Policy.arb0 () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  access rig ~proc:2 ~kind:Mcmp.Protocol.Write block;
  quiesce rig;
  Alcotest.(check int) "two persistent requests" 2
    rig.counters.Mcmp.Counters.persistent_requests;
  Alcotest.(check int) "handoff complete" rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.node_tokens (l1d rig 2) block);
  Alcotest.(check int) "tables drained" 0 (rig.debug.Token.Protocol.persistent_entries ())

let test_eviction_returns_tokens () =
  let rig = make_rig () in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write block;
  (* conflict-evict: tiny L1 has 16 sets, same set every 16 blocks *)
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write (block + 16);
  access rig ~proc:0 ~kind:Mcmp.Protocol.Write (block + 32);
  quiesce rig;
  Alcotest.(check bool) "writeback happened" true
    (rig.counters.Mcmp.Counters.writebacks >= 1);
  Alcotest.(check int) "tokens conserved through eviction"
    rig.debug.Token.Protocol.total_tokens
    (rig.debug.Token.Protocol.token_count block + rig.debug.Token.Protocol.inflight_count block);
  (* the evicted block's tokens sit at the home L2 bank now; a re-read
     fills locally *)
  let fills = rig.counters.Mcmp.Counters.l2_local_fills in
  access rig ~proc:0 ~kind:Mcmp.Protocol.Read block;
  Alcotest.(check bool) "refill from the local L2" true
    (rig.counters.Mcmp.Counters.l2_local_fills > fills)

(* The substrate's transfer guards, each tripped directly on a tiny
   machine. [home] holds all T tokens of [block] and the owner token;
   nothing is delivered, since the engine never runs. *)
module S = Token.Substrate

let guard_cases =
  let all = tiny.Mcmp.Config.tokens in
  [
    ("empty-token-message", fun give _ -> give ~count:0 ~owner:false ~data:false);
    ("owner-without-data", fun give _ -> give ~count:1 ~owner:true ~data:false);
    ("token-overdraw", fun give _ -> give ~count:(all + 1) ~owner:false ~data:true);
    ( "phantom-owner",
      fun give _ ->
        give ~count:1 ~owner:true ~data:true;
        give ~count:1 ~owner:true ~data:true );
    ("negative-inflight", fun _ receive -> receive ~count:1 ~owner:false);
    ( "negative-inflight-owner",
      fun give receive ->
        give ~count:1 ~owner:false ~data:true;
        receive ~count:1 ~owner:true );
  ]

let substrate () =
  let engine = Sim.Engine.create () in
  let layout = Mcmp.Config.layout tiny in
  let fabric =
    Interconnect.Fabric.create engine layout tiny.Mcmp.Config.fabric
      (Interconnect.Traffic.create ())
      (Sim.Rng.create 5)
  in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ _ -> ());
  (S.create ~recovery:false tiny fabric (Mcmp.Counters.create ()), layout)

let test_guard (kind, trip) () =
  let s, layout = substrate () in
  let home = S.home_mem s block and l1 = Interconnect.Layout.l1d_of_proc layout 0 in
  let give ~count ~owner ~data =
    match S.find s home block with
    | Some line ->
      S.give s ~src:home ~dst:l1 block line ~count ~owner ~data ~dirty:false ~writeback:false
    | None -> Alcotest.fail "no home line"
  in
  let receive ~count ~owner =
    ignore (S.receive s l1 block ~count ~owner ~data:true ~dirty:false ~epoch:0)
  in
  match trip give receive with
  | exception Mcmp.Violation.Invariant_violation v ->
    Alcotest.(check string) "violation kind" kind v.Mcmp.Violation.kind
  | () -> Alcotest.failf "%s: no violation raised" kind

(* The audit counts, per block, every node's tokens in one walk, and a
   block whose home controller never stored its line still holds
   memory's implicit full line there. Every protocol path stores the
   home line before tokens leave it, so only a transfer charged to
   another block's line reaches that state: one token of [other] goes
   in flight out of [block]'s home line. [other] then holds T at its
   home and one in flight, one too many, with its one owner token at
   home; [block]'s home is one short. *)
let test_audit_counts_implicit_line () =
  let s, layout = substrate () in
  let other = block + 1 in
  let home = S.home_mem s block and l1 = Interconnect.Layout.l1d_of_proc layout 0 in
  Alcotest.(check bool) "another home" true (S.home_mem s other <> home);
  (match S.find s home block with
  | Some line ->
    S.give s ~src:home ~dst:l1 other line ~count:1 ~owner:false ~data:true ~dirty:false
      ~writeback:false
  | None -> Alcotest.fail "no home line");
  let all = tiny.Mcmp.Config.tokens in
  Alcotest.(check (list (pair string string)))
    "one violation per block, the implicit line counted"
    [
      ("token-conservation", Printf.sprintf "held %d + in-flight 0 <> T = %d" (all - 1) all);
      ("token-conservation", Printf.sprintf "held %d + in-flight 1 <> T = %d" all all);
    ]
    (List.sort compare
       (List.map
          (fun v -> (v.Mcmp.Violation.kind, v.Mcmp.Violation.detail))
          (S.check s)))

let tests =
  List.map
    (fun ((kind, _) as case) ->
      Alcotest.test_case ("substrate guard: " ^ kind) `Quick (test_guard case))
    guard_cases
  @ [
    Alcotest.test_case "write collects all tokens" `Quick test_write_collects_all_tokens;
    Alcotest.test_case "uncached read gets everything" `Quick
      test_read_leaves_tokens_at_memory;
    Alcotest.test_case "conservation across sharing" `Quick test_sharers_split_tokens;
    Alcotest.test_case "migratory dirty read moves all tokens" `Quick
      test_migratory_dirty_read_moves_everything;
    Alcotest.test_case "non-migratory read splits tokens" `Quick test_non_migratory_splits;
    Alcotest.test_case "second writer reclaims every token" `Quick test_second_writer_reclaims;
    Alcotest.test_case "persistent-only write (dst0)" `Quick test_persistent_only_write;
    Alcotest.test_case "arbiter persistent handoff" `Quick test_arbiter_persistent_write;
    Alcotest.test_case "eviction writes tokens back" `Quick test_eviction_returns_tokens;
    Alcotest.test_case "audit counts memory's implicit line" `Quick
      test_audit_counts_implicit_line;
  ]
