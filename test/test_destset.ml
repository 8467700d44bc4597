module DS = Interconnect.Destset

let to_l = DS.to_list

let test_of_list_dedup () =
  let s = DS.of_list [ 3; 1; 3; 2; 1 ] in
  Alcotest.(check (list int)) "sorted unique" [ 1; 2; 3 ] (to_l s);
  Alcotest.(check int) "cardinal" 3 (DS.cardinal s);
  Alcotest.(check bool) "mem" true (DS.mem 2 s);
  Alcotest.(check bool) "not mem" false (DS.mem 4 s)

let test_word_boundaries () =
  (* Ids straddling the 63-bit word seams must behave like any other:
     the multi-word representation has no boundary at 63 anymore. *)
  let seam = [ 62; 63; 125; 126; 188; 189 ] in
  let s = DS.of_list seam in
  Alcotest.(check (list int)) "seam content" seam (to_l s);
  Alcotest.(check int) "seam words" 4 (DS.nwords s);
  List.iter (fun i -> Alcotest.(check bool) "seam mem" true (DS.mem i s)) seam;
  Alcotest.(check bool) "seam holes" false (DS.mem 64 s);
  (* removing the sole top-word bit must shrink the canonical form so
     [equal] sees structurally equal arrays *)
  let t = DS.remove 189 (DS.remove 188 s) in
  Alcotest.(check int) "trimmed words" 3 (DS.nwords t);
  Alcotest.(check bool) "trim equals rebuild" true
    (DS.equal t (DS.of_list [ 62; 63; 125; 126 ]));
  Alcotest.(check bool) "mixed sizes equal" false (DS.equal t s)

let test_add_remove_union () =
  let s = DS.add 4 (DS.singleton 9) in
  Alcotest.(check (list int)) "add" [ 4; 9 ] (to_l s);
  Alcotest.(check (list int)) "remove" [ 9 ] (to_l (DS.remove 4 s));
  Alcotest.(check (list int)) "remove absent" [ 4; 9 ] (to_l (DS.remove 7 s));
  Alcotest.(check (list int)) "union" [ 1; 4; 9 ] (to_l (DS.union s (DS.singleton 1)));
  Alcotest.(check bool) "empty" true (DS.is_empty DS.empty);
  (* remove of an absent id returns the set physically unchanged — the
     protocols lean on this to keep hot-path removes allocation-free *)
  Alcotest.(check bool) "remove absent is phys-eq" true (DS.remove 7 s == s);
  Alcotest.(check bool) "remove beyond words is phys-eq" true (DS.remove 200 s == s)

let test_of_bitfield () =
  Alcotest.(check (list int)) "shifted bits" [ 10; 12 ]
    (to_l (DS.of_bitfield ~bits:0b101 ~base:10));
  Alcotest.(check bool) "empty bits" true (DS.is_empty (DS.of_bitfield ~bits:0 ~base:10));
  (* bits straddling the first word seam splice into two words *)
  let s = DS.of_bitfield ~bits:0b11 ~base:62 in
  Alcotest.(check (list int)) "seam bits" [ 62; 63 ] (to_l s);
  Alcotest.(check (list int)) "high seam bits" [ 125; 126; 127 ]
    (to_l (DS.of_bitfield ~bits:0b111 ~base:125))

let test_bit_iteration () =
  let asc = ref [] and desc = ref [] in
  DS.iter_bits_asc (fun i -> asc := i :: !asc) 0b101010;
  DS.iter_bits_desc (fun i -> desc := i :: !desc) 0b101010;
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] (List.rev !asc);
  Alcotest.(check (list int)) "descending" [ 5; 3; 1 ] (List.rev !desc);
  Alcotest.(check int) "lsb" 0b10 (DS.lsb 0b101010);
  Alcotest.(check int) "msb" 0b100000 (DS.msb 0b101010);
  Alcotest.(check int) "bit_index" 5 (DS.bit_index 0b100000)

(* Every position of a word, the sign bit (62) included, isolated and
   among other bits: what the send loops and the iterators read. *)
let test_bit_index_all_positions () =
  for i = 0 to DS.word_bits - 1 do
    let b = 1 lsl i in
    Alcotest.(check int) (Printf.sprintf "bit_index (1 lsl %d)" i) i (DS.bit_index b);
    Alcotest.(check int) (Printf.sprintf "lsb at %d" i) i (DS.bit_index (DS.lsb (b lor (1 lsl 62))));
    Alcotest.(check int) (Printf.sprintf "msb at %d" i) i (DS.bit_index (DS.msb (b lor 1)))
  done;
  let desc = ref [] in
  DS.iter_bits_desc (fun i -> desc := i :: !desc) ((1 lsl 62) lor 1);
  Alcotest.(check (list int)) "sign bit iterates" [ 0; 62 ] !desc

(* ---- Differential model suite: Destset vs sorted-unique int lists ----

   The reference model is the representation the pre-multi-word Destset
   used for its Wide fallback: a sorted list of unique ids. Every op is
   checked against the list semantics across ids 0..260, so all word
   counts from 1 to 5 (and the seams between them) get exercised. *)

module Model = struct
  let of_list l = List.sort_uniq compare l
  let mem i m = List.mem i m
  let add i m = of_list (i :: m)
  let remove i m = List.filter (fun j -> j <> i) m
  let union a b = of_list (a @ b)
  let cardinal = List.length
end

let gen_ids = QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 260))

let prop_model_of_list =
  QCheck.Test.make ~name:"of_list/to_list/cardinal match model (ids 0-260)"
    ~count:300 gen_ids (fun ids ->
      let s = DS.of_list ids and m = Model.of_list ids in
      to_l s = m
      && DS.cardinal s = Model.cardinal m
      && List.for_all (fun i -> DS.mem i s = Model.mem i m) (List.init 261 Fun.id))

let prop_model_add_remove =
  QCheck.Test.make ~name:"add/remove match model (ids 0-260)" ~count:300
    QCheck.(pair gen_ids (small_list (int_range 0 260)))
    (fun (ids, ops) ->
      let s = ref (DS.of_list ids) and m = ref (Model.of_list ids) in
      List.iteri
        (fun k i ->
          if k land 1 = 0 then begin
            s := DS.add i !s;
            m := Model.add i !m
          end
          else begin
            s := DS.remove i !s;
            m := Model.remove i !m
          end)
        ops;
      to_l !s = !m && DS.equal !s (DS.of_list !m))

let prop_model_union =
  QCheck.Test.make ~name:"union matches model (ids 0-260)" ~count:300
    QCheck.(pair gen_ids gen_ids)
    (fun (a, b) ->
      to_l (DS.union (DS.of_list a) (DS.of_list b))
      = Model.union (Model.of_list a) (Model.of_list b))

let prop_model_iteration =
  QCheck.Test.make ~name:"iter ascending, iter_desc descending (ids 0-260)"
    ~count:300 gen_ids (fun ids ->
      let s = DS.of_list ids and m = Model.of_list ids in
      let asc = ref [] in
      DS.iter (fun i -> asc := i :: !asc) s;
      let desc = ref [] in
      DS.iter_desc (fun i -> desc := i :: !desc) s;
      List.rev !asc = m && !desc = m)

let prop_model_bitfield =
  QCheck.Test.make ~name:"of_bitfield matches shifted model (any base)"
    ~count:300
    QCheck.(pair (int_range 0 200) (int_range 0 0xFFFF))
    (fun (base, bits) ->
      let expect = ref [] in
      for b = 16 downto 0 do
        if bits land (1 lsl b) <> 0 then expect := (base + b) :: !expect
      done;
      to_l (DS.of_bitfield ~bits ~base) = !expect)

(* ---- Fabric send_set behavior ---- *)

let make_fabric layout =
  let engine = Sim.Engine.create () in
  let traffic = Interconnect.Traffic.create () in
  let params = { Interconnect.Fabric.default_params with jitter = 0 } in
  let fabric = Interconnect.Fabric.create engine layout params traffic (Sim.Rng.create 1) in
  (engine, traffic, fabric)

let layout4 () = Interconnect.Layout.create ~ncmp:4 ~procs_per_cmp:4 ~banks_per_cmp:4

(* 8 CMPs x (8 L1 + 4 L2 + mem) = 104 nodes: spans two destset words. *)
let layout_big () = Interconnect.Layout.create ~ncmp:8 ~procs_per_cmp:4 ~banks_per_cmp:4

(* 16 CMPs x 16 procs: 592 nodes over 10 words — server scale. *)
let layout_huge () = Interconnect.Layout.create ~ncmp:16 ~procs_per_cmp:16 ~banks_per_cmp:4

let test_send_set_excludes_src () =
  let l = layout4 () in
  let engine, _, fabric = make_fabric l in
  let deliveries = ref [] in
  Interconnect.Fabric.set_handler fabric (fun ~dst () -> deliveries := dst :: !deliveries);
  let src = Interconnect.Layout.l1d l ~cmp:0 ~proc:0 in
  Interconnect.Fabric.send_set fabric ~src ~dsts:(DS.of_list [ src; src + 1; src + 2 ])
    ~cls:Interconnect.Msg_class.Request ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "self excluded" [ src + 1; src + 2 ]
    (List.sort compare !deliveries)

let test_send_set_local_remote_split () =
  let l = layout4 () in
  let engine, traffic, fabric = make_fabric l in
  let deliveries = ref 0 in
  Interconnect.Fabric.set_handler fabric (fun ~dst:_ () -> incr deliveries);
  let src = Interconnect.Layout.l2 l ~cmp:0 ~bank:0 in
  (* 2 local L1s + all 8 L1s of chip 2: the remote site's link must be
     crossed once, locals stay on-chip. *)
  let dsts =
    DS.union
      (DS.of_list [ src - 2; src - 1 ])
      (Interconnect.Layout.l1s_of_cmp_set l 2)
  in
  Interconnect.Fabric.send_set fabric ~src ~dsts ~cls:Interconnect.Msg_class.Request
    ~bytes:8 ();
  Sim.Engine.run engine;
  Alcotest.(check int) "deliveries" 10 !deliveries;
  Alcotest.(check int) "one link crossing" 8 (Interconnect.Traffic.inter_total traffic);
  (* 2 local copies + exit hop + 8 remote entry hops *)
  Alcotest.(check int) "intra hops" (8 * 11) (Interconnect.Traffic.intra_total traffic)

(* ---- Fabric send paths against the reference model ---- *)

(* What one run of timed sends shows: every copy as a sorted
   (msg, dst, arrival) triple, the traffic and busy-time charges, and
   the jitter stream's next value (equal only if both sides drew the
   same number of values). *)
type observed = {
  copies : (int * int * Sim.Time.t) list;
  intra : int;
  inter : int;
  port_busy : Sim.Time.t;
  link_busy : Sim.Time.t;
  next_draw : int;
}

let next_draw rng = Sim.Rng.int rng 1_000_000_000

(* Every comparison runs with the default 500 ps jitter, so the order
   of the jitter draws is part of what is compared. *)
let params = Interconnect.Fabric.default_params

(* The registry reports busy time in float ns. *)
let ps_of_ns x = Sim.Time.ps (Float.to_int (Float.round (x *. 1000.)))

(* Issue each [(time, src, dsts)] send at [time] through [send] on a
   fresh fabric, with a metrics registry attached to read the port and
   link busy totals back. *)
let run_fabric layout send sends =
  let engine = Sim.Engine.create () in
  let registry = Obs.Registry.create () in
  Obs.Registry.attach registry engine;
  let traffic = Interconnect.Traffic.create () in
  let rng = Sim.Rng.create 1 in
  let fabric = Interconnect.Fabric.create engine layout params traffic rng in
  let log = ref [] in
  Interconnect.Fabric.set_handler fabric (fun ~dst msg ->
      log := (msg, dst, Sim.Engine.now engine) :: !log);
  List.iteri
    (fun i (time, src, dsts) ->
      Sim.Engine.schedule_at engine time (fun () -> send fabric ~src ~dsts i))
    sends;
  Sim.Engine.run engine;
  let gauge name = List.assoc name (Obs.Registry.gauges registry) in
  {
    copies = List.sort compare !log;
    intra = Interconnect.Traffic.intra_total traffic;
    inter = Interconnect.Traffic.inter_total traffic;
    port_busy = ps_of_ns (gauge "fabric.port_busy_ns");
    link_busy = ps_of_ns (gauge "fabric.link_busy_ns");
    next_draw = next_draw rng;
  }

let via_set fabric ~src ~dsts msg =
  Interconnect.Fabric.send_set fabric ~src ~dsts:(DS.of_list dsts)
    ~cls:Interconnect.Msg_class.Request ~bytes:8 msg

let via_one fabric ~src ~dsts msg =
  match dsts with
  | [ dst ] ->
    Interconnect.Fabric.send_one fabric ~src ~dst ~cls:Interconnect.Msg_class.Request
      ~bytes:8 msg
  | _ -> invalid_arg "via_one: one destination"

let run_ref layout sends =
  let rng = Sim.Rng.create 1 in
  let m = Fabric_ref.create layout params rng in
  (* the engine runs same-time sends in issue order; List.stable_sort keeps it *)
  List.iter
    (fun (i, (now, src, dsts)) -> Fabric_ref.send m ~now ~src ~dsts ~bytes:8 i)
    (List.stable_sort
       (fun (_, (a, _, _)) (_, (b, _, _)) -> compare a b)
       (List.mapi (fun i x -> (i, x)) sends));
  {
    copies = List.sort compare m.Fabric_ref.copies;
    intra = m.Fabric_ref.intra;
    inter = m.Fabric_ref.inter;
    port_busy = m.Fabric_ref.port_total;
    link_busy = m.Fabric_ref.link_total;
    next_draw = next_draw rng;
  }

(* 8 ps apart, so later sends meet ports and links still busy. *)
let staggered sends = List.mapi (fun i (src, dsts) -> (8 * i, src, dsts)) sends

let test_multiword_layout () =
  (* On a 104-node layout destsets span two words. *)
  let l = layout_big () in
  Alcotest.(check bool) "layout exceeds one word" true
    (Interconnect.Layout.node_count l > DS.word_bits);
  let sends =
    staggered
      [ (0, [ 1; 2; 70; 103; 70 ]); (99, [ 0; 5; 99; 101 ]); (64, List.init 20 (fun i -> i * 5)) ]
  in
  Alcotest.(check bool) "two-word layout matches the reference" true
    (run_fabric l via_set sends = run_ref l sends)

let test_huge_layout () =
  (* 592 nodes (16 CMPs x 16 cores): destsets run 10 words deep, and a
     full broadcast exercises every site loop. *)
  let l = layout_huge () in
  let n = Interconnect.Layout.node_count l in
  Alcotest.(check int) "node count" 592 n;
  let sends =
    staggered
      [ (0, List.init n Fun.id); (591, List.init 60 (fun i -> i * 9)); (300, [ 1; 64; 127; 128; 500 ]) ]
  in
  Alcotest.(check bool) "592-node broadcast matches the reference" true
    (run_fabric l via_set sends = run_ref l sends)

let gen_sends ~nodes ~max_dsts =
  QCheck.(
    list_of_size (Gen.int_range 1 15)
      (triple (int_range 0 3000) (int_range 0 (nodes - 1))
         (list_of_size (Gen.int_range 0 max_dsts) (int_range 0 (nodes - 1)))))

let prop_send_set_ref =
  QCheck.Test.make ~name:"send_set = reference on random sends (4 CMPs, jitter on)" ~count:100
    (gen_sends ~nodes:52 ~max_dsts:12)
    (fun sends ->
      let l = layout4 () in
      run_fabric l via_set sends = run_ref l sends)

let prop_send_set_ref_multiword =
  (* A 2-CMP layout whose 74 nodes straddle a word seam: multi-word
     iteration must not reorder the rng draws. *)
  QCheck.Test.make ~name:"send_set = reference across the word seam (jitter on)" ~count:100
    (gen_sends ~nodes:74 ~max_dsts:12)
    (fun sends ->
      let l = Interconnect.Layout.create ~ncmp:2 ~procs_per_cmp:16 ~banks_per_cmp:4 in
      run_fabric l via_set sends = run_ref l sends)

(* The 52-, 104-, 272- and 592-node machines. *)
let one_node_layouts =
  [|
    layout4 ();
    layout_big ();
    Interconnect.Layout.create ~ncmp:16 ~procs_per_cmp:6 ~banks_per_cmp:4;
    layout_huge ();
  |]

let prop_send_one_is_send_set =
  QCheck.Test.make ~name:"send_one = send_set on one-node sets (52-592 nodes, jitter on)"
    ~count:100
    QCheck.(
      pair (int_range 0 3)
        (list_of_size (Gen.int_range 1 40)
           (triple (int_range 0 3000) (int_range 0 591) (int_range 0 590))))
    (fun (li, raw) ->
      let l = one_node_layouts.(li) in
      let n = Interconnect.Layout.node_count l in
      let sends =
        List.map
          (fun (time, s, d) ->
            let src = s mod n in
            (time, src, [ (src + 1 + (d mod (n - 1))) mod n ]))
          raw
      in
      run_fabric l via_one sends = run_fabric l via_set sends)

(* Parked copies against the reference: every copy of every send
   parks (the parking test answers every key with all nodes), and at
   one instant after the last send and before the first arrival each
   node is woken for the key, so every copy is rescheduled at its
   arrival and runs. The arrivals, the traffic and busy-time charges
   and the jitter stream must be the reference's, which schedules
   every copy. Sends are issued in the first 2 ns; no copy arrives
   sooner than [min_cache_latency] (2.125 ns) after its send. Without
   the wake no copy runs at all, so every copy did park. *)
let wake_at = 2_000

let run_parked ~wake layout sends =
  let engine = Sim.Engine.create () in
  let registry = Obs.Registry.create () in
  Obs.Registry.attach registry engine;
  let traffic = Interconnect.Traffic.create () in
  let rng = Sim.Rng.create 1 in
  let fabric = Interconnect.Fabric.create engine layout params traffic rng in
  let n = Interconnect.Layout.node_count layout in
  let all = DS.unsafe_words (DS.of_list (List.init n Fun.id)) in
  Interconnect.Fabric.set_parkable fabric (fun _ _ -> all);
  let log = ref [] in
  Interconnect.Fabric.set_handler fabric (fun ~dst msg ->
      log := (msg, dst, Sim.Engine.now engine) :: !log);
  List.iteri
    (fun i (time, src, dsts) ->
      Sim.Engine.schedule_at engine time (fun () ->
          Interconnect.Fabric.send_set_parkable fabric ~park:7 ~src ~dsts:(DS.of_list dsts)
            ~cls:Interconnect.Msg_class.Request ~bytes:8 i))
    sends;
  if wake then
    Sim.Engine.schedule_at engine wake_at (fun () ->
        for dst = 0 to n - 1 do
          Interconnect.Fabric.wake fabric ~dst ~key:7
        done);
  Sim.Engine.run engine;
  let gauge name = List.assoc name (Obs.Registry.gauges registry) in
  {
    copies = List.sort compare !log;
    intra = Interconnect.Traffic.intra_total traffic;
    inter = Interconnect.Traffic.inter_total traffic;
    port_busy = ps_of_ns (gauge "fabric.port_busy_ns");
    link_busy = ps_of_ns (gauge "fabric.link_busy_ns");
    next_draw = next_draw rng;
  }

(* The 52-node machine (one destset word) and the 136-node one of 8
   CMPs x 6 cores (three words). *)
let parked_layouts =
  [| layout4 (); Interconnect.Layout.create ~ncmp:8 ~procs_per_cmp:6 ~banks_per_cmp:4 |]

let prop_parked_ref =
  QCheck.Test.make
    ~name:"parked send_set_parkable, all woken at once = reference (52 and 136 nodes)"
    ~count:100
    QCheck.(
      pair (int_range 0 1)
        (list_of_size (Gen.int_range 1 15)
           (triple (int_range 0 wake_at) (int_range 0 135)
              (list_of_size (Gen.int_range 0 40) (int_range 0 135)))))
    (fun (li, raw) ->
      let l = parked_layouts.(li) in
      let n = Interconnect.Layout.node_count l in
      let sends =
        List.map (fun (time, s, ds) -> (time, s mod n, List.map (fun d -> d mod n) ds)) raw
      in
      run_parked ~wake:true l sends = run_ref l sends
      && (run_parked ~wake:false l sends).copies = [])

let tests =
  [
    Alcotest.test_case "of_list dedups and sorts" `Quick test_of_list_dedup;
    Alcotest.test_case "word-seam ids and canonical trim" `Quick test_word_boundaries;
    Alcotest.test_case "add/remove/union" `Quick test_add_remove_union;
    Alcotest.test_case "of_bitfield" `Quick test_of_bitfield;
    Alcotest.test_case "bit iteration helpers" `Quick test_bit_iteration;
    Alcotest.test_case "bit_index on all 63 positions" `Quick test_bit_index_all_positions;
    QCheck_alcotest.to_alcotest prop_model_of_list;
    QCheck_alcotest.to_alcotest prop_model_add_remove;
    QCheck_alcotest.to_alcotest prop_model_union;
    QCheck_alcotest.to_alcotest prop_model_iteration;
    QCheck_alcotest.to_alcotest prop_model_bitfield;
    Alcotest.test_case "send_set excludes source" `Quick test_send_set_excludes_src;
    Alcotest.test_case "send_set local/remote split" `Quick test_send_set_local_remote_split;
    Alcotest.test_case "two-word layout matches the reference" `Quick test_multiword_layout;
    Alcotest.test_case "592-node layout matches the reference" `Quick test_huge_layout;
    QCheck_alcotest.to_alcotest prop_send_set_ref;
    QCheck_alcotest.to_alcotest prop_send_set_ref_multiword;
    QCheck_alcotest.to_alcotest prop_send_one_is_send_set;
    QCheck_alcotest.to_alcotest prop_parked_ref;
  ]
