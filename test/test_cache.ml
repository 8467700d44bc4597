(* Addr mapping and the set-associative array. *)

let test_addr_roundtrip () =
  Alcotest.(check int) "block of byte" 2 (Cache.Addr.of_byte_address 140);
  Alcotest.(check int) "byte of block" 128 (Cache.Addr.to_byte_address 2)

let test_addr_homes () =
  (* home CMPs cycle with block interleaving *)
  let homes = List.init 8 (fun a -> Cache.Addr.home_cmp ~ncmp:4 a) in
  Alcotest.(check (list int)) "interleaved" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes

let test_addr_banks () =
  let a = 0x1234 in
  let b = Cache.Addr.l2_bank ~nbanks:4 a in
  Alcotest.(check bool) "bank in range" true (b >= 0 && b < 4);
  (* bank choice must not be a function of the home CMP alone *)
  let banks = List.init 64 (fun a -> Cache.Addr.l2_bank ~nbanks:4 (a * 4)) in
  Alcotest.(check bool) "banks vary" true (List.exists (fun b -> b <> List.hd banks) banks)

let test_sarray_insert_find () =
  let s = Cache.Sarray.create ~sets:4 ~ways:2 in
  Cache.Sarray.insert s 10 "a";
  Cache.Sarray.insert s 20 "b";
  Alcotest.(check (option string)) "find 10" (Some "a") (Cache.Sarray.find s 10);
  Alcotest.(check (option string)) "find 20" (Some "b") (Cache.Sarray.find s 20);
  Alcotest.(check (option string)) "miss" None (Cache.Sarray.find s 30);
  Alcotest.(check int) "population" 2 (Cache.Sarray.population s)

let test_sarray_lru_victim () =
  let s = Cache.Sarray.create ~sets:1 ~ways:2 in
  Cache.Sarray.insert s 1 "a";
  Cache.Sarray.insert s 2 "b";
  (* no free way: LRU (1) is the victim *)
  Alcotest.(check (option (pair int string))) "victim is LRU" (Some (1, "a"))
    (Cache.Sarray.victim_for s 3);
  (* touching 1 makes 2 the victim *)
  Cache.Sarray.touch s 1;
  Alcotest.(check (option (pair int string))) "victim after touch" (Some (2, "b"))
    (Cache.Sarray.victim_for s 3)

let test_sarray_no_victim_cases () =
  let s = Cache.Sarray.create ~sets:1 ~ways:2 in
  Cache.Sarray.insert s 1 "a";
  Alcotest.(check (option (pair int string))) "free way" None (Cache.Sarray.victim_for s 2);
  Alcotest.(check (option (pair int string))) "already resident" None (Cache.Sarray.victim_for s 1)

let test_sarray_remove () =
  let s = Cache.Sarray.create ~sets:2 ~ways:1 in
  Cache.Sarray.insert s 4 "x";
  Cache.Sarray.remove s 4;
  Alcotest.(check (option string)) "gone" None (Cache.Sarray.find s 4);
  Alcotest.(check int) "population" 0 (Cache.Sarray.population s);
  Cache.Sarray.remove s 4 (* idempotent *)

let test_sarray_full_set_raises () =
  let s = Cache.Sarray.create ~sets:1 ~ways:1 in
  Cache.Sarray.insert s 1 "a";
  Alcotest.check_raises "set full" (Invalid_argument "Sarray.insert: set full") (fun () ->
      Cache.Sarray.insert s 2 "b");
  Alcotest.check_raises "duplicate" (Invalid_argument "Sarray.insert: block already resident")
    (fun () -> Cache.Sarray.insert s 1 "c")

let test_sarray_iter () =
  let s = Cache.Sarray.create ~sets:4 ~ways:4 in
  List.iter (fun a -> Cache.Sarray.insert s a (a * 2)) [ 1; 2; 3; 9 ];
  let sum = ref 0 in
  Cache.Sarray.iter (fun a v -> sum := !sum + a + v) s;
  Alcotest.(check int) "iter visits all" 45 !sum

(* LRU property: under capacity pressure, a re-touched block survives. *)
let prop_lru =
  QCheck.Test.make ~name:"recently touched blocks survive eviction" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 15))
    (fun accesses ->
      let ways = 4 in
      let s = Cache.Sarray.create ~sets:1 ~ways in
      let recent = ref [] in
      List.iter
        (fun a ->
          (match Cache.Sarray.find s a with
          | Some _ -> Cache.Sarray.touch s a
          | None ->
            (match Cache.Sarray.victim_for s a with
            | Some (v, _) -> Cache.Sarray.remove s v
            | None -> ());
            Cache.Sarray.insert s a a);
          recent := a :: List.filter (fun x -> x <> a) !recent;
          if List.length !recent > ways then
            recent := List.filteri (fun i _ -> i < ways) !recent)
        accesses;
      (* the [ways] most recently used distinct blocks must be resident *)
      List.for_all (fun a -> Cache.Sarray.mem s a) !recent)

let prop_population =
  QCheck.Test.make ~name:"population equals resident count" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 30))
    (fun accesses ->
      let s = Cache.Sarray.create ~sets:4 ~ways:2 in
      List.iter
        (fun a ->
          match Cache.Sarray.find s a with
          | Some _ -> Cache.Sarray.touch s a
          | None -> (
            match Cache.Sarray.victim_for s a with
            | Some (v, _) ->
              Cache.Sarray.remove s v;
              Cache.Sarray.insert s a a
            | None -> Cache.Sarray.insert s a a))
        accesses;
      let n = ref 0 in
      Cache.Sarray.iter (fun _ _ -> incr n) s;
      !n = Cache.Sarray.population s && !n <= 8)

(* The grouped array against the eager reference (test/sarray_ref.ml)
   on geometries whose sets fill less than one group, one group and a
   partial one, and several whole groups. Each step is a lookup, a
   touch, a protocol-style fill (evict the victim, then insert), a
   removal or a residency check; answers, victims, population and the
   iteration order must agree throughout. *)
let prop_model_eager (sets, ways) =
  QCheck.Test.make
    ~name:(Printf.sprintf "grouped sets match the eager array (%dx%d)" sets ways)
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 400)
        (pair (int_range 0 4) (int_range 0 ((3 * sets * ways) + 2))))
    (fun steps ->
      let s = Cache.Sarray.create ~sets ~ways and r = Sarray_ref.create ~sets ~ways in
      let contents iter t =
        let l = ref [] in
        iter (fun a st -> l := (a, st) :: !l) t;
        List.rev !l
      in
      List.for_all
        (fun (op, a) ->
          let agree =
            match op with
            | 0 -> Cache.Sarray.find s a = Sarray_ref.find r a
            | 1 ->
              Cache.Sarray.touch s a;
              Sarray_ref.touch r a;
              true
            | 2 ->
              let v = Cache.Sarray.victim_for s a in
              v = Sarray_ref.victim_for r a
              &&
              ((match v with
               | Some (va, _) ->
                 Cache.Sarray.remove s va;
                 Sarray_ref.remove r va
               | None -> ());
               if not (Cache.Sarray.mem s a) then begin
                 Cache.Sarray.insert s a a;
                 Sarray_ref.insert r a a
               end;
               true)
            | 3 ->
              Cache.Sarray.remove s a;
              Sarray_ref.remove r a;
              true
            | _ -> Cache.Sarray.mem s a = Sarray_ref.mem r a
          in
          agree && Cache.Sarray.population s = Sarray_ref.population r)
        steps
      && contents Cache.Sarray.iter s = contents Sarray_ref.iter r)

(* A default L2 has 512 groups of sets: creating it must not empty
   the minor heap, as [Array.make] does when a large array starts out
   holding a young value. *)
let test_sarray_create_no_minor_gc () =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let s = Cache.Sarray.create ~sets:8192 ~ways:4 in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections" 0 (after - before);
  Alcotest.(check int) "sets" 8192 (Cache.Sarray.sets s)

let tests =
  [
    Alcotest.test_case "byte/block round trip" `Quick test_addr_roundtrip;
    Alcotest.test_case "home CMP interleaving" `Quick test_addr_homes;
    Alcotest.test_case "L2 bank mapping" `Quick test_addr_banks;
    Alcotest.test_case "insert and find" `Quick test_sarray_insert_find;
    Alcotest.test_case "LRU victim selection" `Quick test_sarray_lru_victim;
    Alcotest.test_case "victim-free cases" `Quick test_sarray_no_victim_cases;
    Alcotest.test_case "remove" `Quick test_sarray_remove;
    Alcotest.test_case "misuse raises" `Quick test_sarray_full_set_raises;
    Alcotest.test_case "iter" `Quick test_sarray_iter;
    Alcotest.test_case "create forces no minor collection" `Quick
      test_sarray_create_no_minor_gc;
    QCheck_alcotest.to_alcotest prop_lru;
    QCheck_alcotest.to_alcotest prop_population;
  ]
  @ List.map
      (fun g -> QCheck_alcotest.to_alcotest (prop_model_eager g))
      [ (1, 1); (3, 2); (17, 4); (64, 4) ]
