(* The engine's event queue: unit cases, then a model test. The heap
   stores [unit -> unit] thunks, so each entry here is a thunk that
   writes its value into [out]; popping an entry and running it reads
   the value back. *)

let out = ref 0
let push h ~key ~seq v = Sim.Heap.push h ~key ~seq (fun () -> out := v)

let pop h =
  (Sim.Heap.pop h) ();
  !out

let drain h =
  let rec go acc = if Sim.Heap.is_empty h then List.rev acc else go (pop h :: acc) in
  go []

let test_empty () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Sim.Heap.length h);
  Alcotest.(check int) "min_key" max_int (Sim.Heap.min_key h);
  Alcotest.check_raises "pop" (Invalid_argument "Sim.Heap.pop: heap is empty") (fun () ->
      ignore (pop h))

let test_ordering () =
  let h = Sim.Heap.create () in
  List.iteri (fun i k -> push h ~key:k ~seq:i k) [ 5; 3; 9; 1; 7; 3; 0 ];
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (drain h)

let test_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iteri (fun i v -> push h ~key:42 ~seq:i v) [ 10; 11; 12; 13 ];
  Alcotest.(check (list int)) "insertion order" [ 10; 11; 12; 13 ] (drain h)

let test_interleaved () =
  let h = Sim.Heap.create () in
  push h ~key:10 ~seq:0 10;
  push h ~key:5 ~seq:1 5;
  let k1 = pop h in
  push h ~key:1 ~seq:2 1;
  let k2 = pop h in
  let k3 = pop h in
  Alcotest.(check (list int)) "interleaved" [ 5; 1; 10 ] [ k1; k2; k3 ]

let test_length () =
  let h = Sim.Heap.create () in
  for i = 0 to 99 do
    push h ~key:i ~seq:i i
  done;
  Alcotest.(check int) "after pushes" 100 (Sim.Heap.length h);
  for _ = 1 to 40 do
    ignore (pop h)
  done;
  Alcotest.(check int) "after pops" 60 (Sim.Heap.length h);
  ignore (drain h);
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h)

(* A push below the current minimum must become the new minimum, and
   pop must hand it out first. *)
let test_smaller_push () =
  let h = Sim.Heap.create () in
  push h ~key:100 ~seq:0 100;
  push h ~key:200 ~seq:1 200;
  Alcotest.(check int) "min before" 100 (Sim.Heap.min_key h);
  push h ~key:50 ~seq:2 50;
  Alcotest.(check int) "min after" 50 (Sim.Heap.min_key h);
  Alcotest.(check (list int)) "order" [ 50; 100; 200 ] (drain h)

(* Far past the initial capacity, with every key repeated: growing
   must keep the (key, seq) order, including when pops interleave. *)
let test_growth () =
  let h = Sim.Heap.create () in
  let n = 5_000 in
  let key i = (i * 7919) mod 97 in
  for i = 0 to n - 1 do
    push h ~key:(key i) ~seq:i i;
    if i mod 5 = 4 then ignore (pop h)
  done;
  let left = drain h in
  Alcotest.(check int) "resident count" (n - (n / 5)) (List.length left);
  let rec ordered = function
    | a :: (b :: _ as rest) -> (key a < key b || (key a = key b && a < b)) && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "(key, seq) order" true (ordered left)

let prop_heap_sort =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_nat)
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> push h ~key:k ~seq:i k) keys;
      drain h = List.sort compare keys)

let prop_heap_stable =
  QCheck.Test.make ~name:"equal keys pop in insertion order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 3))
    (fun keys ->
      let h = Sim.Heap.create () in
      (* value [4i + k] carries both the key and the insertion index *)
      List.iteri (fun i k -> push h ~key:k ~seq:i ((4 * i) + k)) keys;
      let popped = drain h in
      (* within each key class, insertion index must increase *)
      List.for_all
        (fun key ->
          let seqs = List.filter_map (fun v -> if v mod 4 = key then Some (v / 4) else None) popped in
          seqs = List.sort compare seqs)
        [ 0; 1; 2; 3 ])

(* Space-leak regression: popped entries must become unreachable — a
   heap that kept them live in its dead slots would retain event
   closures across long campaigns. Weak pointers observe
   collectability directly. *)
let assert_collected name w =
  Gc.full_major ();
  for i = 0 to Weak.length w - 1 do
    Alcotest.(check bool) (Printf.sprintf "%s slot %d collected" name i) true
      (Weak.get w i = None)
  done

(* Pushes [n] thunks, each closing over a fresh cell tracked in [w]. *)
let push_tracked h w n ~key =
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h ~key:(key i) ~seq:i (fun () -> out := !v)
  done

let test_pop_releases () =
  let h = Sim.Heap.create () in
  let n = 16 in
  let w = Weak.create n in
  push_tracked h w n ~key:(fun i -> n - i);
  for _ = 1 to n do
    ignore (pop h)
  done;
  assert_collected "pop" w;
  (* [h] is used after the collection, so it is live during it. *)
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h)

let test_partial_pop_releases () =
  (* Only the popped half may be collected; the resident half must
     survive a major GC and still drain correctly. *)
  let h = Sim.Heap.create () in
  let n = 8 in
  let w = Weak.create n in
  push_tracked h w n ~key:Fun.id;
  for _ = 1 to n / 2 do
    ignore (pop h)
  done;
  Gc.full_major ();
  for i = 0 to (n / 2) - 1 do
    Alcotest.(check bool) (Printf.sprintf "popped %d collected" i) true (Weak.get w i = None)
  done;
  for i = n / 2 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "resident %d alive" i) true (Weak.get w i <> None)
  done;
  Alcotest.(check (list int)) "remaining order" [ 4; 5; 6; 7 ] (drain h)

(* Model test of the engine's event queue against a sorted-list
   reference, checking the full (key, seq) order. Every pushed thunk
   closes over a fresh cell tracked by a weak pointer, so the test can
   also see that popped thunks stop being reachable from the heap while
   resident ones stay alive. *)

type op =
  | Push of int * int  (* key, high part of a unique seq *)
  | Burst of int * int list  (* base key, offsets: a broadcast-shaped cluster *)
  | Pop
  | Min

(* Narrow key ranges make duplicate keys common; seqs are unique but
   not in insertion order, so ties exercise the seq comparison itself.
   A burst of up to 96 entries grows the heap past its initial
   capacity. *)
let gen_ops =
  let open QCheck.Gen in
  let push = map2 (fun k s -> Push (k, s)) (int_range 0 7) (int_range 0 1000) in
  let burst =
    map2 (fun base offs -> Burst (base, offs)) (int_range 0 1000)
      (list_size (int_range 16 96) (int_range 0 500))
  in
  list_size (int_range 0 120)
    (frequency [ (12, push); (2, burst); (10, return Pop); (3, return Min) ])

let print_op = function
  | Push (k, s) -> Printf.sprintf "Push(%d,%d)" k s
  | Burst (b, offs) -> Printf.sprintf "Burst(%d,%d)" b (List.length offs)
  | Pop -> "Pop"
  | Min -> "Min"

let prop_model =
  QCheck.Test.make ~name:"push/pop/min_key match sorted model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_op) gen_ops)
    (fun ops ->
      let h = Sim.Heap.create () in
      let next_id = ref 0 in
      let cells = Weak.create 20_000 in
      let gone = ref [] (* ids popped *) in
      let fired = ref (-1) in
      (* model: (key, seq, id) sorted by (key, seq) *)
      let model = ref [] in
      let ok = ref true in
      let push key seq_hi =
        let id = !next_id in
        incr next_id;
        let seq = (seq_hi * 100_000) + id in
        let cell = ref id in
        Weak.set cells id (Some cell);
        Sim.Heap.push h ~key ~seq (fun () -> fired := !cell);
        model := List.merge compare [ (key, seq, id) ] !model
      in
      let pop () =
        match !model with
        | [] ->
          ok :=
            !ok
            && (try
                  let (_ : unit -> unit) = Sim.Heap.pop h in
                  false
                with Invalid_argument _ -> true)
        | (k, _, id) :: rest ->
          ok := !ok && Sim.Heap.min_key h = k;
          (Sim.Heap.pop h) ();
          ok := !ok && !fired = id;
          gone := id :: !gone;
          model := rest
      in
      List.iter
        (function
          | Push (k, s) -> push k s
          | Burst (base, offs) -> List.iter (fun o -> push (base + o) (o land 7)) offs
          | Pop -> pop ()
          | Min ->
            ok :=
              !ok
              && Sim.Heap.min_key h
                 = (match !model with [] -> max_int | (k, _, _) :: _ -> k))
        ops;
      ok := !ok && Sim.Heap.length h = List.length !model;
      ok := !ok && Sim.Heap.is_empty h = (!model = []);
      (* Popped thunks are unreachable; resident ones are not (they
         still fire, in order, below). *)
      Gc.full_major ();
      List.iter (fun id -> ok := !ok && Weak.get cells id = None) !gone;
      List.iter (fun (_, _, id) -> ok := !ok && Weak.get cells id <> None) !model;
      while !model <> [] do
        pop ()
      done;
      !ok && Sim.Heap.is_empty h)

let tests =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "length counts pushes and pops" `Quick test_length;
    Alcotest.test_case "min_key follows a smaller push" `Quick test_smaller_push;
    Alcotest.test_case "growth past capacity keeps order" `Quick test_growth;
    Alcotest.test_case "pop releases entries (no space leak)" `Quick test_pop_releases;
    Alcotest.test_case "partial pop releases only popped" `Quick test_partial_pop_releases;
    QCheck_alcotest.to_alcotest prop_heap_sort;
    QCheck_alcotest.to_alcotest prop_heap_stable;
    QCheck_alcotest.to_alcotest prop_model;
  ]
