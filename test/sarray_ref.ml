(* Reference model of Cache.Sarray: the eager structure-of-arrays
   layout it had before its arrays were allocated per group of sets,
   written out in full at creation. The model test in test_cache.ml
   checks the library against it, operation by operation. *)

(* Structure of arrays: way [i] of set [s] lives at index [s * nways + i]
   of three flat arrays. A lookup scans unboxed block addresses without
   following a pointer per way, and set-up is three [Array.make]s. A
   free way holds address -1 and state [None]. *)
type 'a t = {
  nsets : int;
  nways : int;
  addrs : Cache.Addr.t array;
  used : int array;  (* LRU stamp: [tick] at the last insert or touch *)
  states : 'a option array;
  mutable tick : int;
  mutable population : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  let n = sets * ways in
  { nsets = sets; nways = ways; addrs = Array.make n (-1); used = Array.make n 0;
    states = Array.make n None; tick = 0; population = 0 }

let population t = t.population
let sets t = t.nsets
let ways t = t.nways

let base t a = Cache.Addr.set_index ~sets:t.nsets a * t.nways

(* Index of [a]'s way, or -1 when [a] is not resident. *)
let find_way t a =
  let b = base t a in
  let last = b + t.nways in
  let i = ref b in
  while
    !i < last && not (Array.unsafe_get t.addrs !i = a && Array.unsafe_get t.states !i != None)
  do
    incr i
  done;
  if !i < last then !i else -1

let find t a =
  let i = find_way t a in
  if i < 0 then None else Array.unsafe_get t.states i

let mem t a = find_way t a >= 0

let touch t a =
  let i = find_way t a in
  if i >= 0 then begin
    t.tick <- t.tick + 1;
    t.used.(i) <- t.tick
  end

(* The first free way of [a]'s set, else its least recently used way
   (the lowest index among equal stamps). *)
let lru_way t a =
  let b = base t a in
  let best = ref b in
  for i = b + 1 to b + t.nways - 1 do
    if t.states.(i) == None then begin
      if t.states.(!best) != None then best := i
    end
    else if t.states.(!best) != None && t.used.(i) < t.used.(!best) then best := i
  done;
  !best

let victim_for t a =
  if mem t a then None
  else
    let i = lru_way t a in
    match t.states.(i) with None -> None | Some st -> Some (t.addrs.(i), st)

let insert t a st =
  if mem t a then invalid_arg "Sarray.insert: block already resident";
  let i = lru_way t a in
  if t.states.(i) != None then invalid_arg "Sarray.insert: set full";
  t.addrs.(i) <- a;
  t.states.(i) <- Some st;
  t.tick <- t.tick + 1;
  t.used.(i) <- t.tick;
  t.population <- t.population + 1

let remove t a =
  let i = find_way t a in
  if i >= 0 then begin
    t.states.(i) <- None;
    t.addrs.(i) <- -1;
    t.population <- t.population - 1
  end

let iter f t =
  for i = 0 to Array.length t.states - 1 do
    match t.states.(i) with None -> () | Some st -> f t.addrs.(i) st
  done
