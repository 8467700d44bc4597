(* Structure of arrays, in groups of [group_sets] sets: way [i] of set
   [s] lives at index [(s mod group_sets) * nways + i] of three flat
   arrays of group [s / group_sets]. A lookup scans unboxed block
   addresses without following a pointer per way. A group's arrays are
   allocated on the first insert into it; until then it shares one set
   of all-free arrays, so lookups need no branch on it and set-up pays
   only for the sets a run touches. A free way holds address -1 and
   state [None]. *)

(* Sets per group, a power of two. Measured (EXPERIMENTS.md, "Lazy
   cache sets"): larger groups move first touches into the run loop,
   smaller ones add groups to walk. *)
let group_bits = 4
let group_sets = 1 lsl group_bits

type 'a t = {
  nsets : int;
  nways : int;
  addrs : Addr.t array array;
  used : int array array;  (* LRU stamp: [tick] at the last insert or touch *)
  states : 'a option array array;
  untouched : Addr.t array;  (* the shared address array of untouched groups *)
  mutable tick : int;
  mutable population : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  let groups = (sets + group_sets - 1) / group_sets in
  let n = min sets group_sets * ways in
  let untouched = Array.make n (-1) in
  { nsets = sets; nways = ways; addrs = Array.make groups untouched;
    used = Array.make groups (Array.make n 0); states = Array.make groups (Array.make n None);
    untouched; tick = 0; population = 0 }

let population t = t.population
let sets t = t.nsets
let ways t = t.nways

let group s = s lsr group_bits
let base t s = (s land (group_sets - 1)) * t.nways

(* Index of [a]'s way in group [g], whose set starts at [b], or -1
   when [a] is not resident. *)
let scan t g b a =
  let addrs = Array.unsafe_get t.addrs g and states = Array.unsafe_get t.states g in
  let last = b + t.nways in
  let i = ref b in
  while
    !i < last && not (Array.unsafe_get addrs !i = a && Array.unsafe_get states !i != None)
  do
    incr i
  done;
  if !i < last then !i else -1

let find t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let i = scan t (group s) (base t s) a in
  if i < 0 then None else Array.unsafe_get (Array.unsafe_get t.states (group s)) i

let mem t a =
  let s = Addr.set_index ~sets:t.nsets a in
  scan t (group s) (base t s) a >= 0

let touch t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let i = scan t (group s) (base t s) a in
  if i >= 0 then begin
    t.tick <- t.tick + 1;
    t.used.(group s).(i) <- t.tick
  end

(* The first free way of set [s], else its least recently used way
   (the lowest index among equal stamps). *)
let lru_way t s =
  let states = t.states.(group s) and used = t.used.(group s) in
  let b = base t s in
  let best = ref b in
  for i = b + 1 to b + t.nways - 1 do
    if states.(i) == None then begin
      if states.(!best) != None then best := i
    end
    else if states.(!best) != None && used.(i) < used.(!best) then best := i
  done;
  !best

let victim_for t a =
  if mem t a then None
  else
    let s = Addr.set_index ~sets:t.nsets a in
    let i = lru_way t s in
    match t.states.(group s).(i) with
    | None -> None
    | Some st -> Some (t.addrs.(group s).(i), st)

let insert t a st =
  if mem t a then invalid_arg "Sarray.insert: block already resident";
  let s = Addr.set_index ~sets:t.nsets a in
  let g = group s in
  if t.addrs.(g) == t.untouched then begin
    let n = min (t.nsets - (g * group_sets)) group_sets * t.nways in
    t.addrs.(g) <- Array.make n (-1);
    t.used.(g) <- Array.make n 0;
    t.states.(g) <- Array.make n None
  end;
  let i = lru_way t s in
  if t.states.(g).(i) != None then invalid_arg "Sarray.insert: set full";
  t.addrs.(g).(i) <- a;
  t.states.(g).(i) <- Some st;
  t.tick <- t.tick + 1;
  t.used.(g).(i) <- t.tick;
  t.population <- t.population + 1

let remove t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let i = scan t (group s) (base t s) a in
  if i >= 0 then begin
    t.states.(group s).(i) <- None;
    t.addrs.(group s).(i) <- -1;
    t.population <- t.population - 1
  end

let iter f t =
  Array.iteri
    (fun g states ->
      for i = 0 to Array.length states - 1 do
        match states.(i) with None -> () | Some st -> f t.addrs.(g).(i) st
      done)
    t.states
