(* Structure of arrays, in groups of [group_sets] sets: way [i] of set
   [s] lives at index [(s mod group_sets) * nways + i] of the three flat
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

type 'a group = {
  addrs : Addr.t array;
  used : int array;  (* LRU stamp: [tick] at the last insert or touch *)
  states : 'a option array;
}

type 'a t = {
  nsets : int;
  nways : int;
  groups : 'a group array;
  untouched : 'a group;  (* shared by every group not yet inserted into *)
  mutable tick : int;
  mutable population : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  let ngroups = (sets + group_sets - 1) / group_sets in
  let n = min sets group_sets * ways in
  let untouched = { addrs = Array.make n (-1); used = Array.make n 0; states = Array.make n None } in
  (* Made with an immediate, then filled: [Array.make] of more than 256
     words with a young initial value empties the minor heap first. *)
  let groups = Array.make ngroups (Obj.magic 0) in
  Array.fill groups 0 ngroups untouched;
  { nsets = sets; nways = ways; groups; untouched; tick = 0; population = 0 }

let population t = t.population
let sets t = t.nsets
let ways t = t.nways

let group s = s lsr group_bits
let base t s = (s land (group_sets - 1)) * t.nways

(* Index of [a]'s way in group [g], whose set starts at [b], or -1
   when [a] is not resident. *)
let scan g b nways a =
  let addrs = g.addrs and states = g.states in
  let last = b + nways in
  let i = ref b in
  while
    !i < last && not (Array.unsafe_get addrs !i = a && Array.unsafe_get states !i != None)
  do
    incr i
  done;
  if !i < last then !i else -1

let find t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let g = Array.unsafe_get t.groups (group s) in
  let i = scan g (base t s) t.nways a in
  if i < 0 then None else Array.unsafe_get g.states i

let mem t a =
  let s = Addr.set_index ~sets:t.nsets a in
  scan (Array.unsafe_get t.groups (group s)) (base t s) t.nways a >= 0

let touch t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let g = Array.unsafe_get t.groups (group s) in
  let i = scan g (base t s) t.nways a in
  if i >= 0 then begin
    t.tick <- t.tick + 1;
    g.used.(i) <- t.tick
  end

(* The first free way of set [s] in group [g], else its least recently
   used way (the lowest index among equal stamps). *)
let lru_way t g s =
  let states = g.states and used = g.used in
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
    let g = t.groups.(group s) in
    let i = lru_way t g s in
    match g.states.(i) with None -> None | Some st -> Some (g.addrs.(i), st)

let insert t a st =
  if mem t a then invalid_arg "Sarray.insert: block already resident";
  let s = Addr.set_index ~sets:t.nsets a in
  if t.groups.(group s) == t.untouched then begin
    let n = min (t.nsets - (group s * group_sets)) group_sets * t.nways in
    t.groups.(group s) <-
      { addrs = Array.make n (-1); used = Array.make n 0; states = Array.make n None }
  end;
  let g = t.groups.(group s) in
  let i = lru_way t g s in
  if g.states.(i) != None then invalid_arg "Sarray.insert: set full";
  g.addrs.(i) <- a;
  g.states.(i) <- Some st;
  t.tick <- t.tick + 1;
  g.used.(i) <- t.tick;
  t.population <- t.population + 1

let remove t a =
  let s = Addr.set_index ~sets:t.nsets a in
  let g = t.groups.(group s) in
  let i = scan g (base t s) t.nways a in
  if i >= 0 then begin
    g.states.(i) <- None;
    g.addrs.(i) <- -1;
    t.population <- t.population - 1
  end

(* Groups never inserted into hold nothing and are skipped, so a walk
   costs the sets a run touched, in set order. *)
let iter f t =
  Array.iter
    (fun g ->
      if g != t.untouched then
        for i = 0 to Array.length g.states - 1 do
          match g.states.(i) with None -> () | Some st -> f g.addrs.(i) st
        done)
    t.groups
