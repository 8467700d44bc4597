(* A 4-ary min-heap over [(key, seq)]: position [i]'s children are
   [4i+1 .. 4i+4] and its parent is [(i-1)/4]. Three parallel int
   arrays hold each position's key, seq and cell; [thunks.(c)] holds
   cell [c]'s thunk from its push to its pop and never moves. Sifts
   therefore move only unboxed ints (a hole, not swaps: one write per
   array per level), and an event costs two pointer writes: its thunk
   at push and the [dead] filler at pop. Nothing is allocated per push
   or pop (only [grow] allocates, geometrically).

   [cells] is a permutation of [0 .. capacity-1]: positions [0 .. size-1]
   name the cells in use, positions [size ..] the free ones. Push takes
   the cell at [size] before its sift-up can write there; pop stores
   the popped cell at the position it vacates, [size - 1]. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable cells : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
}

(* Filler for free cells. [pop] writes it over the popped cell, so the
   heap never keeps a popped thunk — and the simulation state it closes
   over — reachable. *)
let dead () = ()

let initial_capacity = 64

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    cells = Array.init initial_capacity Fun.id;
    thunks = Array.make initial_capacity dead;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* Keys are simulated times, far below [max_int]. *)
let min_key h = if h.size = 0 then max_int else Array.unsafe_get h.keys 0

let min_seq h = Array.unsafe_get h.seqs 0

(* Runs only when the heap is full, so every old cell is in use: the
   new positions take the new cells, in order. *)
let grow h =
  let old = Array.length h.keys in
  let cap = 2 * old in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let cells = Array.init cap Fun.id and thunks = Array.make cap dead in
  Array.blit h.keys 0 keys 0 old;
  Array.blit h.seqs 0 seqs 0 old;
  Array.blit h.cells 0 cells 0 old;
  Array.blit h.thunks 0 thunks 0 old;
  h.keys <- keys;
  h.seqs <- seqs;
  h.cells <- cells;
  h.thunks <- thunks

let push h ~key ~seq v =
  if h.size = Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and cells = h.cells in
  let cell = Array.unsafe_get cells h.size in
  Array.unsafe_set h.thunks cell v;
  (* Sift up: parents greater than the new entry move down into the
     hole until it fits. *)
  let i = ref h.size in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set cells !i (Array.unsafe_get cells p);
      i := p
    end
    else sifting := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set cells !i cell;
  h.size <- h.size + 1

let pop h =
  if h.size = 0 then invalid_arg "Sim.Heap.pop: heap is empty";
  let keys = h.keys and seqs = h.seqs and cells = h.cells in
  let top_cell = Array.unsafe_get cells 0 in
  let top = Array.unsafe_get h.thunks top_cell in
  Array.unsafe_set h.thunks top_cell dead;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the former last entry down from the root: the least child
       moves up into the hole while it precedes that entry. *)
    let key = Array.unsafe_get keys n and seq = Array.unsafe_get seqs n in
    let cell = Array.unsafe_get cells n in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let c = (4 * !i) + 1 in
      if c >= n then sifting := false
      else begin
        let last = if c + 3 < n then c + 3 else n - 1 in
        let m = ref c in
        let mk = ref (Array.unsafe_get keys c) and ms = ref (Array.unsafe_get seqs c) in
        for j = c + 1 to last do
          let kj = Array.unsafe_get keys j in
          if kj < !mk || (kj = !mk && Array.unsafe_get seqs j < !ms) then begin
            m := j;
            mk := kj;
            ms := Array.unsafe_get seqs j
          end
        done;
        if !mk < key || (!mk = key && !ms < seq) then begin
          Array.unsafe_set keys !i !mk;
          Array.unsafe_set seqs !i !ms;
          Array.unsafe_set cells !i (Array.unsafe_get cells !m);
          i := !m
        end
        else sifting := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set cells !i cell
  end;
  (* The vacated position, the old last one (the root when the heap
     just emptied), now holds the free cell. *)
  Array.unsafe_set cells n top_cell;
  top
