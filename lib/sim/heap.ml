(* A 4-ary min-heap over [(key, seq)] held in three parallel arrays:
   slot [i]'s children are [4i+1 .. 4i+4] and its parent is
   [(i-1)/4]. Keys and seqs are unboxed ints, so sifting compares
   without chasing a pointer, and nothing is allocated per push or pop
   (only [grow] allocates, geometrically). Sifts move a hole instead of
   swapping, so each level costs one write per array. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : (unit -> unit) array;
  mutable size : int;
}

(* Filler for dead slots (indices >= size). [pop] writes it over the
   vacated value slot, so the heap never keeps a popped thunk — and the
   simulation state it closes over — reachable. *)
let dead () = ()

let initial_capacity = 64

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity dead;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* Keys are simulated times, far below [max_int]. *)
let min_key h = if h.size = 0 then max_int else Array.unsafe_get h.keys 0

let min_seq h = Array.unsafe_get h.seqs 0

let grow h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 and vals = Array.make cap dead in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let push h ~key ~seq v =
  if h.size = Array.length h.keys then grow h;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
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
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else sifting := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v;
  h.size <- h.size + 1

let pop h =
  if h.size = 0 then invalid_arg "Sim.Heap.pop: heap is empty";
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let top = Array.unsafe_get vals 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the former last entry down from the root: the least child
       moves up into the hole while it precedes that entry. *)
    let key = Array.unsafe_get keys n and seq = Array.unsafe_get seqs n in
    let v = Array.unsafe_get vals n in
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
          Array.unsafe_set vals !i (Array.unsafe_get vals !m);
          i := !m
        end
        else sifting := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set vals !i v
  end;
  (* The vacated slot: the old last index, or the root when the heap
     just emptied. *)
  Array.unsafe_set vals n dead;
  top
