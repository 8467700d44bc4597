(* A destination set is a flat array of 63-bit words: bit [i mod 63] of
   word [i / 63] set means node [i] is a destination. The array is
   canonical — trailing all-zero words are trimmed and the empty set is
   [| |] — so structural equality is a word-by-word int compare and a
   one-word set costs exactly what the old single-int mask did. There
   is no list fallback: a 256-node broadcast walks four words. *)
type t = int array

(* Bits 0..62 of each int are usable (bit 62 is the sign bit, but every
   operation below is bitwise, so it behaves like any other position). *)
let word_bits = 63

let lsb m = m land -m

let msb m =
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  let m = m lor (m lsr 32) in
  m - (m lsr 1)

(* The position of an isolated bit, without a branch: multiplying
   [1 lsl i] by a de Bruijn constant shifts it left by [i] (mod 2^63),
   and the top six bits of the product differ for every [i] in 0..62,
   so they index a table of positions. *)
let debruijn = 0x03F7_9D71_B4CB_0A89

let positions =
  let a = Array.make 64 0 in
  for i = 0 to word_bits - 1 do
    a.(((1 lsl i) * debruijn) lsr 57) <- i
  done;
  a

let[@inline] bit_index b = Array.unsafe_get positions ((b * debruijn) lsr 57)

let iter_bits_asc f m =
  let m = ref m in
  while !m <> 0 do
    let b = lsb !m in
    m := !m lxor b;
    f (bit_index b)
  done

let iter_bits_desc f m =
  let m = ref m in
  while !m <> 0 do
    let b = msb !m in
    m := !m lxor b;
    f (bit_index b)
  done

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let empty : t = [||]

let is_empty (s : t) = Array.length s = 0

let nwords (s : t) = Array.length s

let word (s : t) i = Array.unsafe_get s i

let unsafe_words (s : t) : int array = s

let cardinal (s : t) =
  let n = ref 0 in
  for w = 0 to Array.length s - 1 do
    n := !n + popcount s.(w)
  done;
  !n

let mem id (s : t) =
  id >= 0
  && id / word_bits < Array.length s
  && s.(id / word_bits) land (1 lsl (id mod word_bits)) <> 0

let check id = if id < 0 then invalid_arg "Destset: negative node id"

(* Trim trailing zero words so every set has one canonical form. *)
let canonize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let add id (s : t) : t =
  check id;
  let w = id / word_bits and b = 1 lsl (id mod word_bits) in
  let n = Array.length s in
  if w < n then
    if s.(w) land b <> 0 then s
    else begin
      let a = Array.copy s in
      a.(w) <- a.(w) lor b;
      a
    end
  else begin
    let a = Array.make (w + 1) 0 in
    Array.blit s 0 a 0 n;
    a.(w) <- b;
    a
  end

let remove id (s : t) : t =
  if id < 0 || id / word_bits >= Array.length s then s
  else
    let w = id / word_bits and b = 1 lsl (id mod word_bits) in
    if s.(w) land b = 0 then s
    else begin
      let a = Array.copy s in
      a.(w) <- a.(w) land lnot b;
      canonize a
    end

let singleton id =
  check id;
  let a = Array.make (id / word_bits + 1) 0 in
  a.(id / word_bits) <- 1 lsl (id mod word_bits);
  a

let of_list ids : t =
  (* One max-scan then one set-bit pass: no sort, no comparator —
     duplicates collapse into the same bit. *)
  match ids with
  | [] -> empty
  | _ ->
    let top = ref 0 in
    List.iter
      (fun id ->
        check id;
        if id > !top then top := id)
      ids;
    let a = Array.make ((!top / word_bits) + 1) 0 in
    List.iter (fun id -> a.(id / word_bits) <- a.(id / word_bits) lor (1 lsl (id mod word_bits))) ids;
    a

let union (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let short, long = if la <= lb then (a, b) else (b, a) in
    let r = Array.copy long in
    for w = 0 to Array.length short - 1 do
      r.(w) <- r.(w) lor short.(w)
    done;
    (* [long]'s top word is non-zero, so [r] is already canonical. *)
    r
  end

let of_bitfield ~bits ~base : t =
  if bits = 0 then empty
  else begin
    check base;
    let top = base + bit_index (msb bits) in
    let a = Array.make ((top / word_bits) + 1) 0 in
    let w = base / word_bits and sh = base mod word_bits in
    (* Splice the bitfield across (at most) two words. [lsl] drops bits
       shifted past position 62; those reappear in the high half. *)
    a.(w) <- bits lsl sh;
    if sh > 0 && w + 1 < Array.length a then
      a.(w + 1) <- a.(w + 1) lor (bits lsr (word_bits - sh));
    a
  end

let iter f (s : t) =
  for w = 0 to Array.length s - 1 do
    let m = ref s.(w) in
    (* Word-skip: an empty word costs one load; within a word, Kernighan
       lowest-bit-first. *)
    while !m <> 0 do
      let b = lsb !m in
      m := !m lxor b;
      f ((w * word_bits) + bit_index b)
    done
  done

let iter_desc f (s : t) =
  for w = Array.length s - 1 downto 0 do
    let m = ref s.(w) in
    while !m <> 0 do
      let b = msb !m in
      m := !m lxor b;
      f ((w * word_bits) + bit_index b)
    done
  done

let to_list (s : t) =
  let acc = ref [] in
  iter_desc (fun i -> acc := i :: !acc) s;
  !acc

let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go w = w >= la || (a.(w) = b.(w) && go (w + 1)) in
  go 0
