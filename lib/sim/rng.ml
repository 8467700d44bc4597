(* SplitMix64. The 64-bit state lives unboxed in an 8-byte buffer, read
   and written with the unaligned 64-bit bytes primitives, and [next] is
   inlined into each caller, so a draw works on untagged int64 values in
   registers and allocates nothing. *)
type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  set64 t 0 z;
  t

let create seed = of_state (mix (Int64.of_int ((seed * 2) + 1)))

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  mix z

let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling avoids modulo bias: a 62-bit value at or above
   [limit], the largest multiple of [n] not above 2^62 - 1, is drawn
   again. *)
let[@inline] draw t n limit =
  let v = ref (bits62 t) in
  while !v >= limit do
    v := bits62 t
  done;
  !v mod n

let limit n =
  assert (n > 0);
  let bound = 0x3FFF_FFFF_FFFF_FFFF in
  bound - (bound mod n)

type span = { n : int; limit : int }

let span n = { n; limit = limit n }
let[@inline] int_span t s = draw t s.n s.limit

(* The same draw, building no span, so it allocates nothing. *)
let int t n = draw t n (limit n)

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let split t = of_state (next t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
