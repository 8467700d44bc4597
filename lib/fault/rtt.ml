(* RFC 6298's gains and deviation multiplier. *)
let alpha = 0.125
let beta = 0.25
let k = 4.0
let floor = Sim.Time.ns 300
let ceiling = Sim.Time.ns 5_000

type t = {
  mutable srtt : float;  (* picoseconds *)
  mutable rttvar : float;
  mutable nsamples : int;
}

let create () = { srtt = 0.; rttvar = 0.; nsamples = 0 }

(* Jacobson/Karels as in RFC 6298: the first sample seeds the filters,
   later samples update the deviation before the mean (the deviation
   must see the pre-update srtt). *)
let observe t sample =
  let r = float_of_int (max 0 sample) in
  if t.nsamples = 0 then begin
    t.srtt <- r;
    t.rttvar <- r /. 2.
  end
  else begin
    t.rttvar <- ((1. -. beta) *. t.rttvar) +. (beta *. Float.abs (t.srtt -. r));
    t.srtt <- ((1. -. alpha) *. t.srtt) +. (alpha *. r)
  end;
  t.nsamples <- t.nsamples + 1

let rto t =
  if t.nsamples = 0 then floor
  else
    let raw = int_of_float (Float.round (t.srtt +. (k *. t.rttvar))) in
    max floor (min ceiling raw)

let samples t = t.nsamples
