type t = { mutable gauges : (string * (unit -> float)) list }

type Sim.Engine.ext += Registry of t

let create () = { gauges = [] }

let register_float t name f =
  if List.mem_assoc name t.gauges then
    invalid_arg (Printf.sprintf "Obs.Registry: duplicate metric %S" name);
  t.gauges <- (name, f) :: t.gauges

let register_int t name f = register_float t name (fun () -> float_of_int (f ()))

let attach t engine = Sim.Engine.add_ext engine (Registry t)

let of_engine engine =
  Sim.Engine.find_ext engine (function Registry r -> Some r | _ -> None)

let gauges t =
  List.map (fun (name, f) -> (name, f ())) (List.sort (fun (a, _) (b, _) -> compare a b) t.gauges)
