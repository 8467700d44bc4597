type t = { intra : int array; inter : int array }

let create () =
  { intra = Array.make Msg_class.count 0; inter = Array.make Msg_class.count 0 }

let add_intra t cls bytes = t.intra.(Msg_class.index cls) <- t.intra.(Msg_class.index cls) + bytes
let add_inter t cls bytes = t.inter.(Msg_class.index cls) <- t.inter.(Msg_class.index cls) + bytes
let intra_bytes t cls = t.intra.(Msg_class.index cls)
let inter_bytes t cls = t.inter.(Msg_class.index cls)
let intra_total t = Array.fold_left ( + ) 0 t.intra
let inter_total t = Array.fold_left ( + ) 0 t.inter
let intra_breakdown t = List.map (fun c -> (c, intra_bytes t c)) Msg_class.all
let inter_breakdown t = List.map (fun c -> (c, inter_bytes t c)) Msg_class.all

let reset t =
  Array.fill t.intra 0 Msg_class.count 0;
  Array.fill t.inter 0 Msg_class.count 0

let merge ~into src =
  Array.iteri (fun i v -> into.intra.(i) <- into.intra.(i) + v) src.intra;
  Array.iteri (fun i v -> into.inter.(i) <- into.inter.(i) + v) src.inter

let register registry t =
  Obs.Registry.register_int registry "traffic.intra_bytes" (fun () -> intra_total t);
  Obs.Registry.register_int registry "traffic.inter_bytes" (fun () -> inter_total t);
  List.iter
    (fun cls ->
      let name = Msg_class.to_string cls in
      Obs.Registry.register_int registry ("traffic.intra_bytes." ^ name) (fun () ->
          intra_bytes t cls);
      Obs.Registry.register_int registry ("traffic.inter_bytes." ^ name) (fun () ->
          inter_bytes t cls))
    Msg_class.all
