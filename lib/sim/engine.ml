type event = ..
type ext = ..

type t = {
  mutable now : Time.t;
  mutable seq : int;
  mutable at_seq : int;  (* seq of the event running or last run *)
  mutable processed : int;
  mutable stopped : bool;
  queue : Heap.t;
  mutable sink : (Time.t -> event -> unit) option;
  mutable exts : ext list;
}

type timer = { mutable cancelled : bool }

let create () =
  { now = Time.zero; seq = 0; at_seq = 0; processed = 0; stopped = false;
    queue = Heap.create (); sink = None; exts = [] }

let now t = t.now
let events_processed t = t.processed

let tracing t = match t.sink with Some _ -> true | None -> false
let set_sink t f = t.sink <- Some f
let clear_sink t = t.sink <- None

let emit t ev = match t.sink with Some f -> f t.now ev | None -> ()

let add_ext t e = t.exts <- e :: t.exts

let rec find_opt f = function
  | [] -> None
  | x :: rest -> ( match f x with Some _ as r -> r | None -> find_opt f rest)

(* Linear walk, deliberately unmemoised: [exts] only ever holds a
   handful of entries (today a single [Obs.Registry.Registry]; tracing
   buffers attach through [set_sink] instead), and every [find_ext]
   call site runs at component construction time, never inside the
   event loop. test_engine's "find_ext" case pins the recency order
   this walk provides. *)
let find_ext t f = find_opt f t.exts

let reserve t =
  t.seq <- t.seq + 1;
  t.seq

let schedule_reserved t time ~seq f =
  assert (time > t.now || (time = t.now && seq > t.at_seq));
  Heap.push t.queue ~key:time ~seq f

let schedule_at t time f =
  assert (time >= t.now);
  Heap.push t.queue ~key:time ~seq:(reserve t) f

let passed t time ~seq = time < t.now || (time = t.now && seq < t.at_seq)

let schedule_in t delay f =
  assert (delay >= 0);
  schedule_at t (t.now + delay) f

let timer_in t delay f =
  let timer = { cancelled = false } in
  schedule_in t delay (fun () -> if not timer.cancelled then f ());
  timer

let cancel timer = timer.cancelled <- true

let stop t = t.stopped <- true

(* [until = None] becomes a [max_int] bound — keys are simulated times
   and never reach it. The popped entry's key is read through
   [min_key] before the pop, so an event costs no allocation here. *)
let run ?until ?(max_events = max_int) t =
  t.stopped <- false;
  let bound = match until with None -> max_int | Some b -> b in
  let q = t.queue in
  while (not t.stopped) && (not (Heap.is_empty q)) && Heap.min_key q <= bound do
    t.now <- Heap.min_key q;
    t.at_seq <- Heap.min_seq q;
    let f = Heap.pop q in
    t.processed <- t.processed + 1;
    if t.processed > max_events then
      failwith (Printf.sprintf "Engine.run: exceeded %d events" max_events);
    f ()
  done
