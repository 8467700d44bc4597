module type MODEL = sig
  type state

  val name : string
  val initial : state list
  val next : state -> (string * state) list
  val invariant : state -> (unit, string) result
  val goal : state -> bool
  val pp : Format.formatter -> state -> unit
  val canonicalize : state -> state
end

type stats = {
  states : int;
  transitions : int;
  diameter : int;
  violation : (string * string list) option;
  violation_state : string option;
  violation_path : string list;  (** rendered states along the violating path *)
  doomed : int option;
  doomed_example : string list option;
  goals : int;
  truncated : bool;
}

(* ------------------------------------------------------------------ *)
(* Growable flat arrays: the per-state bookkeeping never boxes per
   entry, so a multi-million-state run costs a few machine words per
   state instead of a hashtable bucket chain. *)

type 'a buf = { mutable arr : 'a array; mutable n : int; dummy : 'a }

let buf_create dummy = { arr = Array.make 1024 dummy; n = 0; dummy }

let buf_push b v =
  if b.n = Array.length b.arr then begin
    let bigger = Array.make (2 * b.n) b.dummy in
    Array.blit b.arr 0 bigger 0 b.n;
    b.arr <- bigger
  end;
  b.arr.(b.n) <- v;
  b.n <- b.n + 1

(* ------------------------------------------------------------------ *)
(* Open-addressing visited table: state ids live under their hash keys
   in two flat arrays, resized by re-bucketing the stored keys (no
   state re-hashing, unlike [Hashtbl]). A key match is confirmed
   against the interned state's bytes. *)

module Tbl = struct
  type t = {
    mutable keys : int array;  (* hash + 1; 0 = empty slot *)
    mutable vals : int array;  (* state id *)
    mutable mask : int;
    mutable used : int;
  }

  let create () =
    let cap = 1 lsl 16 in
    { keys = Array.make cap 0; vals = Array.make cap 0; mask = cap - 1; used = 0 }

  (* Fibonacci-style multiplicative mixing keeps linear probing healthy
     even though the keys only populate the low 30 bits. *)
  let slot t key = (key * 0x2545F4914F6CDD1D) land t.mask

  let insert_raw t key v =
    let i = ref (slot t key) in
    while t.keys.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.keys.(!i) <- key;
    t.vals.(!i) <- v

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let cap = 2 * Array.length old_keys in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri (fun i k -> if k <> 0 then insert_raw t k old_vals.(i)) old_keys

  let rec probe t key eq st i =
    let k = t.keys.(i) in
    if k = 0 then -1
    else if k = key && eq t.vals.(i) st then t.vals.(i)
    else probe t key eq st ((i + 1) land t.mask)

  (* [find t key eq st] returns the id bound to [key] (with [eq id st]
     confirming the binding), or -1. *)
  let find t key eq st = probe t key eq st (slot t key)

  let add t key v =
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then grow t;
    insert_raw t key v;
    t.used <- t.used + 1
end

module Make (M : MODEL) = struct
  let run ?(max_states = 2_000_000) () =
    (* visited set *)
    let tbl = Tbl.create () in
    (* per-state bookkeeping, id-indexed. A state is kept as its
       marshalled bytes: a flat string costs a fraction of the boxed
       value, and equal states give equal bytes (see [MODEL]). *)
    let states = buf_create "" in
    let pred_id = buf_create (-1) in
    let pred_label = buf_create "" in
    let depth = buf_create 0 in
    let goal_flag = buf_create false in
    (* reverse edges as a flat pair buffer, built into CSR form for
       the liveness pass; a list-per-state representation costs 3
       words per edge and shreds the minor heap at scale. The log is
       dropped ([None]) once the graph cannot close: on truncation or
       a violation. *)
    let edges = ref (Some (buf_create 0, buf_create 0)) in
    (* transition labels repeat heavily; interning them keeps one
       copy per distinct label instead of one per state *)
    let label_pool : (string, string) Hashtbl.t = Hashtbl.create 256 in
    let intern_label l =
      match Hashtbl.find_opt label_pool l with
      | Some l' -> l'
      | None ->
        Hashtbl.add label_pool l l;
        l
    in
    let eq id bytes = String.equal states.arr.(id) bytes in
    let decode id : M.state = Marshal.from_string states.arr.(id) 0 in
    let count = ref 0 in
    let transitions = ref 0 in
    let diameter = ref 0 in
    let goals = ref 0 in
    let violation = ref None in
    let violation_state = ref None in
    let violation_path = ref [] in
    let truncated = ref false in
    (* Intern a canonical state; returns its id, or -1 when the state
       is new and the budget is exhausted. *)
    let intern ~pred ~label state =
      let bytes = Marshal.to_string state [ Marshal.No_sharing ] in
      let key = Hashtbl.hash bytes + 1 in
      match Tbl.find tbl key eq bytes with
      | id when id >= 0 -> id
      | _ ->
        if !count >= max_states then begin
          truncated := true;
          edges := None;
          -1
        end
        else begin
          let id = !count in
          incr count;
          Tbl.add tbl key id;
          buf_push states bytes;
          buf_push pred_id pred;
          buf_push pred_label (if pred < 0 then "" else intern_label label);
          let d = if pred < 0 then 0 else depth.arr.(pred) + 1 in
          buf_push depth d;
          if d > !diameter then diameter := d;
          let g = M.goal state in
          if g then incr goals;
          buf_push goal_flag g;
          id
        end
    in
    let record_edge ~child ~parent =
      match !edges with
      | Some (edge_child, edge_parent) ->
        buf_push edge_child child;
        buf_push edge_parent parent
      | None -> ()
    in
    let trace_to id =
      let rec climb id acc =
        let p = pred_id.arr.(id) in
        if p < 0 then acc else climb p (pred_label.arr.(id) :: acc)
      in
      climb id []
    in
    let render s = Format.asprintf "%a" M.pp s in
    let render_path id =
      let rec climb i acc =
        let acc = render (decode i) :: acc in
        let p = pred_id.arr.(i) in
        if p < 0 then acc else climb p acc
      in
      climb id []
    in
    let record_violation id state reason =
      violation := Some (reason, trace_to id);
      violation_state := Some (render state);
      violation_path := render_path id;
      edges := None
    in
    (* Breadth-first search. Ids are handed out in discovery order,
       so the ids from [cursor] up to [count] are the FIFO frontier.
       After truncation the frontier still drains, so every counted
       state has its invariant checked; a violation ends the search. *)
    List.iter (fun s -> ignore (intern ~pred:(-1) ~label:"" (M.canonicalize s))) M.initial;
    let cursor = ref 0 in
    while !violation = None && !cursor < !count do
      let id = !cursor in
      incr cursor;
      let state = decode id in
      match M.invariant state with
      | Error reason -> record_violation id state reason
      | Ok () ->
        List.iter
          (fun (label, succ) ->
            incr transitions;
            let sid = intern ~pred:id ~label (M.canonicalize succ) in
            if sid >= 0 then record_edge ~child:sid ~parent:id)
          (M.next state)
    done;
    let n = !count in
    (* Liveness proxy: backward reachability from goal states over
       the reverse edges, materialized in CSR form. It runs on closed
       graphs only, since an open graph's unexpanded frontier would
       count as doomed. *)
    let liveness (edge_child, edge_parent) =
      let m = edge_child.n in
      let deg = Array.make (n + 1) 0 in
      for e = 0 to m - 1 do
        let c = edge_child.arr.(e) in
        deg.(c + 1) <- deg.(c + 1) + 1
      done;
      for i = 1 to n do
        deg.(i) <- deg.(i) + deg.(i - 1)
      done;
      let adj = Array.make m 0 in
      let cursor = Array.copy deg in
      for e = 0 to m - 1 do
        let c = edge_child.arr.(e) in
        adj.(cursor.(c)) <- edge_parent.arr.(e);
        cursor.(c) <- cursor.(c) + 1
      done;
      let can_reach = Bytes.make n '\000' in
      let stack = buf_create 0 in
      for id = 0 to n - 1 do
        if goal_flag.arr.(id) then begin
          Bytes.set can_reach id '\001';
          buf_push stack id
        end
      done;
      while stack.n > 0 do
        stack.n <- stack.n - 1;
        let id = stack.arr.(stack.n) in
        for e = deg.(id) to deg.(id + 1) - 1 do
          let p = adj.(e) in
          if Bytes.get can_reach p = '\000' then begin
            Bytes.set can_reach p '\001';
            buf_push stack p
          end
        done
      done;
      let doomed = ref 0 in
      let example = ref None in
      for id = 0 to n - 1 do
        if Bytes.get can_reach id = '\000' then begin
          incr doomed;
          if !example = None then example := Some (trace_to id)
        end
      done;
      (Some !doomed, !example)
    in
    let doomed, doomed_example =
      match !edges with
      | None -> (None, None)
      | Some _ when !goals = 0 -> (Some 0, None)
      | Some log -> liveness log
    in
    {
      states = n;
      transitions = !transitions;
      diameter = !diameter;
      violation = !violation;
      violation_state = !violation_state;
      violation_path = !violation_path;
      doomed;
      doomed_example;
      goals = !goals;
      truncated = !truncated;
    }
end

let pp_stats fmt s =
  Format.fprintf fmt "states=%d transitions=%d diameter=%d goals=%d doomed=%s%s%s" s.states
    s.transitions s.diameter s.goals
    (match s.doomed with Some d -> string_of_int d | None -> "-")
    (if s.truncated then " TRUNCATED" else "")
    (match s.violation with
    | None -> " (invariants hold)"
    | Some (reason, trace) ->
      Printf.sprintf " VIOLATION: %s after [%s]" reason (String.concat "; " trace))
