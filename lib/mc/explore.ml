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

type store = Exact | Compact

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
  collision_bound : float;
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
(* Open-addressing fingerprint table: visited states live as int
   fingerprints in two flat arrays, resized by re-bucketing the stored
   keys (no state re-hashing, unlike [Hashtbl]). In [Exact] mode a key
   match is confirmed against the interned state; in [Compact] mode the
   fingerprint alone decides, Cleary/bit-state style. *)

module Tbl = struct
  type t = {
    mutable keys : int array;  (* fingerprint + 1; 0 = empty slot *)
    mutable vals : int array;  (* state id *)
    mutable mask : int;
    mutable used : int;
  }

  let create () =
    let cap = 1 lsl 16 in
    { keys = Array.make cap 0; vals = Array.make cap 0; mask = cap - 1; used = 0 }

  (* Fibonacci-style multiplicative mixing keeps linear probing healthy
     even though exact-mode keys only populate the low 30 bits. *)
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

  (* [find t key eq st] returns the id bound to [key] (with [eq id st]
     confirming the binding), or -1. *)
  let find t key eq st =
    let i = ref (slot t key) in
    let res = ref (-1) in
    (try
       while true do
         let k = t.keys.(!i) in
         if k = 0 then raise Exit;
         if k = key && eq t.vals.(!i) st then begin
           res := t.vals.(!i);
           raise Exit
         end;
         i := (!i + 1) land t.mask
       done
     with Exit -> ());
    !res

  let add t key v =
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then grow t;
    insert_raw t key v;
    t.used <- t.used + 1
end

let two_pow_60 = 1.152921504606846976e18

module Make (M : MODEL) = struct
  (* The default polymorphic hash samples only ~10 nodes of a value,
     which collides catastrophically on deep protocol states. *)
  let hash30 s = Hashtbl.hash_param 512 512 s

  (* Two independently seeded traversals give a 60-bit fingerprint for
     the compacted store; the collision-probability bound in [stats]
     assumes these behave as a uniform 60-bit hash. *)
  let fingerprint s =
    let h1 = Hashtbl.seeded_hash_param 512 512 0x9e3779b9 s in
    let h2 = Hashtbl.seeded_hash_param 512 512 0x85ebca6b s in
    (h1 lsl 30) lor h2

  let zero_stats =
    {
      states = 0;
      transitions = 0;
      diameter = 0;
      violation = None;
      violation_state = None;
      violation_path = [];
      doomed = Some 0;
      doomed_example = None;
      goals = 0;
      truncated = false;
      collision_bound = 0.;
    }

  let run ?(max_states = 2_000_000) ?(store = Exact) () =
    match M.initial with
    | [] -> zero_stats
    | first_initial :: _ ->
      let keep_states = store = Exact in
      let key_of = match store with Exact -> fun s -> hash30 s + 1 | Compact -> fun s -> fingerprint s + 1 in
      (* visited set *)
      let tbl = Tbl.create () in
      (* per-state bookkeeping, id-indexed; [states] is only populated
         in [Exact] mode — the compacted store never retains a state
         after its frontier entry is expanded *)
      let states = buf_create (M.canonicalize first_initial) in
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
      let eq =
        match store with
        | Compact -> fun _ _ -> true
        | Exact -> fun id st -> states.arr.(id) = st
      in
      let count = ref 0 in
      let transitions = ref 0 in
      let diameter = ref 0 in
      let goals = ref 0 in
      let violation = ref None in
      let violation_state = ref None in
      let violation_path = ref [] in
      let truncated = ref false in
      let fresh = ref false in
      let initial_by_id = ref [] in
      (* Intern a canonical state; returns its id or -1 when the state
         budget is exhausted. [fresh] reports first-time discovery. *)
      let intern ~pred ~label state =
        let key = key_of state in
        match Tbl.find tbl key eq state with
        | id when id >= 0 ->
          fresh := false;
          id
        | _ ->
          if !count >= max_states then begin
            truncated := true;
            edges := None;
            fresh := false;
            -1
          end
          else begin
            let id = !count in
            incr count;
            Tbl.add tbl key id;
            if keep_states then buf_push states state;
            buf_push pred_id pred;
            buf_push pred_label (if pred < 0 then "" else intern_label label);
            let d = if pred < 0 then 0 else depth.arr.(pred) + 1 in
            buf_push depth d;
            if d > !diameter then diameter := d;
            let g = M.goal state in
            if g then incr goals;
            buf_push goal_flag g;
            fresh := true;
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
      let path_ids id =
        let rec climb i acc =
          let p = pred_id.arr.(i) in
          if p < 0 then i :: acc else climb p (i :: acc)
        in
        climb id []
      in
      (* Path rendering: O(path) via the id-indexed side array in exact
         mode; forward re-execution from the initial state in compact
         mode (the store holds fingerprints only). *)
      let render_path id violating_state =
        let ids = path_ids id in
        match store with
        | Exact -> List.map (fun i -> render states.arr.(i)) ids
        | Compact -> (
          match ids with
          | [] -> []
          | [ _ ] -> [ render violating_state ]
          | root :: rest ->
            let cur = ref (List.assoc root !initial_by_id) in
            let out = ref [ render !cur ] in
            let ok = ref true in
            List.iter
              (fun next_id ->
                if !ok then begin
                  let label = pred_label.arr.(next_id) in
                  match
                    List.find_opt
                      (fun (l, s') ->
                        l = label
                        &&
                        let c = M.canonicalize s' in
                        Tbl.find tbl (key_of c) eq c = next_id)
                      (M.next !cur)
                  with
                  | Some (_, s') ->
                    cur := M.canonicalize s';
                    out := render !cur :: !out
                  | None ->
                    ok := false;
                    out := "<state unrecoverable>" :: !out
                end
                else out := "<state unrecoverable>" :: !out)
              rest;
            List.rev !out)
      in
      let record_violation id state reason =
        violation := Some (reason, trace_to id);
        violation_state := Some (render state);
        violation_path := render_path id state;
        edges := None
      in
      (* Breadth-first search as a plain FIFO. After truncation the
         queue still drains, so every counted state has its invariant
         checked; a violation ends the search. *)
      let queue = Queue.create () in
      List.iter
        (fun s ->
          let c = M.canonicalize s in
          let id = intern ~pred:(-1) ~label:"" c in
          if id >= 0 && !fresh then begin
            initial_by_id := (id, c) :: !initial_by_id;
            Queue.push (id, c) queue
          end)
        M.initial;
      while !violation = None && not (Queue.is_empty queue) do
        let id, state = Queue.pop queue in
        match M.invariant state with
        | Error reason -> record_violation id state reason
        | Ok () ->
          List.iter
            (fun (label, succ) ->
              incr transitions;
              let c = M.canonicalize succ in
              let sid = intern ~pred:id ~label c in
              if sid >= 0 then begin
                record_edge ~child:sid ~parent:id;
                if !fresh then Queue.push (sid, c) queue
              end)
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
      let collision_bound =
        match store with
        | Exact -> 0.
        | Compact ->
          let nf = float_of_int n in
          Float.min 1. (nf *. (nf -. 1.) /. 2. /. two_pow_60)
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
        collision_bound;
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
