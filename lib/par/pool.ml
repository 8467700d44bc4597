type error = { index : int; label : string; exn : exn; backtrace : string }

exception Job_failed of error

let () =
  Printexc.register_printer (function
    | Job_failed e ->
      Some
        (Printf.sprintf "Pool.Job_failed(job %d: %s): %s" e.index e.label
           (Printexc.to_string e.exn))
    | _ -> None)

let jobs_from_env () =
  match Sys.getenv_opt "TOKENCMP_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let resolve_jobs ?requested () =
  match requested with
  | Some n when n >= 1 -> n
  | Some _ -> Domain.recommended_domain_count ()
  | None -> ( match jobs_from_env () with Some n -> n | None -> 1)

let default_label i _ = "job-" ^ string_of_int i

(* Strictly left-to-right serial execution: the [jobs <= 1] reference
   semantics the parallel path must reproduce. *)
let map_serial ~label f xs =
  let rec go i acc = function
    | [] -> List.rev acc
    | x :: rest -> (
      match f x with
      | r -> go (i + 1) (r :: acc) rest
      | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        raise (Job_failed { index = i; label = label i x; exn; backtrace }))
  in
  go 0 [] xs

let map ?(jobs = 1) ?label f xs =
  let label = match label with Some l -> l | None -> default_label in
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then map_serial ~label f xs
  else begin
    let inputs = Array.of_list xs in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    (* Each worker claims the next unclaimed index; distinct jobs write
       to distinct slots, and [Domain.join] publishes them to the
       caller. Job identity, not worker identity, orders the output. *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f inputs.(i) with
        | r -> results.(i) <- Some r
        | exception exn ->
          let backtrace = Printexc.get_backtrace () in
          errors.(i) <- Some { index = i; label = label i inputs.(i); exn; backtrace });
        worker ()
      end
    in
    let workers = min jobs n in
    let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain pulls jobs too, so [jobs] counts it. *)
    worker ();
    List.iter Domain.join domains;
    (* Lowest submission index wins: deterministic attribution no
       matter which worker hit its failure first. *)
    Array.iter (function Some e -> raise (Job_failed e) | None -> ()) errors;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false (* every index claimed *)) results)
  end
