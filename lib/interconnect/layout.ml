type kind =
  | L1d of { cmp : int; proc : int }
  | L1i of { cmp : int; proc : int }
  | L2 of { cmp : int; bank : int }
  | Mem of { cmp : int }

type t = { ncmp : int; procs_per_cmp : int; banks_per_cmp : int }

let create ~ncmp ~procs_per_cmp ~banks_per_cmp =
  assert (ncmp > 0 && procs_per_cmp > 0 && banks_per_cmp > 0);
  { ncmp; procs_per_cmp; banks_per_cmp }

let stride t = (2 * t.procs_per_cmp) + t.banks_per_cmp + 1
let node_count t = t.ncmp * stride t
let nprocs t = t.ncmp * t.procs_per_cmp
let caches_per_cmp t = (2 * t.procs_per_cmp) + t.banks_per_cmp
let ncaches t = t.ncmp * caches_per_cmp t

let kind t id =
  let s = stride t in
  let cmp = id / s and off = id mod s in
  assert (cmp < t.ncmp);
  if off < t.procs_per_cmp then L1d { cmp; proc = off }
  else if off < 2 * t.procs_per_cmp then L1i { cmp; proc = off - t.procs_per_cmp }
  else if off < caches_per_cmp t then L2 { cmp; bank = off - (2 * t.procs_per_cmp) }
  else Mem { cmp }

let cmp_of t id = id / stride t

let is_cache t id = id mod stride t < caches_per_cmp t
let is_mem t id = not (is_cache t id)
let is_l1 t id = id mod stride t < 2 * t.procs_per_cmp

let l1d t ~cmp ~proc = (cmp * stride t) + proc
let l1i t ~cmp ~proc = (cmp * stride t) + t.procs_per_cmp + proc
let l2 t ~cmp ~bank = (cmp * stride t) + (2 * t.procs_per_cmp) + bank
let mem t ~cmp = (cmp * stride t) + caches_per_cmp t

let proc_of_l1 t id =
  match kind t id with
  | L1d { cmp; proc } | L1i { cmp; proc } -> (cmp * t.procs_per_cmp) + proc
  | L2 _ | Mem _ -> invalid_arg "Layout.proc_of_l1: not an L1"

let l1d_of_proc t p = l1d t ~cmp:(p / t.procs_per_cmp) ~proc:(p mod t.procs_per_cmp)
let cmp_of_proc t p = p / t.procs_per_cmp

let l1s_of_cmp t cmp =
  List.init (2 * t.procs_per_cmp) (fun i -> (cmp * stride t) + i)

let l2s_of_cmp t cmp =
  List.init t.banks_per_cmp (fun b -> l2 t ~cmp ~bank:b)

let caches_of_cmp t cmp =
  List.init (caches_per_cmp t) (fun i -> (cmp * stride t) + i)

let all_caches t =
  List.concat (List.init t.ncmp (fun cmp -> caches_of_cmp t cmp))

let all_mems t = List.init t.ncmp (fun cmp -> mem t ~cmp)

(* Every node of one chip, memory controller included — the per-site
   mask the fabric's local/remote split works in. *)
let nodes_of_cmp t cmp = List.init (stride t) (fun i -> (cmp * stride t) + i)

let all_nodes t = List.init (node_count t) (fun i -> i)

(* Destset twins of the list accessors. Called at component-creation
   time so protocols can precompute broadcast masks; the hot paths then
   never rebuild these. *)
let all_caches_set t = Destset.of_list (all_caches t)
let all_nodes_set t = Destset.of_list (all_nodes t)
let nodes_of_cmp_set t cmp = Destset.of_list (nodes_of_cmp t cmp)
let l1s_of_cmp_set t cmp = Destset.of_list (l1s_of_cmp t cmp)
let all_l1s_set t = Destset.of_list (List.concat (List.init t.ncmp (l1s_of_cmp t)))

let pp_node t fmt id =
  match kind t id with
  | L1d { cmp; proc } -> Format.fprintf fmt "L1d[%d.%d]" cmp proc
  | L1i { cmp; proc } -> Format.fprintf fmt "L1i[%d.%d]" cmp proc
  | L2 { cmp; bank } -> Format.fprintf fmt "L2[%d.%d]" cmp bank
  | Mem { cmp } -> Format.fprintf fmt "Mem[%d]" cmp
