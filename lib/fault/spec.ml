type t = {
  delay_prob : float;
  delay_min : Sim.Time.t;
  delay_max : Sim.Time.t;
  reorder_prob : float;
  reorder_max : Sim.Time.t;
  dup_prob : float;
  stall_prob : float;
  stall_nodes : int;
  stall_len : Sim.Time.t;
  stall_period : Sim.Time.t;
  drop_prob : float;
  drop_tokens : bool;
  duplicate_tokens : bool;
  crashes : int;
  crash_down : Sim.Time.t;
}

let none =
  {
    delay_prob = 0.;
    delay_min = Sim.Time.zero;
    delay_max = Sim.Time.zero;
    reorder_prob = 0.;
    reorder_max = Sim.Time.zero;
    dup_prob = 0.;
    stall_prob = 0.;
    stall_nodes = 0;
    stall_len = Sim.Time.zero;
    stall_period = Sim.Time.ns 1_000;
    drop_prob = 0.;
    drop_tokens = false;
    duplicate_tokens = false;
    crashes = 0;
    crash_down = Sim.Time.ns 10_000;
  }

let default =
  {
    none with
    delay_prob = 0.01;
    delay_min = Sim.Time.ns 200;
    delay_max = Sim.Time.ns 2_000;
    reorder_prob = 0.05;
    reorder_max = Sim.Time.ns 60;
    dup_prob = 0.02;
    stall_prob = 0.3;
    stall_nodes = 1;
    stall_len = Sim.Time.ns 500;
    stall_period = Sim.Time.ns 5_000;
  }

let random rng =
  let f x = Sim.Rng.float rng x in
  {
    delay_prob = f 0.03;
    delay_min = Sim.Time.ns (Sim.Rng.int_in rng 100 400);
    delay_max = Sim.Time.ns (Sim.Rng.int_in rng 500 4_000);
    reorder_prob = f 0.1;
    reorder_max = Sim.Time.ns (Sim.Rng.int_in rng 10 120);
    dup_prob = f 0.05;
    stall_prob = f 0.5;
    stall_nodes = Sim.Rng.int_in rng 1 2;
    stall_len = Sim.Time.ns (Sim.Rng.int_in rng 200 1_500);
    stall_period = Sim.Time.ns (Sim.Rng.int_in rng 3_000 10_000);
    drop_prob = 0.;
    drop_tokens = false;
    duplicate_tokens = false;
    crashes = 0;
    crash_down = Sim.Time.ns 10_000;
  }

let with_drops ?(tokens = false) ~prob t =
  { t with drop_prob = prob; drop_tokens = tokens }

let with_crashes ~count t = { t with crashes = count; crash_down = Sim.Time.ns 10_000 }

let delay_only t =
  { t with dup_prob = 0.; drop_prob = 0.; drop_tokens = false; duplicate_tokens = false }

let pp fmt t =
  let pct x = 100. *. x in
  Format.fprintf fmt
    "delay %.1f%%[%a..%a] reorder %.1f%%[<=%a] dup %.1f%% stall %.1f%%x%d[%a/%a] drop %.1f%%%s%s"
    (pct t.delay_prob) Sim.Time.pp t.delay_min Sim.Time.pp t.delay_max (pct t.reorder_prob)
    Sim.Time.pp t.reorder_max (pct t.dup_prob) (pct t.stall_prob) t.stall_nodes Sim.Time.pp
    t.stall_len Sim.Time.pp t.stall_period (pct t.drop_prob)
    (if t.drop_tokens then " +drop-tokens" else "")
    (if t.duplicate_tokens then " +dup-tokens" else "");
  if t.crashes > 0 then
    Format.fprintf fmt " crashes=%dx[%a down]" t.crashes Sim.Time.pp t.crash_down
