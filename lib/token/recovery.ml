let recreation_timeout = Sim.Time.ns 5_000
let bump_retry = Sim.Time.ns 5_000
let refresh_interval = Sim.Time.ns 10_000
let lease = Sim.Time.ns 30_000

(* Two rounds, each of which may wait out a cache down for 20 us. *)
let worst_case_latency =
  2 * (recreation_timeout + Sim.Time.ns 20_000 + (3 * bump_retry) + lease)
