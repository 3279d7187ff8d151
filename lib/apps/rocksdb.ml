module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist

(** RocksDB UDP server model (§5.3, Figure 8b).

    A persistent key-value store serving a bimodal mix: 50% GETs at 0.95 µs
    and 50% SCANs at 591 µs (the paper's measured processing times).  The
    heavy tail makes this the showcase for preemptive work stealing: without
    µs-scale preemption a GET stuck behind a SCAN waits 600x its own
    service time, which is exactly what the 99.9% slowdown metric exposes. *)

let get_service = Time.ns 950
let scan_service = Time.us 591

let service : Dist.t =
  Dist.Bimodal { p_short = 0.5; short = get_service; long = scan_service }

let mean_service_ns = Dist.mean service

let saturation_rps ~cores = float_of_int cores *. 1e9 /. mean_service_ns
