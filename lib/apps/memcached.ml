module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist

(** Memcached model (§5.3, Figure 8a).

    An in-memory key-value store under Meta's USR workload: 99.8% GETs,
    0.2% SETs, light-tailed service times.  GETs hash and read one value
    (~4 us of CPU on the paper's 2 GHz cores including the network stack);
    SETs additionally allocate and write (~6 us).  Because the workload is
    light-tailed, preemption buys nothing — this is the experiment where
    Skyloft's job is simply to match Shenango's work stealing. *)

let get_fraction = 0.998

(* One distribution view of the USR mix, for the load generator. *)
let service : Dist.t =
  Dist.Bimodal
    {
      p_short = get_fraction;
      short = Time.ns 4_000;
      long = Time.ns 6_000;
    }

let mean_service_ns = Dist.mean service

(** Offered load that saturates [cores] workers, before overheads. *)
let saturation_rps ~cores = float_of_int cores *. 1e9 /. mean_service_ns
