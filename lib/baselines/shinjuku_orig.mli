module Time = Skyloft_sim.Time

(** Original Shinjuku model (§5.2 comparator): Dune posted-interrupt
    preemption over a dedicated-dispatcher global queue.  Costs are a
    small multiple of user IPIs — hence near-parity with Skyloft in
    Figure 7a — but cores are dedicated to one application, so its batch
    share in Figure 7c is identically zero (never attach a BE app). *)

val make :
  Skyloft_hw.Machine.t ->
  Skyloft_kernel.Kmod.t ->
  dispatcher_core:int ->
  worker_cores:int list ->
  quantum:Time.t ->
  Skyloft.Sched_ops.ctor ->
  Skyloft.Hybrid.t
