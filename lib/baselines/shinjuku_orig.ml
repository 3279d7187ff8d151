module Time = Skyloft_sim.Time
module Hybrid = Skyloft.Hybrid

(** Original Shinjuku model (§5.2 comparator).

    Shinjuku runs inside Dune and preempts workers with virtualization
    posted interrupts; its dispatcher spins on a dedicated core over a
    single global queue.  Preemption costs are a small multiple of user
    IPIs ({!Skyloft.Hybrid.shinjuku_mechanism}), which is why the
    paper finds Skyloft and Shinjuku nearly indistinguishable on the
    single-workload experiment (Figure 7a).

    The structural difference is multi-application support: Shinjuku
    dedicates its cores to one application, so in the co-location
    experiment its batch CPU share is identically zero (Figure 7c) — here,
    simply never attach a BE application.  The dispatcher is the pinned
    serial dispatcher of {!Skyloft.Hybrid}. *)

let make machine kmod ~dispatcher_core ~worker_cores ~quantum policy =
  Hybrid.create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ~adaptive:false ~mechanism:Hybrid.shinjuku_mechanism policy
