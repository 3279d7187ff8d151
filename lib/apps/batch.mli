module Time = Skyloft_sim.Time

(** Best-effort batch application: endless CPU-bound work in chunk-sized
    pieces, yielding between chunks so higher-priority work gets in at
    the next scheduling point (Figure 7c's measured co-tenant). *)

val spawn_workers :
  Skyloft.Runtime_core.t -> Skyloft.App.t -> workers:int -> chunk:Time.t -> unit
