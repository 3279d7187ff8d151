(** Shenango model (§5.3 comparator): cooperative work stealing with
    IOKernel-style core parking — no µs-scale preemption within an
    application (the Figure 8b failure mode) and a kernel wakeup to
    re-engage a parked core (the Figure 8a low-load penalty). *)

val make :
  Skyloft_hw.Machine.t -> Skyloft_kernel.Kmod.t -> cores:int list -> Skyloft.Percpu.t
