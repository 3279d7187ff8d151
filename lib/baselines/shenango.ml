module Percpu = Skyloft.Percpu

(** Shenango model (§5.3 comparator).

    Shenango is a user-level runtime with cooperative work stealing and an
    IOKernel that reallocates cores between applications every ~5 µs.  Two
    properties matter for the paper's comparison:

    - {e no µs-scale preemption within an application}: a 591 µs SCAN
      holds its core until it finishes, so heavy-tailed workloads blow
      through slowdown SLOs early (Figure 8b);
    - {e core parking}: idle cores are yielded back to the IOKernel, so a
      burst that needs the core back pays a kernel wakeup — the small
      low-load tail-latency penalty visible in Figure 8a.

    Both are configuration, not new machinery: work stealing without a
    quantum, plus the runtime's park option (re-adding a core goes through
    the IOKernel and a kernel wakeup). *)

let make machine kmod ~cores =
  Percpu.create machine kmod ~cores ~preemption:false
    ~park:Skyloft_policies.Work_stealing.park
    (Skyloft_policies.Work_stealing.create ())
