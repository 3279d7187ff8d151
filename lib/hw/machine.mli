module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine

(** The simulated machine: cores, interrupt wires, LAPIC timers, and the
    UINTR architectural state machine.

    The machine is policy-free.  Operating-system layers (the simulated Linux
    kernel, the Skyloft LibOS) install handlers on cores; the machine routes
    hardware events to them with the latencies from {!Costs}.

    {2 UINTR model}

    Each potential receiver (one per kernel thread that called
    [uintr_register_handler]) owns a {!uintr_ctx} holding the architectural
    UPID (PIR + SN) plus the UINV / UIRR / UIHANDLER state the kernel
    context-switches with the thread.  A context is {e installed} on a core
    when its thread is the one running there; only then can user interrupts
    actually be delivered.  [senduipi] always posts to the PIR; it generates
    a physical notification IPI only when SN is clear, matching the Intel
    semantics the paper exploits (§3.2):

    - posting with SN set updates the PIR silently — this is the self-post
      trick that lets a hardware timer interrupt be recognised as a user
      interrupt;
    - a notification arriving while the PIR is empty is dropped — this is
      why timer delegation needs the PIR pre-populated, and why the handler
      must re-post before returning (Listing 1, line 5). *)

type vector = int

type uintr_ctx
(** Architectural user-interrupt receiver state for one thread. *)

type t

type core
(** One physical core of the machine. *)

val create : Engine.t -> Topology.t -> t
val engine : t -> Engine.t
val n_cores : t -> int
val core : t -> int -> core

(** {1 Kernel-level interrupt plumbing} *)

val set_kernel_handler : core -> (vector -> unit) -> unit
(** Install the kernel's interrupt handler (IDT) for this core.  Receives
    every vector that is not consumed by an installed UINTR context. *)

val mask_interrupts : core -> unit
(** Defer interrupt delivery (cli).  Arriving vectors queue up. *)

val unmask_interrupts : core -> unit
(** Re-enable delivery (sti) and synchronously deliver deferred vectors in
    arrival order. *)

val interrupts_masked : core -> bool

val send_ipi : t -> src:int -> dst:int -> vector -> unit
(** Kernel IPI: arrives at [dst] after the kernel-IPI delivery latency. *)

(** {1 Interrupt fault injection}

    An optional machine-wide hook (installed by the {!Skyloft_fault}
    injector) decides the fate of every interrupt about to be delivered:
    IPIs in {!send_ipi} and local LAPIC timer expiries.  Without a hook
    nothing changes — no extra events, no RNG draws — so fault-free runs
    stay bit-identical. *)

type fate = Deliver | Drop | Delay of Time.t

val set_fault_hook : t -> (core:int -> vector -> fate) -> unit
(** Install the interrupt-fate hook.  [core] is the delivery target. *)

val fault_fate : t -> core:int -> vector -> fate
(** Consult the hook; [Deliver] when none is installed.  Runtimes that
    model notification latency outside {!send_ipi} (the centralized
    dispatcher) call this on their modelled delivery path so injected IPI
    loss reaches them too.  {!Skyloft_fault.Injector} counts every drop and
    delay it decides. *)

(** {1 LAPIC timer} *)

val timer_set_periodic : t -> core:int -> hz:int -> unit
(** Program the core-local timer to fire {!Vectors.timer} at [hz] Hz.
    Re-programming replaces the previous period. *)

val timer_hz : core -> int

(** {1 UINTR receiver side} *)

val uintr_create_ctx : unit -> uintr_ctx
(** Fresh receiver state: empty PIR, SN clear, no handler. *)

val uintr_register_handler :
  uintr_ctx -> uinv:vector -> (uintr_ctx -> uvec:int -> unit) -> unit
(** Set UIHANDLER and UINV.  The handler receives the receiving context
    and the user-vector index (0..63) recovered from the UIRR, so one
    handler can serve every context on a core. *)

val uintr_set_uinv : uintr_ctx -> vector -> unit
(** Change the notification vector the receiver recognises.  Setting it to
    {!Vectors.timer} is the first half of the timer-delegation trick
    (privileged: done by the Skyloft kernel module). *)

val uintr_set_sn : uintr_ctx -> bool -> unit
val uintr_sn : uintr_ctx -> bool
val uintr_pir_pending : uintr_ctx -> bool

val uintr_install : t -> core:int -> uintr_ctx -> unit
(** Make [ctx] the running receiver on [core] (the kernel does this when it
    switches in the owning thread).  If the PIR already has posted bits,
    recognition happens immediately — pending user interrupts fire.

    A core holds its installed context as a plain value, a shared sentinel
    context (never written) when none is installed, and a context records
    the core it is installed on as an int ([-1] for none).  So an install
    that recognises nothing allocates nothing, and stores no young value
    into an older record: an app switch ([Kmod.switch_to]) costs no minor
    allocation and no remembered-set entry. *)

val uintr_installed : t -> core:int -> uintr_ctx option
(** The receiver installed on [core], [None] before the first install.
    Off the hot path: the option is built per call. *)

(** {1 UINTR sender side} *)

val senduipi : t -> src_core:int -> uintr_ctx -> uvec:int -> unit
(** Post user interrupt [uvec] to the receiver: set PIR bit; if SN is clear
    and the context is installed on some core, send the notification IPI
    (arriving with the user-IPI delivery latency, cross-NUMA aware).  If SN
    is set, only the PIR is updated — no IPI (the §3.2 self-post). *)

(** {1 Statistics} *)

val user_interrupts_delivered : core -> int
val dropped_notifications : core -> int
(** Notifications that arrived with an empty PIR (the §3.2 trap for the
    unwary: a timer interrupt delegated to user space without pre-posting). *)
