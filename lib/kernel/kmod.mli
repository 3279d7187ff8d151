module Time = Skyloft_sim.Time
module Machine = Skyloft_hw.Machine

(** The Skyloft kernel module (the [/dev/skyloft] ioctl surface, §4.2).

    Tracks one kernel thread per (application, isolated core) pair and
    enforces the paper's Single Binding Rule:

    {e No two or more active kernel threads may be bound to the same
    isolated core simultaneously (§3.3).}

    Violations raise [Binding_rule_violation] — they indicate a scheduler
    bug, exactly the class of error the rule exists to exclude.  Operations
    return the virtual-time cost the caller must charge (the §5.4 switch
    costs); the kernel module itself never advances the clock. *)

exception Binding_rule_violation of string

type kthread

type t

val create : Machine.t -> t

val park_on_cpu : t -> app:int -> core:int -> kthread
(** [skyloft_park_on_cpu]: create a kernel thread for application [app],
    bind it to [core], and suspend it (inactive).  Its UINTR receiver
    context exists from birth so senders can target it while parked. *)

val activate : t -> kthread -> Time.t
(** [skyloft_wakeup]: make a parked kthread the active one on its core.
    Raises {!Binding_rule_violation} if another kthread is already active
    there.  Installs the kthread's UINTR context on the core.  Returns the
    kernel wakeup cost to charge. *)

val switch_to : t -> from:kthread -> target:kthread -> Time.t
(** [skyloft_switch_to]: atomically suspend [from] and activate [target] on
    the same core, swapping the installed UINTR context.  Returns the
    inter-application switch cost (§5.4: 1,905 ns).  Raises
    {!Binding_rule_violation} if [from] is not active, if the two kthreads
    are bound to different cores, or if [from == target]. *)

val active_on : t -> core:int -> kthread option
val is_active : kthread -> bool
val uintr_ctx : kthread -> Machine.uintr_ctx
val kthreads_on : t -> core:int -> kthread list

(** {1 User-interrupt / timer configuration (ioctl lower half)} *)

val timer_enable : t -> kthread -> unit
(** [skyloft_timer_enable]: switch the kthread's UINV to the hardware timer
    vector and set UPID.SN, so LAPIC timer interrupts on its core are
    recognised as user interrupts while it runs (§3.2).  The LibOS must
    still prime the PIR with a self-SENDUIPI before the first timer fires. *)

val timer_set_hz : t -> core:int -> hz:int -> Time.t
(** [skyloft_timer_set_hz]: program the core's LAPIC timer.  Returns the
    MSR-write cost. *)

(** {1 Imperfect isolation (fault injection)}

    In practice "isolated" cores are not: the host kernel can still run
    bound workqueues, vmstat updates, or an RT throttling tick on them.
    {!steal_core} models the core vanishing for a bounded interval —
    interrupts are masked for the duration (arriving vectors queue and
    replay at hand-back, exactly like a real kernel-mode burst), and the
    owning runtime's registered handler is told so it can freeze the
    running task's progress. *)

val steal_core : t -> core:int -> duration:Time.t -> unit
(** The host kernel takes [core] for [duration] nanoseconds starting now.
    Overlapping steals extend the outage rather than ending it early. *)

val on_steal : t -> core:int -> (duration:Time.t -> unit) -> unit
(** Register the runtime-side reaction for steals of [core] (at most one;
    later registrations replace earlier ones).  Called synchronously at
    the start of each steal. *)

val stolen_until : t -> core:int -> Time.t
(** End of the latest steal of [core] (0 if none): the core is stolen
    while this lies after now.  It is already set when the {!on_steal}
    handler runs.  [core] must be a core of the machine. *)

val steals : t -> int
(** Total {!steal_core} invocations so far. *)

(** [register_metrics t reg] registers the kernel module's counters (under
    [skyloft_kmod_*]).  Pull-based; never perturbs the simulation. *)
val register_metrics : t -> Skyloft_obs.Registry.t -> unit
