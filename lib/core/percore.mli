module Time = Skyloft_sim.Time

(** The per-core scheduling path (Figure 2a), shared by both mechanisms:
    {!Percpu} runs it on every core all the time, {!Hybrid} in its
    [Percore] mode.  Each core picks its next task synchronously (BE
    first inside the allocator's grant, then the policy's dequeue, then
    its balance), and a delegated timer tick or preemption user IPI
    decides whether the running task keeps the core.

    The two callers differ only by values: the queue a preempted LC task
    returns to is the unit's [d_enqueue_cpu]; [quantum] is enforced at
    the tick for policies that leave [sched_timer_tick] to the runtime;
    a unit with an assignment in flight ([incoming] >= 0) is left
    alone; and [park] enables Shenango-style core parking. *)

(** One core's per-core state around its {!Runtime_core.exec}: its kick
    and park timers, park state and last scheduling point. *)
type cpu

val ex : cpu -> Runtime_core.exec

val last_sched : cpu -> Time.t
(** The core's last scheduling point, which the watchdog measures from. *)

val sched_point : cpu -> at:Time.t -> unit
(** Move {!last_sched} to [at], unless it already lies later. *)

type t

val cpus : t -> cpu array
(** In core order: the runtime's [d_units], indexed by [exec_slot]. *)

val parks : t -> int
(** Idle cores parked back to the kernel. *)

val unparks : t -> int
(** Parked cores woken (each paid the resume cost). *)

val create :
  Runtime_core.t ->
  cores:int array ->
  quantum:Time.t ->
  park:(Time.t * Time.t) option ->
  t
(** One [cpu] per core, in order; install [cpus]' execs as the dispatch
    units.  With [park], a core idle for [idle_after] (or at once when the
    policy's [sched_idle_park] says so) parks, and its next dispatch pays
    [resume_cost]. *)

val cpu_of : t -> int -> cpu
(** By core id; raises [Not_found] for an unmanaged core. *)

val cpu_of_unit : t -> Runtime_core.exec -> cpu

val schedule : t -> cpu -> prev:Task.t -> unit
(** Pick and start the core's next task, charging the switch cost
    ([0] when [prev], the task that just left the core or {!Task.nil},
    resumes, a user-level yield within an application,
    the kernel module's switch across) plus any resume and migration
    charge.  A busy, reserved or broker-capped core picks nothing. *)

val steal_time : ?stall:bool -> cpu -> Time.t -> unit
(** Interrupt handling delays the running segment by the cost, charged to
    the task as overhead — or as fault stall when [stall] (host-kernel
    core steals). *)

val stolen_until : t -> cpu -> Time.t
(** When the host kernel hands the core back from its latest steal
    ({!Skyloft_kernel.Kmod.stolen_until}): at or before now, it holds
    nothing. *)

val kick : t -> cpu -> unit
(** Have an idle core reschedule (through [d_reschedule]) once any
    host-kernel steal of it ends; coalesced while one is pending. *)

val kick_idle : t -> unit
(** {!kick} every idle core. *)

val kick_some_idle : t -> unit
(** {!kick} one idle core, if any, so new work gets noticed. *)

val preempt : t -> cpu -> unit
(** Depose the running task, requeue it (BE to the BE queue's head, LC to
    the policy on the unit's [d_enqueue_cpu]) and reschedule.  Only LC
    preemptions count in {!Runtime_core.preemptions}; BE ones count in
    {!Runtime_core.be_preemptions}. *)

val evict : t -> cpu -> unit
(** Evict the task of a broker-capped core: receive cost, then requeue on
    the first unit's queue (the last one a shrink caps) and kick an idle
    core to pick it up. *)

val preempt_be : t -> cpu -> bool
(** Preempt the core's BE task, if it runs one (receive cost charged);
    reports whether it did. *)

val tick_decision : t -> cpu -> unit
(** The decision at a tick or preemption IPI: a capped core {!evict}s; a
    BE task is preempted while BE exceeds its allowance; an LC task when
    the policy's [sched_timer_tick] says so or it has run [quantum]; an
    idle core takes it as a {!kick}. *)

val on_tick : t -> cpu -> unit
(** A delegated timer tick: count it, charge the user-timer receive and
    the SN re-post, then {!tick_decision}. *)
