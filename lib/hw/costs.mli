module Time = Skyloft_sim.Time

(** Mechanism cost model.

    Every latency used by the simulation is composed here from named
    micro-costs (syscall entry/exit, APIC ICR write, UPID posting, interrupt
    ring switches, signal frames, ...).  The compositions reproduce the
    paper's Table 6 ("Preemption mechanism comparison") and the §5.4
    microbenchmarks; the same micro-costs drive the figure-level experiments,
    so the figures inherit their shape from the mechanism model validated by
    the tables.

    All values are in cycles unless the name says [_ns]; the machine runs at
    2.0 GHz so 1 cycle = 0.5 ns ({!Skyloft_sim.Time.of_cycles}). *)

(** {1 Micro-costs (cycles)}

    The other micro-costs only compose the mechanisms below; they live in
    costs.ml with their calibration notes. *)

val remote_cacheline : int
(** Receiver-side cross-socket cacheline transfer (reading a PIR written on
    the other socket). *)

val senduipi_sn : int
(** SENDUIPI with UPID.SN set: posts to PIR without generating an IPI.
    Used inside the user timer-interrupt handler to re-arm delegation
    (§3.2); the paper measures ~123 cycles (§5.4). *)

val lapic_timer_program : int
(** Writing the LAPIC initial-count / deadline register. *)

(** {1 Composed mechanisms (Table 6)} *)

type mechanism = {
  name : string;
  send : int option;  (** sender-side cycles; [None] for local timers *)
  receive : int;  (** receiver-side handling cycles, save + handler + restore *)
  delivery : int option;
      (** cycles from send to handler entry; [None] for local timers *)
}

val signal : mechanism
val kernel_ipi : mechanism
val user_ipi : mechanism
val user_ipi_cross_numa : mechanism
val setitimer : mechanism
val user_timer : mechanism

val table6 : mechanism list
(** All six rows, in the paper's order. *)

val paper_table6 : (string * int option * int * int option) list
(** The numbers printed in the paper, for side-by-side reporting. *)

(** {1 Thread and scheduler operation costs (§5.4, Table 7)} *)

val uthread_yield_ns : Time.t

val app_switch_ns : Time.t
(** Skyloft inter-application switch through the kernel module (§5.4:
    1,905 ns). *)

val linux_ctx_switch_ns : Time.t
(** Linux kernel-thread switch, both runnable (§5.4: 1,124 ns). *)

val linux_wakeup_switch_ns : Time.t
(** Linux switch requiring a wakeup (§5.4: 2,471 ns). *)

val pthread_ops_ns : (string * Time.t) list
val go_ops_ns : (string * Time.t) list
val skyloft_ops_ns : (string * Time.t) list
(** Table 7 model columns: yield / spawn / mutex / condvar. *)

(** {1 Derived simulation charges (ns)} *)

val uipi_send_ns : cross_numa:bool -> Time.t
val uipi_delivery_ns : cross_numa:bool -> Time.t
val uipi_receive_ns : cross_numa:bool -> Time.t
val user_timer_receive_ns : Time.t
val senduipi_sn_ns : Time.t
val kipi_send_ns : Time.t
val kipi_delivery_ns : Time.t
val kipi_receive_ns : Time.t
val kernel_tick_ns : Time.t
(** Cost of one Linux scheduler tick in the kernel (irq + sched path). *)
