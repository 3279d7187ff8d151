module Time = Skyloft_sim.Time

(* Micro-costs, in cycles at 2.0 GHz.  Calibrated so the composed mechanisms
   land on the paper's Table 6 within a few percent.  Only [remote_cacheline],
   [senduipi_sn] and [lapic_timer_program] are exported; the rest only
   compose the mechanisms below. *)

let syscall_entry = 90
let syscall_exit = 140

(* x2APIC ICR MSR write to trigger an IPI. *)
let apic_icr_write = 120

(* UITT lookup + locked OR of the vector bit into the target UPID.PIR. *)
let upid_post = 47

(* Extra sender cost when the target UPID cacheline lives on another
   socket. *)
let remote_upid_touch = 11
let remote_cacheline = 220

(* Core-to-core IPI propagation latency, same socket and cross socket. *)
let ipi_wire_same_socket = 860
let ipi_wire_cross_socket = 1210

(* Hardware moving PIR bits into UIRR when the notification arrives and the
   PIR was written remotely. *)
let uintr_recognition = 100

(* Same, when the PIR was posted by the local core (user timer delegation:
   the self-posted PIR line is already in L1 — this is why receiving a user
   timer interrupt is slightly cheaper than receiving a user IPI). *)
let uintr_recognition_local = 82

(* Hardware push of RIP/RSP/RFLAGS and jump to the UIHANDLER; UIRET. *)
let uintr_ctx_save = 250
let uintr_ctx_restore = 310

(* CPL3 -> CPL0 transition plus vector dispatch; IRET back to user mode. *)
let kernel_intr_entry = 450
let kernel_intr_exit = 730

(* EOI write plus generic kernel IRQ bookkeeping. *)
let irq_ack = 400

(* IDT vectoring cost counted in delivery, before the handler body. *)
let vector_dispatch = 35

(* kill()/tgkill() kernel path: task lookup, sigpending update, locking. *)
let signal_post = 870

(* Return-to-user path that notices and dequeues a pending signal. *)
let signal_dequeue = 1460

(* Building the user-space signal frame; the sigreturn syscall restoring the
   interrupted context. *)
let signal_frame_setup = 2100
let sigreturn = 2680

(* Kernel LAPIC-timer IRQ handler body (setitimer path). *)
let timer_irq_path = 300
let senduipi_sn = upid_post + 76
let lapic_timer_program = 60

type mechanism = {
  name : string;
  send : int option;
  receive : int;
  delivery : int option;
}

let signal =
  {
    name = "Signal";
    send = Some (syscall_entry + signal_post + apic_icr_write + syscall_exit);
    receive =
      kernel_intr_entry + irq_ack + signal_frame_setup + sigreturn + kernel_intr_exit;
    delivery =
      Some (ipi_wire_same_socket + kernel_intr_entry + irq_ack + signal_dequeue
           + signal_frame_setup);
  }

let kernel_ipi =
  {
    name = "Kernel IPI";
    send = Some (syscall_entry + syscall_entry + apic_icr_write + syscall_exit);
    receive = kernel_intr_entry + irq_ack + kernel_intr_exit;
    delivery = Some (ipi_wire_same_socket + kernel_intr_entry + vector_dispatch);
  }

let user_ipi =
  {
    name = "User IPI";
    send = Some (upid_post + apic_icr_write);
    receive = uintr_recognition + uintr_ctx_save + uintr_ctx_restore;
    delivery = Some (ipi_wire_same_socket + uintr_recognition + uintr_ctx_save);
  }

let user_ipi_cross_numa =
  {
    name = "User IPI (cross NUMA nodes)";
    send = Some (upid_post + apic_icr_write + remote_upid_touch);
    receive = uintr_recognition + uintr_ctx_save + uintr_ctx_restore + remote_cacheline;
    delivery =
      Some
        (ipi_wire_cross_socket + uintr_recognition + uintr_ctx_save + remote_cacheline);
  }

let setitimer =
  {
    name = "setitimer";
    send = None;
    receive = kernel_intr_entry + timer_irq_path + signal_frame_setup + sigreturn;
    delivery = None;
  }

let user_timer =
  {
    name = "User timer interrupt";
    send = None;
    receive = uintr_recognition_local + uintr_ctx_save + uintr_ctx_restore;
    delivery = None;
  }

let table6 = [ signal; kernel_ipi; user_ipi; user_ipi_cross_numa; setitimer; user_timer ]

let paper_table6 =
  [
    ("Signal", Some 1224, 6359, Some 5274);
    ("Kernel IPI", Some 437, 1582, Some 1345);
    ("User IPI", Some 167, 661, Some 1211);
    ("User IPI (cross NUMA nodes)", Some 178, 883, Some 1782);
    ("setitimer", None, 5057, None);
    ("User timer interrupt", None, 642, None);
  ]

(* Table 7 (ns). *)
let uthread_yield_ns = 37
let uthread_spawn_ns = 191
let uthread_mutex_ns = 27
let uthread_condvar_ns = 86
let app_switch_ns = 1_905
let linux_ctx_switch_ns = 1_124
let linux_wakeup_switch_ns = 2_471

let pthread_ops_ns =
  [ ("Yield", 898); ("Spawn", 15_418); ("Mutex", 28); ("Condvar", 2_532) ]

let go_ops_ns = [ ("Yield", 108); ("Spawn", 503); ("Mutex", 25); ("Condvar", 262) ]

let skyloft_ops_ns =
  [
    ("Yield", uthread_yield_ns);
    ("Spawn", uthread_spawn_ns);
    ("Mutex", uthread_mutex_ns);
    ("Condvar", uthread_condvar_ns);
  ]

let cyc = Time.of_cycles
let get = function Some x -> x | None -> 0

let uipi_send_ns ~cross_numa =
  cyc (get (if cross_numa then user_ipi_cross_numa.send else user_ipi.send))

let uipi_delivery_ns ~cross_numa =
  cyc (get (if cross_numa then user_ipi_cross_numa.delivery else user_ipi.delivery))

let uipi_receive_ns ~cross_numa =
  cyc (if cross_numa then user_ipi_cross_numa.receive else user_ipi.receive)

let user_timer_receive_ns = cyc user_timer.receive
let senduipi_sn_ns = cyc senduipi_sn
let kipi_send_ns = cyc (get kernel_ipi.send)
let kipi_delivery_ns = cyc (get kernel_ipi.delivery)
let kipi_receive_ns = cyc kernel_ipi.receive

(* A Linux scheduler tick: interrupt entry/exit + timer IRQ + scheduler
   bookkeeping (update_curr and friends, roughly the irq-ack budget). *)
let kernel_tick_ns = cyc (kernel_intr_entry + timer_irq_path + irq_ack + kernel_intr_exit)
