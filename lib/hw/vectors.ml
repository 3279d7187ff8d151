(** Interrupt vector numbers used by the simulated machine.

    The actual values only need to be distinct; they mirror the x86 layout
    where the LAPIC timer and the UINTR notification vector are high
    platform vectors. *)

type t = int

(* LAPIC timer vector (Linux uses 0xec). *)
let timer : t = 0xec

(* UINTR notification vector used for user IPIs (the UINV value a receiver
   configures when it only expects SENDUIPI-generated interrupts). *)
let uintr_notification : t = 0xe5

(* User-interrupt *request* numbers (the 0-63 index posted into the PIR) are
   a separate small space; by convention Skyloft uses: *)
let uvec_preempt = 1
let uvec_timer = 0

(* User-delegated NIC MSI (the §6 "peripheral interrupts" extension). *)
let uvec_nic = 2
