(** Interrupt vector numbers of the simulated machine, mirroring the x86
    layout, plus the 0-63 user-interrupt request indices Skyloft posts
    into the PIR. *)

type t = int

val timer : t
(** LAPIC timer vector. *)

val uintr_notification : t
(** UINTR notification vector (default UINV for user IPIs). *)

val uvec_timer : int
(** User-vector index for delegated timer interrupts. *)

val uvec_preempt : int
(** User-vector index for preemption IPIs. *)

val uvec_nic : int
(** User-vector index for delegated NIC interrupts (§6 extension). *)
