
(** Generic UDP request server over the Skyloft per-CPU runtime (§3.5):
    each NIC queue is bound to one isolated core; an arriving packet spawns
    a user thread on that core that performs the request's CPU work and
    replies.  Latency is measured wire-arrival to completion, so ring and
    queueing delays count — as they do for the paper's open-loop clients. *)

val attach :
  Skyloft.Percpu.t ->
  Skyloft.App.t ->
  Skyloft_net.Nic.t ->
  cores:int list ->
  unit
(** Bind NIC queue [i] to the [i]-th core of [cores].  The number of queues
    must equal the number of cores.  For NICs in [Spin] or [Periodic]
    mode. *)

val attach_irq :
  Skyloft.Percpu.t ->
  Skyloft.App.t ->
  Skyloft_net.Nic.t ->
  cores:int list ->
  unit
(** Interrupt-driven variant (§6): for a NIC created in [Msi] mode
    targeting [cores].  Registers a user-space driver on
    {!Skyloft_hw.Vectors.uvec_nic} that drains the ring and spawns one
    thread per request — no polling core, no kernel in the path. *)
