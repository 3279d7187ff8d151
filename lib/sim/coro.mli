(** Simulated thread bodies.

    A [t] describes what a simulated thread does next, in
    continuation-passing style.  Runtimes (the Linux scheduler model, the
    Skyloft LibOS) interpret these descriptions: [Compute] consumes virtual
    CPU time and can be sliced by preemption at any instant; [Block]
    suspends until an external [wakeup]; [Yield] voluntarily releases the
    CPU.  Because the continuation is only invoked when the previous step
    finishes, bodies can carry arbitrary state in their closures. *)

type t =
  | Compute of Time.t * (unit -> t)
      (** run for the given virtual duration, then continue *)
  | Block of (unit -> t)
      (** block; the continuation runs after an external wakeup *)
  | Yield of (unit -> t)  (** release the CPU voluntarily, stay runnable *)
  | Exit  (** terminate the thread *)

val compute_then_exit : Time.t -> t
(** One burst of work, then exit. *)
