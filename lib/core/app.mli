module Summary = Skyloft_stats.Summary
module Attribution = Skyloft_obs.Attribution

(** Applications scheduled by Skyloft.

    An application owns user threads and, per isolated core, one kernel
    thread managed by the kernel module (§3.3).  The runtime accounts CPU
    time ([busy_ns]) per application — the basis of the CPU-share
    measurements in Figure 7c — and each application carries a
    {!Summary.t} for its request metrics. *)

type t = {
  id : int;
  name : string;
  mutable busy_ns : int;  (** accumulated worker CPU time *)
  mutable spawned : int;
  mutable completed : int;
  mutable tasks_alive : int;
  summary : Summary.t;
  attribution : Attribution.t;
      (** per-request latency attribution (queueing / service / overhead /
          stall segments), recorded by the runtimes alongside [summary] *)
}

val create : id:int -> name:string -> t
(** Fresh application with the given id (positive; id 0 is the runtime's
    daemon).  Ids are allocated per run by {!Runtime_core} — there is no
    process-wide counter, so simulations in different domains can never
    race or perturb each other's ids.
    @raise Invalid_argument if [id <= 0]. *)

val daemon : unit -> t
(** The Skyloft daemon pseudo-application (id 0): owns the idle loops. *)

val none : t
(** The sentinel "no application" (id [-2], which no task and no pending
    assignment carries: an empty assignment slot is [-1]).  Shared and
    never written. *)

val cpu_share : t -> total_ns:int -> float
(** Fraction of [total_ns] this application spent running. *)
