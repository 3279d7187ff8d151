module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro

(** User-level threads — the [task_t] of the paper (§3.3, Table 2).

    A task's shared fields (state, owning application, the policy-defined
    data words) live conceptually in Skyloft's cross-application shared
    memory so any application's copy of the scheduler sees them; the
    context/stack (here: the {!Coro} body and continuation) are private.

    Policy-defined data: the paper reserves one extra field per task for
    the policy.  We provide two floats and one int ([policy_f1],
    [policy_f2], [policy_i]) so CFS (vruntime), EEVDF (deadline + lag) and
    quantum-based policies all fit without per-policy allocation. *)

type state =
  | Runnable  (** in some runqueue *)
  | Running  (** on a CPU *)
  | Blocked  (** waiting for [task_wakeup] *)
  | Exited

type t = {
  app : int;  (** owning application id *)
  name : string;
  mutable state : state;
  mutable body : Coro.t;
  mutable cont : unit -> Coro.t;  (** continuation of the in-flight compute *)
  mutable segment_end : Time.t;
  mutable last_core : int;
  mutable run_start : Time.t;  (** when the task last started running *)
  mutable wake_time : Time.t;
      (** when a wakeup made the task runnable, until its next dispatch
          records the latency; [-1] when none is pending *)
  mutable pending_wake : bool;
  mutable resuming : bool;  (** woken from a block: next dispatch resumes the
                                block continuation instead of re-blocking *)
  mutable track_wakeup : bool;  (** record this task's wakeup latencies in
                                    the runtime histogram (default true) *)
  mutable policy_f1 : float;
  mutable policy_f2 : float;
  mutable policy_i : int;
  mutable arrival : Time.t;  (** request arrival (workload metadata) *)
  mutable service : Time.t;
      (** total service demand (workload metadata); for a submitted stage
          ({!staged}), the compute it has left, rewritten when it is
          preempted or faults *)
  mutable on_exit : t -> unit;
      (** completion callback (default: none).  A spawned task's runs once
          the task has left its unit; a submitted stage's is its stage
          hook, which runs where a spawned task's continuation would: at
          the end of its compute, before the unit is released *)
  mutable killed : bool;
      (** killed at its deadline while in a runqueue; the runtime discards
          it lazily at the next dequeue instead of searching every queue *)
  mutable obs_start : Time.t;
      (** when the runtime first accepted the task (latency-attribution
          epoch; distinct from [arrival], which workloads may backdate) *)
  mutable obs_enq_at : Time.t;  (** last runqueue entry (attribution stamp) *)
  mutable obs_block_at : Time.t;  (** last transition to Blocked *)
  mutable obs_queued_ns : int;  (** accumulated runnable-but-not-running time *)
  mutable obs_overhead_ns : int;
      (** accumulated scheduling overhead charged to this task: switch
          costs at dispatch, preemption delivery, interrupt handling *)
  mutable obs_stall_ns : int;
      (** accumulated fault stall: blocked time plus host-kernel core
          steals that froze the running segment *)
  mutable queued : bool;
      (** in some runqueue right now; written only by {!Runqueue}, which
          keeps a task in at most one queue at a time *)
  mutable request : int;
      (** a submitted stage's request key, which its stage hook reads
          ({!Runtime_core.submit}); [-1] for a spawned task *)
}

val staged : Coro.t
(** The body of every submitted stage, compared physically: the runtime
    runs such a task for its [service] ns and then calls its [on_exit].
    Never a body to interpret. *)

val nil : t
(** The sentinel "no task": an empty runqueue slot, and the [current] of
    a unit that runs nothing.  Never queued, never run. *)

val make :
  app:int -> name:string -> arrival:Time.t -> service:Time.t ->
  on_exit:(t -> unit) -> Coro.t -> t
(** Fresh runnable task, physically distinct from every other.  Every
    argument is required, so a call allocates nothing but the task. *)

val create : app:int -> name:string -> Coro.t -> t
(** {!make} with no arrival, service or completion callback. *)
