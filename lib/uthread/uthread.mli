(** Real user-level threads on OCaml 5 effect handlers.

    This is the live counterpart of the simulated LibOS: an M:1
    cooperative threading runtime whose spawn/yield/join cost no kernel
    involvement at all — the property Table 7 quantifies (37 ns yields vs
    898 ns for pthreads on the paper's hardware).
    [examples/uthreads_demo.ml] times these operations for Table 7's
    measured column and runs real closures under Skyloft-style
    scheduling.

    Preemption is cooperative only: a GC'd runtime cannot take a user
    interrupt mid-increment, which is precisely why the simulation models
    preemption in virtual time (see DESIGN.md).  All operations must be
    called from inside [run]. *)

type t
(** A thread handle. *)

val run : (unit -> unit) -> unit
(** [run main] executes [main] as the first thread and schedules spawned
    threads round-robin until every thread has finished.  Nested [run]s
    are not allowed. *)

val spawn : (unit -> unit) -> t
(** Create a runnable thread.  It first runs at the spawner's next yield
    point. *)

val yield : unit -> unit
(** Reschedule: put the current thread at the tail of the run queue and
    run the next one. *)

val join : t -> unit
(** Block until the thread finishes.  Immediate if it already has. *)

val finished : t -> bool

val self_id : unit -> int
(** Dense id of the running thread (0 is the [run] main thread). *)

exception Deadlock of string
(** Raised by [run] when threads remain but none is runnable. *)

(** Mutual exclusion with a FIFO wait queue. *)
module Mutex : sig
  type mutex

  val create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  (** Raises [Invalid_argument] if the lock is not held. *)
end

(** Condition variables (always used with a {!Mutex.mutex}). *)
module Condvar : sig
  type condvar

  val create : unit -> condvar
  val wait : condvar -> Mutex.mutex -> unit
  (** Atomically release the mutex and sleep; re-acquires before
      returning. *)

  val signal : condvar -> unit
  (** Wake one waiter (no-op when none). *)

  val broadcast : condvar -> unit
end
