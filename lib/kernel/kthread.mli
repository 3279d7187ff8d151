module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro

(** Kernel threads (Linux [task_struct] model): the scheduling unit of the
    Linux scheduler models ({!Linux}).  The per-class scheduling fields
    (vruntime, EEVDF deadline/lag, RR slice) live here so scheduler
    classes stay stateless. *)

type state =
  | Ready  (** runnable, waiting in some runqueue *)
  | Running  (** currently on a CPU *)
  | Blocked  (** waiting for a wakeup (futex, I/O, ...) *)
  | Exited

type t = {
  mutable state : state;
  mutable last_core : int;  (** last core this thread ran on *)
  mutable body : Coro.t;  (** what the thread does when next dispatched *)
  mutable cont : unit -> Coro.t;  (** continuation of the in-flight compute *)
  mutable segment_end : Time.t;  (** absolute end of the in-flight compute *)
  mutable wake_time : Time.t option;  (** set by wakeup, cleared when it runs:
                                          wakeup-latency probe *)
  mutable pending_wake : bool;  (** a wakeup arrived while not blocked; the
                                    next block consumes it immediately
                                    (futex/semaphore semantics) *)
  mutable resuming : bool;  (** woken from a block: the next dispatch resumes
                                the block continuation instead of re-blocking *)
  mutable track_wakeup : bool;  (** record wakeup latencies for this thread *)
  mutable vruntime : float;  (** CFS / EEVDF virtual time, ns *)
  mutable deadline : float;  (** EEVDF virtual deadline, ns *)
  mutable lag : float;  (** EEVDF lag at dequeue, ns *)
  mutable slice_left : Time.t;  (** RR remaining slice *)
  mutable slice_start : Time.t;  (** when the current slice started *)
  weight : int;  (** load weight; 1024 = nice 0 *)
}

val create : ?weight:int -> Coro.t -> t

