module Coro = Skyloft_sim.Coro
module Histogram = Skyloft_stats.Histogram

(** A scheduler-neutral way for workloads to spawn and wake threads.

    schbench runs unchanged on the Linux scheduler model and on the Skyloft
    runtime (Figure 5 compares exactly that); this record is the small
    surface it needs. *)

type handle

type t = {
  spawn : name:string -> Coro.t -> handle;
  wakeup : handle -> unit;
  set_track_wakeup : handle -> bool -> unit;
      (** exclude a thread (e.g. schbench's message thread) from the
          wakeup-latency histogram *)
  wakeup_hist : unit -> Histogram.t;
}

val of_linux : Skyloft_kernel.Linux.t -> t
val of_runtime : Skyloft.Runtime_core.t -> Skyloft.App.t -> t
