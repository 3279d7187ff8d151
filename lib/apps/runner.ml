module Coro = Skyloft_sim.Coro
module Histogram = Skyloft_stats.Histogram
module Linux = Skyloft_kernel.Linux
module Kthread = Skyloft_kernel.Kthread
module Task = Skyloft.Task
module Rc = Skyloft.Runtime_core

type handle = Kt of Kthread.t | Tsk of Task.t

type t = {
  spawn : name:string -> Coro.t -> handle;
  wakeup : handle -> unit;
  set_track_wakeup : handle -> bool -> unit;
  wakeup_hist : unit -> Histogram.t;
}

let of_linux linux =
  {
    spawn = (fun ~name:_ body -> Kt (Linux.spawn linux body));
    wakeup =
      (function Kt kt -> Linux.wakeup linux kt | Tsk _ -> invalid_arg "Runner: mixed");
    set_track_wakeup =
      (fun h v ->
        match h with
        | Kt kt -> kt.Kthread.track_wakeup <- v
        | Tsk _ -> invalid_arg "Runner: mixed");
    wakeup_hist = (fun () -> Linux.wakeup_hist linux);
  }

let of_runtime rt app =
  {
    spawn = (fun ~name body -> Tsk (Rc.spawn rt app ~name ~record:false body));
    wakeup =
      (function Tsk t -> Rc.wakeup rt t | Kt _ -> invalid_arg "Runner: mixed");
    set_track_wakeup =
      (fun h v ->
        match h with
        | Tsk t -> t.Task.track_wakeup <- v
        | Kt _ -> invalid_arg "Runner: mixed");
    wakeup_hist = (fun () -> Rc.wakeup_hist rt);
  }
