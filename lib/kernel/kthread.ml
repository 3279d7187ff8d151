module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro

type state = Ready | Running | Blocked | Exited

type t = {
  mutable state : state;
  mutable last_core : int;
  mutable body : Coro.t;
  mutable cont : unit -> Coro.t;
  mutable segment_end : Time.t;
  mutable wake_time : Time.t option;
  mutable pending_wake : bool;
  mutable resuming : bool;
  mutable track_wakeup : bool;
  mutable vruntime : float;
  mutable deadline : float;
  mutable lag : float;
  mutable slice_left : Time.t;
  mutable slice_start : Time.t;
  weight : int;
}

let create ?(weight = 1024) body =
  {
    state = Ready;
    last_core = 0;
    body;
    cont = (fun () -> Coro.Exit);
    segment_end = 0;
    wake_time = None;
    pending_wake = false;
    resuming = false;
    track_wakeup = true;
    vruntime = 0.0;
    deadline = 0.0;
    lag = 0.0;
    slice_left = 0;
    slice_start = 0;
    weight;
  }

