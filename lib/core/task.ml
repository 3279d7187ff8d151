module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro

type state = Runnable | Running | Blocked | Exited

type t = {
  app : int;
  name : string;
  mutable state : state;
  mutable body : Coro.t;
  mutable cont : unit -> Coro.t;
  mutable segment_end : Time.t;
  mutable last_core : int;
  mutable run_start : Time.t;
  mutable wake_time : Time.t;
  mutable pending_wake : bool;
  mutable resuming : bool;
  mutable track_wakeup : bool;
  mutable policy_f1 : float;
  mutable policy_f2 : float;
  mutable policy_i : int;
  mutable arrival : Time.t;
  mutable service : Time.t;
  mutable on_exit : t -> unit;
  mutable killed : bool;
  mutable obs_start : Time.t;
  mutable obs_enq_at : Time.t;
  mutable obs_block_at : Time.t;
  mutable obs_queued_ns : int;
  mutable obs_overhead_ns : int;
  mutable obs_stall_ns : int;
  mutable queued : bool;
  mutable request : int;
}

(* The body of every submitted stage: never interpreted, only compared
   physically (the runtime runs such a task for its [service] and then
   calls its [on_exit]). *)
let staged = Coro.Compute (0, fun () -> invalid_arg "Task.staged: not a body to run")

(* The sentinel carries every field's default; [create] copies it. *)
let nil =
  {
    app = -1;
    name = "nil";
    state = Exited;
    body = Coro.Exit;
    cont = (fun () -> Coro.Exit);
    segment_end = 0;
    last_core = -1;
    run_start = 0;
    wake_time = -1;
    pending_wake = false;
    resuming = false;
    track_wakeup = true;
    policy_f1 = 0.0;
    policy_f2 = 0.0;
    policy_i = 0;
    arrival = 0;
    service = 0;
    on_exit = ignore;
    killed = false;
    obs_start = 0;
    obs_enq_at = 0;
    obs_block_at = 0;
    obs_queued_ns = 0;
    obs_overhead_ns = 0;
    obs_stall_ns = 0;
    queued = false;
    request = -1;
  }

(* A fresh task is the sentinel's defaults under its own identity. *)
let make ~app ~name ~arrival ~service ~on_exit body =
  { nil with app; name; state = Runnable; body; arrival; service; on_exit }

let create ~app ~name body = make ~app ~name ~arrival:0 ~service:0 ~on_exit:ignore body
