module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Rc = Skyloft.Runtime_core

(** Best-effort batch application: endless CPU-bound work in [chunk]-sized
    pieces, yielding between chunks so higher-priority work gets in at the
    next scheduling point.  Used co-located with LC applications to measure
    the CPU share a scheduler leaves for batch processing (Figure 7c). *)

let spawn_workers rt app ~workers ~chunk =
  if workers <= 0 then invalid_arg "Batch.spawn_workers: workers must be positive";
  for i = 1 to workers do
    let rec loop () = Coro.Compute (chunk, fun () -> Coro.Yield loop) in
    ignore
      (Rc.spawn rt app
         ~name:(Printf.sprintf "batch-%d" i)
         ~record:false (loop ()))
  done
