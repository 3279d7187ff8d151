module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Linux = Skyloft_kernel.Linux
module Kthread = Skyloft_kernel.Kthread
module Summary = Skyloft_stats.Summary
module Loadgen = Skyloft_net.Loadgen
module Packet = Skyloft_net.Packet

(** The Linux-CFS baseline of Figure 7a: the same dispersive request stream
    served by a pool of kernel threads under the simulated Linux scheduler.

    Requests land in a shared FIFO; a pool of worker kthreads (2x cores, as
    a typical thread-per-core-times-two server configuration) pulls from
    it, blocking when it runs dry.  CFS gives every runnable worker a fair
    share, which is exactly the problem: a worker chewing a 10 ms request
    keeps its core for a min_granularity at a time while short requests
    queue behind the thundering herd, and every block/wake round-trip pays
    kernel wakeup costs.  No preemption quantum exists at µs scale, so the
    maximum throughput stalls well below the kernel-bypass systems. *)

type t = {
  summary : Summary.t;
  mutable offered : int;
  mutable served : int;
  mutable served_in_window : int;  (* completions before the arrival cutoff *)
  mutable batch_busy_ns : int;
}

let run machine ~cores ~rng ~rate_rps ~service ~duration ?(batch_threads = 0) () =
  let engine = Machine.engine machine in
  let linux = Linux.create machine Linux.cfs_default ~cores in
  let t =
    { summary = Summary.create (); offered = 0; served = 0; served_in_window = 0;
      batch_busy_ns = 0 }
  in
  let queue : Packet.t Queue.t = Queue.create () in
  let idle_workers : Kthread.t Queue.t = Queue.create () in
  let stop_at = Engine.now engine + duration in
  let rec worker_body self () =
    match Queue.take_opt queue with
    | Some pkt ->
        Coro.Compute
          ( pkt.Packet.service,
            fun () ->
              t.served <- t.served + 1;
              if Engine.now engine <= stop_at then
                t.served_in_window <- t.served_in_window + 1;
              Summary.record_request t.summary ~arrival:pkt.Packet.arrival
                ~completion:(Engine.now engine) ~service:pkt.Packet.service;
              worker_body self () )
    | None ->
        if Engine.now engine >= stop_at then Coro.Exit
        else begin
          (match !self with Some kt -> Queue.push kt idle_workers | None -> ());
          Coro.Block (fun () -> worker_body self ())
        end
  in
  let n_workers = 2 * List.length cores in
  for _ = 1 to n_workers do
    let self = ref None in
    (* The body is evaluated eagerly, before the kthread handle exists, so
       register the initial idleness here rather than inside the body. *)
    let kt = Linux.spawn linux (worker_body self ()) in
    self := Some kt;
    Queue.push kt idle_workers
  done;
  (* Co-located batch hogs (Figure 7c's Linux line): plain CFS threads
     burning CPU in small chunks; their completed chunk time is the batch
     application's share. *)
  let batch_chunk = Time.us 50 in
  for _ = 1 to batch_threads do
    let rec hog () =
      Coro.Compute
        ( batch_chunk,
          fun () ->
            t.batch_busy_ns <- t.batch_busy_ns + batch_chunk;
            if Engine.now engine >= stop_at then Coro.Exit else hog () )
    in
    (* nice 19: the batch job must not displace the latency-critical pool *)
    ignore (Linux.spawn linux ~weight:15 (hog ()))
  done;
  Loadgen.poisson engine ~rng ~rate_rps ~service ~duration (fun pkt ->
      t.offered <- t.offered + 1;
      Queue.push pkt queue;
      match Queue.take_opt idle_workers with
      | Some kt -> Linux.wakeup linux kt
      | None -> ());
  (* leave drain time after the last arrival *)
  Engine.run ~until:(stop_at + Time.ms 50) engine;
  t

let summary t = t.summary
let served t = t.served
let served_in_window t = t.served_in_window
let offered t = t.offered
let batch_busy_ns t = t.batch_busy_ns
