module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Histogram = Skyloft_stats.Histogram

(* schbench's defaults: one message thread, ~2,300 µs per request (the
   matrix multiplication), 1 µs of message-thread CPU per wake. *)
let message_threads = 1
let request = Time.us 2_300
let message_work = Time.us 1

let run (runner : Runner.t) engine ~workers ~duration =
  if workers <= 0 then invalid_arg "Schbench.run: workers must be positive";
  let stop_at = Engine.now engine + duration in
  (* Workers that finished a request and are waiting to be woken again. *)
  let pending : Runner.handle Queue.t = Queue.create () in
  let messengers = ref [] in
  let notify_messenger () = List.iter (fun m -> runner.wakeup m) !messengers in
  (* Worker: sleep; when woken, work one request, then report back. *)
  let spawn_worker i =
    let self = ref None in
    let rec loop () =
      Coro.Block
        (fun () ->
          Coro.Compute
            ( request,
              fun () ->
                if Engine.now engine >= stop_at then Coro.Exit
                else begin
                  (match !self with Some h -> Queue.push h pending | None -> ());
                  notify_messenger ();
                  loop ()
                end ))
    in
    let h = runner.spawn ~name:(Printf.sprintf "worker-%d" i) (loop ()) in
    self := Some h;
    Queue.push h pending
  in
  for i = 1 to workers do
    spawn_worker i
  done;
  (* Message thread: wake pending workers one by one, charging its own CPU
     per wake; sleep when nobody needs waking. *)
  let spawn_messenger i =
    let rec loop () =
      if Engine.now engine >= stop_at then Coro.Exit
      else
        match Queue.take_opt pending with
        | Some worker ->
            Coro.Compute
              ( message_work,
                fun () ->
                  runner.wakeup worker;
                  loop () )
        | None -> Coro.Block (fun () -> loop ())
    in
    let h = runner.spawn ~name:(Printf.sprintf "message-%d" i) (loop ()) in
    runner.set_track_wakeup h false;
    messengers := h :: !messengers
  in
  for i = 1 to message_threads do
    spawn_messenger i
  done;
  Engine.run ~until:stop_at engine;
  runner.wakeup_hist ()
