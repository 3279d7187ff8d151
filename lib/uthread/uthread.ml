open Effect
open Effect.Deep

exception Deadlock of string

type t = {
  id : int;
  mutable done_ : bool;
  mutable joiners : (unit -> unit) list;  (* resumers waiting in join *)
}

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Suspend park] captures the current continuation as a resumer
            thunk and hands it to [park]; the thread continues when the
            resumer is called (typically after being queued). *)
  | Spawn : (unit -> unit) -> t Effect.t

(* Scheduler state: one global M:1 scheduler, re-entered per [run]. *)
type sched = {
  runq : (unit -> unit) Queue.t;
  mutable live : int;  (* threads not yet finished *)
  mutable next_id : int;
  mutable current : t;
}

let active : sched option ref = ref None

let scheduler () =
  match !active with
  | Some s -> s
  | None -> invalid_arg "Uthread: operation outside Uthread.run"

let enqueue s thunk = Queue.push thunk s.runq

let finish s (thread : t) =
  thread.done_ <- true;
  s.live <- s.live - 1;
  (* A resumer enqueues its continuation when called. *)
  List.iter (fun resume -> resume ()) (List.rev thread.joiners);
  thread.joiners <- []

(* Run [f] as thread [thread] under the scheduler's handler. *)
let rec exec s (thread : t) f =
  s.current <- thread;
  match_with f ()
    {
      retc = (fun () -> finish s thread; next s);
      exnc =
        (fun exn ->
          (* A thread dying with an exception tears the whole run down:
             losing exceptions silently would hide bugs. *)
          finish s thread;
          raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend park ->
              Some
                (fun (k : (a, _) continuation) ->
                  park (fun () ->
                      enqueue s (fun () ->
                          s.current <- thread;
                          continue k ()));
                  next s)
          | Spawn f ->
              Some
                (fun (k : (a, _) continuation) ->
                  let child = { id = s.next_id; done_ = false; joiners = [] } in
                  s.next_id <- s.next_id + 1;
                  s.live <- s.live + 1;
                  enqueue s (fun () -> exec s child f);
                  s.current <- thread;
                  continue k child)
          | _ -> None);
    }

and next s =
  match Queue.take_opt s.runq with
  | Some thunk -> thunk ()
  | None ->
      if s.live > 0 then
        raise (Deadlock (Printf.sprintf "%d thread(s) blocked forever" s.live))

let run main =
  if !active <> None then invalid_arg "Uthread.run: nested run";
  let main_thread = { id = 0; done_ = false; joiners = [] } in
  let s = { runq = Queue.create (); live = 1; next_id = 1; current = main_thread } in
  active := Some s;
  Fun.protect ~finally:(fun () -> active := None) (fun () -> exec s main_thread main)

let spawn f = perform (Spawn f)
let yield () = perform (Suspend (fun resume -> resume ()))

let join (thread : t) =
  if not thread.done_ then
    perform (Suspend (fun resume -> thread.joiners <- resume :: thread.joiners))

let finished (thread : t) = thread.done_
let self_id () = (scheduler ()).current.id

module Mutex = struct
  type mutex = { mutable locked : bool; waiters : (unit -> unit) Queue.t }

  let create () = { locked = false; waiters = Queue.create () }

  let lock m =
    if m.locked then perform (Suspend (fun resume -> Queue.push resume m.waiters))
    else m.locked <- true

  let unlock m =
    if not m.locked then invalid_arg "Uthread.Mutex.unlock: not locked";
    match Queue.take_opt m.waiters with
    | Some resume ->
        (* Hand the lock directly to the next waiter (it skips the locked
           check on resume), then let it run at its queue position. *)
        resume ()
    | None -> m.locked <- false
end

module Condvar = struct
  type condvar = { waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  let wait cv (m : Mutex.mutex) =
    (* Atomic in the M:1 world: no other thread runs between the unlock and
       the suspend because suspension happens inside one effect. *)
    perform
      (Suspend
         (fun resume ->
           Queue.push resume cv.waiters;
           Mutex.unlock m));
    Mutex.lock m

  let signal cv = match Queue.take_opt cv.waiters with Some r -> r () | None -> ()

  let broadcast cv =
    let rec go () =
      match Queue.take_opt cv.waiters with
      | Some r ->
          r ();
          go ()
      | None -> ()
    in
    go ()
end
