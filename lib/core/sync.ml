module Coro = Skyloft_sim.Coro

(* Blocking operations need the caller's task handle, which only exists
   after spawn.  [deferred] postpones the operation to the task's first
   dispatch, by which time the spawner has filled the ref. *)
let deferred k = Coro.Yield k

let self_task self =
  match !self with
  | Some task -> task
  | None -> invalid_arg "Sync: blocking operation before the task handle is set"

module Sem = struct
  type t = { rt : Runtime_core.t; mutable count : int; waiters : Task.t Queue.t }

  let create rt count =
    if count < 0 then invalid_arg "Sync.Sem.create: negative count";
    { rt; count; waiters = Queue.create () }

  let wait t self k =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      k ()
    end
    else begin
      Queue.push (self_task self) t.waiters;
      (* woken by post: the permit was transferred directly *)
      Coro.Block k
    end

  let post t =
    match Queue.take_opt t.waiters with
    | Some task -> Runtime_core.wakeup t.rt task
    | None -> t.count <- t.count + 1

  let count t = t.count
end

module Waitgroup = struct
  type t = { rt : Runtime_core.t; mutable pending : int; waiters : Task.t Queue.t }

  let create rt () = { rt; pending = 0; waiters = Queue.create () }

  let add t n =
    if n < 0 then invalid_arg "Sync.Waitgroup.add: negative";
    t.pending <- t.pending + n

  let finish t =
    if t.pending <= 0 then invalid_arg "Sync.Waitgroup.finish: below zero";
    t.pending <- t.pending - 1;
    if t.pending = 0 then
      Queue.iter (fun task -> Runtime_core.wakeup t.rt task) t.waiters

  let wait t self k =
    if t.pending = 0 then k ()
    else begin
      Queue.push (self_task self) t.waiters;
      Coro.Block k
    end

  let pending t = t.pending
end

module Chan = struct
  type 'a t = {
    rt : Runtime_core.t;
    capacity : int;
    items : 'a Queue.t;
    senders : Task.t Queue.t;  (* blocked on full *)
    receivers : Task.t Queue.t;  (* blocked on empty *)
  }

  let create rt ~capacity =
    if capacity <= 0 then invalid_arg "Sync.Chan.create: capacity must be positive";
    {
      rt;
      capacity;
      items = Queue.create ();
      senders = Queue.create ();
      receivers = Queue.create ();
    }

  let rec send t self value k =
    if Queue.length t.items < t.capacity then begin
      Queue.push value t.items;
      (match Queue.take_opt t.receivers with
      | Some task -> Runtime_core.wakeup t.rt task
      | None -> ());
      k ()
    end
    else begin
      Queue.push (self_task self) t.senders;
      Coro.Block (fun () -> send t self value k)
    end

  let rec recv t self k =
    match Queue.take_opt t.items with
    | Some value ->
        (match Queue.take_opt t.senders with
        | Some task -> Runtime_core.wakeup t.rt task
        | None -> ());
        k value
    | None ->
        Queue.push (self_task self) t.receivers;
        Coro.Block (fun () -> recv t self k)

  let length t = Queue.length t.items
end
