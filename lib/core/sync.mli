module Coro = Skyloft_sim.Coro

(** Synchronization primitives for simulated tasks.

    These are the blocking building blocks workloads need on top of the
    LibOS — counting semaphores, wait groups, and bounded channels — built
    from [task_block]/[task_wakeup] exactly like Skyloft's POSIX layer
    builds pthread primitives from the Table 2 operations.

    Because simulated thread bodies are {!Coro} descriptions, blocking
    operations take the calling task (as a [Task.t option ref], filled in
    at spawn) and the continuation to run once the operation completes.
    An operation that might block may only run once the handle is set;
    wrap a body's {e first} action in {!deferred}:

    {[
      let sem = Sync.Sem.create rt 0 in
      let self = ref None in
      let body = Sync.deferred (fun () ->
          Sync.Sem.wait sem self (fun () -> (* ...acquired... *) Coro.Exit))
      in
      self := Some (Runtime_core.spawn rt app ~name:"worker" body)
    ]} *)

val deferred : (unit -> Coro.t) -> Coro.t
(** Postpone building the body until the task's first dispatch (after the
    spawner has stored the task handle). *)

module Sem : sig
  type t

  val create : Runtime_core.t -> int -> t
  (** Counting semaphore with the given initial count (>= 0). *)

  val wait : t -> Task.t option ref -> (unit -> Coro.t) -> Coro.t
  (** Acquire: decrement if positive, otherwise block until a {!post}.
      The continuation runs once acquired. *)

  val post : t -> unit
  (** Release: wake the longest-waiting task, or bank the count. *)

  val count : t -> int
end

module Waitgroup : sig
  type t

  val create : Runtime_core.t -> unit -> t
  val add : t -> int -> unit
  val finish : t -> unit
  (** Mark one unit done; raises [Invalid_argument] below zero. *)

  val wait : t -> Task.t option ref -> (unit -> Coro.t) -> Coro.t
  (** Block until the counter reaches zero (immediate if already zero). *)

  val pending : t -> int
end

module Chan : sig
  type 'a t

  val create : Runtime_core.t -> capacity:int -> 'a t

  val send : 'a t -> Task.t option ref -> 'a -> (unit -> Coro.t) -> Coro.t
  (** Enqueue the value, blocking while the channel is full. *)

  val recv : 'a t -> Task.t option ref -> ('a -> Coro.t) -> Coro.t
  (** Dequeue a value, blocking while the channel is empty. *)

  val length : 'a t -> int
end
