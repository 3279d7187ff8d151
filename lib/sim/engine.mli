(** Discrete-event simulation driver.

    The engine owns the virtual clock and the event queue.  Components
    schedule thunks at absolute or relative virtual times; [run] fires them
    in time order, advancing the clock discontinuously.  Within one instant,
    events fire in scheduling order.

    The engine deliberately knows nothing about cores, interrupts, or
    schedulers — those live in the hardware and kernel layers and express
    themselves as scheduled thunks. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at 0.  [seed] (default 42) seeds the root PRNG
    from which component streams are split. *)

val now : t -> Time.t
(** Current virtual time. *)

val split_rng : t -> Rng.t
(** A fresh independent stream for one simulation component. *)

val at : t -> Time.t -> (unit -> unit) -> Eventq.handle
(** [at t time f] schedules [f] to run at absolute virtual [time], which must
    not be in the past. *)

val after : t -> Time.t -> (unit -> unit) -> Eventq.handle
(** [after t delay f] schedules [f] to run [delay] ns from now. *)

val cancel : t -> Eventq.handle -> unit
(** Cancel a scheduled event; stale or [Eventq.null] handles are no-ops. *)

val reschedule : t -> Eventq.handle -> Time.t -> (unit -> unit) -> Eventq.handle
(** [reschedule t h time f] is [cancel t h] then [at t time f] — the same
    event order, the old handle stale — done in place with one sift when
    [h] is live ({!Eventq.reschedule}). *)

(** {2 Reusable timer events}

    A [timer] owns one stable closure for its whole lifetime and is
    re-armed in place, so self-re-arming periodic work — timer ticks, NIC
    polls, arrival streams, watchdogs — costs zero allocations per tick
    instead of a closure plus handle each. *)

type timer

val timer : t -> (unit -> unit) -> timer
(** A disarmed timer running the given callback when it fires.  The
    timer's pending-event handle is cleared before the callback runs, so
    the callback may [arm] it again immediately (self-re-arm). *)

val set_callback : timer -> (unit -> unit) -> unit
(** Replace the timer's callback (takes effect from the next firing). *)

val arm : timer -> at:Time.t -> unit
(** Schedule the timer's next firing at an absolute time, superseding any
    firing already pending (moved in place, as by [reschedule]). *)

val disarm : timer -> unit
(** Cancel the pending firing, if any. *)

val armed : timer -> bool

val every : t -> period:Time.t -> (unit -> bool) -> unit
(** [every t ~period f] runs [f] each [period] ns (first at [now +
    period]) until [f] returns [false].  [every]s that
    share a period and a next firing instant share one heap entry (a
    cohort), so a tick instant of many per-core timers costs one pop,
    not one per core.  A new [every] joins a cohort only between its
    rounds. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue.  Stops when the queue is empty, when the next
    event would fire after [until], or after [max_events] callbacks (each
    cohort member counts as one).  The clock is left at the last fired
    event (or at [until] if given and reached). *)

val step : t -> bool
(** Run exactly the next callback (one cohort member at most).  [false]
    when the queue is empty. *)

val pending : t -> int
(** Number of live heap entries: every pending [at]/[after] event and
    armed timer counts one, and a cohort of same-phase [every]s counts
    one however many members it has. *)

val events_fired : t -> int
(** Total callbacks run since creation, each cohort member counted once
    (useful to bound runaway models). *)
