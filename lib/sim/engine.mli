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

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute virtual [time], which must
    not be in the past.  The event cannot be cancelled: an event that may
    be called off is a {!timer}. *)

val after : t -> Time.t -> (unit -> unit) -> unit
(** [after t delay f] schedules [f] to run [delay] ns from now. *)

(** {2 Reusable timer events}

    A [timer] owns one stable closure and, from its first [arm], one
    pinned queue slot for its whole lifetime, and is re-armed in place, so
    self-re-arming work — timer ticks, NIC polls, arrival streams, segment
    completions — costs no allocation and no pointer store per firing.
    Every event that may be cancelled or moved is a timer. *)

type timer

val timer : t -> (unit -> unit) -> timer
(** A disarmed timer running the given callback when it fires.  It touches
    no queue until its first [arm].  The timer is disarmed before the
    callback runs, so the callback may [arm] it again immediately
    (self-re-arm). *)

val set_callback : timer -> (unit -> unit) -> unit
(** Replace the timer's callback (takes effect from the next firing). *)

val arm : timer -> at:Time.t -> unit
(** Schedule the timer's next firing at an absolute time, which must not be
    in the past, superseding any firing already pending: the timer takes
    the key a disarm plus a fresh insert would give it, moved in place. *)

val disarm : timer -> unit
(** Cancel the pending firing, if any; a no-op on a disarmed timer. *)

val armed : timer -> bool
(** A firing is pending: armed, and neither fired nor disarmed since. *)

val every : t -> period:Time.t -> (unit -> bool) -> unit
(** [every t ~period f] runs [f] each [period] ns (first at [now +
    period]) until [f] returns [false].  [every]s that
    share a period and a next firing instant share one pinned queue slot
    (a cohort), so a tick instant of many per-core timers costs one pop,
    not one per core.  A new [every] joins a cohort only between its
    rounds; a cohort whose members have all stopped gives its slot back. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue.  Stops when the queue is empty, when the next
    event would fire after [until], or after [max_events] callbacks (each
    cohort member counts as one).  The clock is left at the last fired
    event (or at [until] if given and reached). *)

val step : t -> bool
(** Run exactly the next callback (one cohort member at most).  [false]
    when the queue is empty. *)

val pending : t -> int
(** Number of queued events: every pending [at]/[after] event and
    armed timer counts one, and a cohort of same-phase [every]s counts
    one however many members it has. *)

val events_fired : t -> int
(** Total callbacks run since creation, each cohort member counted once
    (useful to bound runaway models). *)
