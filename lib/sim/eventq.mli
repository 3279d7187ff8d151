(** Timestamped event queue: the heart of the discrete-event engine.

    A structure-of-arrays indexed binary min-heap keyed by (time, sequence
    number): time, sequence and slot index live as unboxed machine words in
    a preallocated [int array], payloads and handle state (generation,
    heap position) in a parallel generation-counted free-list slab.
    [schedule], [cancel] and [pop_exn] allocate nothing in steady state.
    The sequence number guarantees that events scheduled for the same
    instant fire in insertion order, which keeps simulations deterministic.
    Events can be cancelled in O(log n) through the handle returned at
    insertion; a cancelled event leaves the heap at once, so the heap never
    holds a cancelled entry. *)

type 'a t

type handle = private int
(** Token for a scheduled event; allows cancellation.  An int packing the
    event's slot index and the slot's generation: once the event fires or
    is cancelled, the generation moves on and the handle goes stale —
    stale handles are ignored everywhere. *)

val null : handle
(** A handle that never refers to any event; [cancel] on it is a no-op.
    Lets callers keep a bare [handle] field instead of [handle option]. *)

val is_null : handle -> bool

val create : unit -> 'a t

val schedule : 'a t -> at:Time.t -> 'a -> handle
(** Insert an event to fire at absolute time [at]. *)

val reserve_seq : 'a t -> int
(** Take the next sequence number, as the next [schedule] would, without
    inserting anything.  Lets a caller hold its FIFO place at an instant
    and insert later with [schedule_key]. *)

val schedule_key : 'a t -> at:Time.t -> seq:int -> 'a -> handle
(** Insert an event at the explicit key [(at, seq)]; [seq] must come from
    [reserve_seq] and be used by at most one event in the queue. *)

val reschedule : 'a t -> handle -> at:Time.t -> 'a -> handle
(** [cancel] then [schedule] in one sift: a live event moves to the key
    [(at, next seq)] that the insert would have given it, with the new
    payload, and comes back under a fresh handle (the old one goes stale,
    as after a cancel).  A stale or [null] handle falls back to
    [schedule].  Event order is exactly that of cancel-then-schedule. *)

val cancel : 'a t -> handle -> unit
(** Remove a scheduled event from the queue in O(log n).  Cancelling twice,
    cancelling [null], or cancelling an event that already fired (stale
    generation), is a no-op. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload bare, recording the
    event's timestamp, readable via [last_time].  Allocation-free.
    @raise Empty when the queue is empty. *)

val last_time : 'a t -> Time.t
(** Timestamp of the event the last successful [pop_exn] returned
    (-1 before the first pop). *)

val next_time : 'a t -> Time.t
(** Time of the earliest event without removing it, or -1 when the queue
    is empty.  O(1), allocation-free. *)

val precedes : 'a t -> at:Time.t -> seq:int -> bool
(** The earliest event sorts strictly before the key [(at, seq)]; [false]
    on an empty queue.  O(1), allocation-free. *)

val size : 'a t -> int
(** Number of scheduled events (not yet fired or cancelled).  O(1). *)

val is_empty : 'a t -> bool
(** O(1). *)

val check_invariants : 'a t -> unit
(** Test hook: verify the heap order, the slot/heap conservation law
    (every heap node owns exactly one slab slot), and that every node's
    slot records the node's heap position.  Raises [Failure] on drift.
    O(n). *)
