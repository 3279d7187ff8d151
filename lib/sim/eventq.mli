(** Timestamped event queue: the heart of the discrete-event engine.

    Events are keyed by (time, sequence number).  The queue has two tiers:
    a sorted run that takes every insert landing within a constant number
    of nodes of its earliest end, and a binary overflow heap for the rest.
    A pop takes the earlier of the run's earliest node and the heap's root,
    so it is O(1) from the run.  Time, sequence and slot index live as
    unboxed machine words in preallocated [int array]s, payloads and node
    positions in a parallel slab of slots; nothing allocates in steady
    state.  The sequence number guarantees that events scheduled for the
    same instant fire in insertion order, which keeps simulations
    deterministic; keys are unique, so the pop order is the keys' order
    whichever tier holds each one.

    Events are one-shot ([schedule]: fire once, never cancelled) or live in
    a pinned slot ([pin]): a slot held for its owner's life with its payload
    written once, queued, repositioned within its tier and unqueued by int
    stores only.  No read ([precedes], [size]) changes the queue. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> at:Time.t -> 'a -> unit
(** Insert a one-shot event to fire at absolute time [at].
    @raise Invalid_argument when [at] is negative. *)

val reserve_seq : 'a t -> int
(** Take the next sequence number, as the next [schedule] would.  The key
    [(at, seq)] of a [move] must take its [seq] from here. *)

val pin : 'a t -> 'a -> int
(** Take a slot for good, holding [payload]: the slot starts unqueued and
    stays allocated, across pops, until [unpin]. *)

val set_payload : 'a t -> int -> 'a -> unit
(** Replace a pinned slot's payload (from its next firing). *)

val move : 'a t -> int -> at:Time.t -> seq:int -> unit
(** Queue a pinned slot at the key [(at, seq)], or move it there if it is
    queued already: its old firing is superseded, exactly as if it had
    been removed and inserted.  [seq] must come from [reserve_seq] and be
    used by at most one event in the queue.
    @raise Invalid_argument when [at] is negative. *)

val unqueue : 'a t -> int -> unit
(** Take a pinned slot out of the queue; a no-op when it is not queued. *)

val queued : 'a t -> int -> bool
(** Whether a pinned slot is queued (moved and not yet popped or
    unqueued). *)

val unpin : 'a t -> int -> unit
(** Unqueue a pinned slot and give it back to the free stack. *)

val pop_until : 'a t -> limit:Time.t -> none:'a -> 'a
(** Remove the earliest event if its time is at or before [limit] and
    return its payload bare, recording the event's timestamp, readable
    via [last_time].  A one-shot event's slot is freed; a pinned slot
    becomes unqueued.  When the queue is empty or its earliest event is
    later than [limit], return the sentinel [none] and change nothing.
    One comparison of the two tiers' fronts; allocation-free. *)

val last_time : 'a t -> Time.t
(** Timestamp of the event the last [pop_until] that found one removed
    (-1 before the first). *)

val precedes : 'a t -> at:Time.t -> seq:int -> bool
(** The earliest event sorts strictly before the key [(at, seq)]; [false]
    on an empty queue.  Allocation-free. *)

val size : 'a t -> int
(** Number of queued events (one-shots not yet fired, pinned slots
    queued). *)

val is_empty : 'a t -> bool

val check_invariants : 'a t -> unit
(** Test hook: verify the run's strict descending order, the heap order,
    that every node's slot records the node's tier and index (a run index
    [i] as [i], a heap index [i] as [-2 - i], [-1] when unqueued), and the
    slot conservation law: every slot is exactly one of free, queued (one
    node in one tier), or pinned and unqueued.  Raises [Failure] on drift.
    O(n). *)
