module Time = Skyloft_sim.Time

(** The fair scheduling class: the CFS and EEVDF rules and the ordered
    runqueue they run on.

    Written once for both hosts: the Linux models ({!Linux}, whose three
    classes all queue here) and the Skyloft ports (skyloft_policies'
    [Fair_percpu]).  Where the hosts differ the difference is an argument
    the caller passes, never a branch on who is calling:
    - the EEVDF average counts the running thread under Linux and not
      under Skyloft ({!avg_vruntime} [~curr]);
    - Linux charges time scaled by the load weight, Skyloft unweighted
      ({!charge} [~weight:nice_0]);
    - Skyloft keeps the clamped lag in an int field, Linux in a float.

    A queue is one core's: its ready elements, ordered by [(key, seq)] —
    [key] is the class's sort key (vruntime under CFS/EEVDF, [0.0] under
    RR, so the order degenerates to enqueue-order FIFO) and [seq] a fresh
    per-enqueue number, so among equal keys the earliest enqueue wins —
    and the core's monotonic [min_vruntime].  The tree is an augmented
    AVL: every pop is O(log n), [min_vruntime]/[length] O(1).

    Soundness note: neither host mutates an element's vruntime or
    deadline while it is queued (only the running element is charged),
    so the values snapshotted at {!add} stay the live ones for the
    entry's whole residence.  Every element leaves through a pop, so the
    queue needs no index of its members. *)

type 'a t

val create : unit -> 'a t
(** An empty queue with [min_vruntime = 0.0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> key:float -> vruntime:float -> deadline:float -> 'a -> unit
(** Enqueue under [key], snapshotting the element's vruntime and EEVDF
    deadline.  O(log n). *)

val pop_min_key : 'a t -> 'a option
(** Dequeue the smallest [(key, seq)]: the CFS pick, or the FIFO head
    under RR. *)

val pop_eevdf : 'a t -> avg:float -> 'a option
(** Dequeue the EEVDF pick: the earliest [(deadline, seq)] among the
    eligible entries ([key <= avg]), or among all entries when none is
    eligible. *)

val pop_earliest : 'a t -> 'a option
(** Dequeue the earliest-enqueued entry (the idle-balance victim). *)

val to_list : 'a t -> 'a list
(** In [(key, seq)] order; for tests. *)

(** {1 The rules} *)

val min_vruntime : 'a t -> float

val leftmost_vruntime : 'a t -> float
(** Smallest queued vruntime; [infinity] when empty.  O(1). *)

val update_min : 'a t -> curr:float -> unit
(** The kernel's update_curr floor: [min_vruntime <- max min_vruntime
    (min curr leftmost)], left alone when both are infinite.  [curr] is
    the running element's vruntime, [infinity] when the core idles. *)

val advance_min : 'a t -> float -> unit
(** [min_vruntime <- max min_vruntime v]. *)

val avg_vruntime : 'a t -> curr:float option -> float
(** The EEVDF average vruntime over the queue, plus the running
    element's vruntime when [curr] carries it; [min_vruntime] when that
    averages over nothing. *)

val nice_0 : int
(** The load weight of a nice-0 thread, 1024: charging at this weight is
    charging unweighted time. *)

val charge : weight:int -> float -> Time.t -> float
(** [charge ~weight v ran]: [v] advanced by [ran] ns of CPU time scaled
    by [nice_0 / weight]. *)

val cfs_slice : min_granularity:Time.t -> sched_latency:Time.t -> nr:int -> Time.t
(** [max min_granularity (sched_latency / nr)], [nr] counting the running
    element. *)

val place_sleeper : 'a t -> sched_latency:Time.t -> float -> float
(** The CFS gentle sleeper credit: a woken vruntime is placed at most half
    a [sched_latency] behind the queue's [min_vruntime]. *)

val deadline : base_slice:Time.t -> float -> float
(** The EEVDF virtual deadline of a request starting at vruntime [v]:
    [v + base_slice]. *)

val clamp_lag : base_slice:Time.t -> float -> float
(** An EEVDF lag clamped to [±base_slice]. *)

val migrate : src:'a t -> dst:'a t -> float -> float
(** Renormalise a virtual time from [src]'s basis onto [dst]'s:
    [v - min_vruntime src + min_vruntime dst]. *)
