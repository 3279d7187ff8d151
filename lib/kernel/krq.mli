(** Indexed runqueue for the Linux scheduler models.

    An augmented balanced tree ordered by [(key, seq)] — [key] is the
    policy sort key (vruntime under CFS/EEVDF, 0.0 under RR so the order
    degenerates to enqueue-order FIFO) and [seq] a fresh per-enqueue
    sequence number.  Replaces the former [Kthread.t list] (O(n) append,
    O(n) picks) with O(log n) enqueue/dequeue and O(log n) or O(1)
    queries, while reproducing the list semantics exactly: among equal
    keys the earliest-enqueued thread wins, as with the old strict-[<]
    left fold.

    Soundness note: the Linux models never mutate a kthread's vruntime,
    deadline or affinity while it sits in a runqueue (accounting touches
    only the running [curr]), so the values snapshotted at {!add} remain
    the live values for the entry's whole residence. *)

type t

val create : unit -> t
val length : t -> int
(** O(1). *)

val is_empty : t -> bool
(** O(1). *)

val add : t -> key:float -> Kthread.t -> unit
(** Enqueue with the given policy key, snapshotting the kthread's
    vruntime/deadline/affinity.  O(log n).
    @raise Invalid_argument if the kthread is already enqueued. *)

val remove : t -> Kthread.t -> unit
(** Dequeue; a no-op when absent (like the old [List.filter]).  O(log n). *)

val min_key : t -> Kthread.t option
(** Entry with the smallest [(key, seq)]: the CFS min-vruntime pick, or
    the FIFO head under RR.  O(log n). *)

val min_vruntime : t -> float
(** Smallest vruntime in the queue; [infinity] when empty.  O(1). *)

val sum_vruntime : t -> float
(** Sum of vruntimes over the queue; [0.0] when empty (EEVDF average).
    O(1). *)

val min_deadline : t -> Kthread.t option
(** Entry with the smallest [(deadline, seq)] — the EEVDF pick when no
    thread is eligible.  O(1). *)

val min_deadline_eligible : t -> bound:float -> Kthread.t option
(** Smallest [(deadline, seq)] among entries with [key <= bound] — the
    EEVDF eligible pick ([bound] = average vruntime).  O(log n). *)

val has_unpinned : t -> bool
(** O(1). *)

val first_unpinned : t -> Kthread.t option
(** Earliest-enqueued entry with no affinity — the idle-balance steal
    victim.  O(1). *)

val to_list : t -> Kthread.t list
(** In [(key, seq)] order; for tests. *)
