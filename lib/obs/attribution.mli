module Histogram = Skyloft_stats.Histogram

(** Latency attribution: each completed request's response time split into
    the four segments the paper's analysis cares about.

    - {e queueing}: runnable but not on a core (arrival→dispatch, plus any
      requeue→redispatch interval after a preemption or wakeup);
    - {e overhead}: scheduling mechanism cost charged to the request —
      context-switch cost at dispatch, preemption delivery (user IPI / UINTR
      receive), timer ticks and rescues that land while it runs;
    - {e stall}: time blocked on a fault or stolen from under the task by
      the host kernel ([Kmod] core steals);
    - {e service}: the work itself.

    The runtimes stamp the first three directly (see the [obs_*] fields on
    [Task.t]); service is the residue [response - (queueing + overhead +
    stall)].  Because every charge is made from the same virtual clock that
    advances the task, the residue must equal the service time the workload
    declared — {!record} counts a {e mismatch} whenever it does not, and the
    [obs-report] experiment and CI fail on any mismatch.  The identity
    [queueing + overhead + stall + service = response] therefore holds
    exactly, per request, in integer nanoseconds. *)

type t

val create : unit -> t

val record :
  t -> queueing:int -> overhead:int -> stall:int -> response:int -> declared:int -> unit
(** Attribute one completed request.  [declared] is the service time the
    workload asked for ([Task.service]); the residue
    [response - queueing - overhead - stall] is recorded as the service
    segment.  Counts a mismatch if the residue is negative or differs from
    a positive [declared]. *)

val requests : t -> int
(** Recorded requests: the count of {!response}. *)

val mismatches : t -> int

val queueing : t -> Histogram.t
val service : t -> Histogram.t
val overhead : t -> Histogram.t
val stall : t -> Histogram.t
val response : t -> Histogram.t
(** Per-segment histograms (ns), one entry per recorded request. *)

val register : Registry.t -> ?labels:Registry.labels -> t -> unit
(** Register the five segment histograms plus request/mismatch counters
    under [skyloft_latency_*], tagged with [labels] (typically
    [[Registry.app name]]). *)

val pp_row : Format.formatter -> string * t -> unit
(** One table row: label, requests, then mean ns per segment and the mean
    response. *)
