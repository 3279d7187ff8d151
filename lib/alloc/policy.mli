module Time = Skyloft_sim.Time

(** Core-allocation policies: the decision half of the {!Allocator}.

    A policy is a pure-ish controller observing one congestion {!signal}
    per registered application per sampling interval and answering with a
    {!decision} — ask for cores, give some back, or hold.  The allocator
    arbitrates the decisions against the machine's core budget and each
    application's guaranteed/burstable bounds; policies never see other
    applications and never touch the kernel module, which is what keeps
    them small (the same property the paper claims for scheduling policies
    behind Table 2). *)

type kind =
  | Lc  (** latency-critical: may steal cores from BE apps above their
            guaranteed floor *)
  | Be  (** best-effort: granted only cores the LC side leaves free *)

(** One application's congestion sample over the last interval.  The
    arbiter keeps one per binding and refills it every round, so a policy
    must not hold on to the record past its [observe] call. *)
type signal = {
  kind : kind;
  mutable cores : int;  (** cores currently granted to the application *)
  mutable runq_len : int;  (** tasks waiting in its runqueue *)
  mutable oldest_delay : Time.t;
      (** queueing delay of the oldest pending task (Shenango's congestion
          signal); 0 when the queue is empty *)
  mutable busy_ns : int;  (** busy time over the interval *)
  mutable window_ns : int;
      (** [interval * max 1 cores]: the utilization is [busy_ns / window_ns],
          kept as two ints so a refill boxes no float; it may exceed 1.0
          when the app ran on more cores than granted *)
}

type decision =
  | Grant of int  (** request this many additional cores *)
  | Yield of int  (** return this many cores to the free pool *)
  | Hold

type t
(** A policy instance.  Instances are stateful (hysteresis counters):
    create a fresh one per runtime.  [observe] is called once per
    application per allocator tick. *)

val name : t -> string
val observe : t -> app:int -> signal -> decision

val static : unit -> t
(** The baseline split (the pre-allocator behaviour): an LC app claims
    [runq_len] cores whenever work is queued and yields everything back
    when the queue is empty; a BE app greedily asks for whatever the free
    pool holds.  No hysteresis — all swings happen at the check interval. *)

val utilization : unit -> t
(** Watermark controller: after 2 consecutive intervals at or above 0.9
    utilization the app asks for enough cores to bring utilization back
    under 0.9; after 2 intervals at or below 0.2 it sheds down to that
    target.  The two counters reset each other, which is what prevents
    grant/reclaim oscillation under a steady load. *)

val delay : unit -> t
(** Shenango's congestion signal: an LC app whose oldest pending task has
    waited longer than 10 µs claims [runq_len] cores immediately; after 2
    consecutive quiet intervals (empty queue, more than 1.5 spare
    core-equivalents) it yields all but one spare core back.  BE apps
    greedily soak the free pool, exactly as under {!static}. *)
