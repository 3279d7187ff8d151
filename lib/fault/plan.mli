module Time = Skyloft_sim.Time

(** Declarative fault plans: what goes wrong, when, and how hard.

    A plan is pure data — nothing happens until {!Injector.arm} schedules
    it against a target.  Plans compose: arm a list of them and each
    contributes its fault class, except that a list holds at most one
    {!ipi_loss} plan (one machine fault hook decides each delivery).  A machine-level plan is active for the
    whole run; a tenant-level plan is active inside its {!window}.  All
    randomness is drawn from the injector's own split RNG, so a faulty run
    replays bit-for-bit from the same seed and a disabled injector makes
    zero draws (leaving every other stream untouched). *)

type window
(** Half-open activity interval [\[start, stop)]; no [stop] means "until
    the end of the run". *)

val window : ?start:Time.t -> ?stop:Time.t -> unit -> window
val start : window -> Time.t

val active : window -> at:Time.t -> bool

type ipi_loss = { p_drop : float; p_delay : float; delay : Time.t }

type spec =
  | Ipi_loss of ipi_loss
      (** Each user-IPI notification / delegated timer tick is dropped with
          [p_drop], else delayed by [delay] with [p_delay] — the §3.2
          lost-wakeup window made manifest. *)
  | Core_steal of { period : Time.t; duration : Time.t }
      (** Every [period], the host kernel steals one target core for
          [duration] (imperfect isolation: bound workqueues, vmstat, RT
          throttling). *)
  | Poison of { period : Time.t; service : Time.t }
      (** Every [period], a poisoned task that computes for [service]
          without ever yielding lands on one target core — head-of-line
          blocking the watchdog must break. *)
  | Packet_loss of { p_drop : float }
      (** Each arriving packet is discarded at the wire with [p_drop]. *)
  | Tenant_hoard of { tenant : int }
      (** The tenant claims congestion forever: its broker congestion
          sample reports a deep queue and full utilization regardless of
          reality, so its policy keeps demanding cores.  Armed with
          {!Injector.arm_tenants} against a machine-level core broker. *)
  | Tenant_stale of { tenant : int }
      (** The tenant stops reporting: its broker sample freezes at the
          first in-window value (busy never advances, queue pinned
          non-empty), tripping the broker's staleness detector. *)
  | Tenant_crash of { tenant : int }
      (** The tenant's runtime dies at window start; the broker reclaims
          every core it held, guaranteed floor included. *)

type t = private { window : window; spec : spec }

(** Constructors validate their parameters and raise [Invalid_argument]
    on nonsense (probabilities outside [0, 1], non-positive periods). *)

val ipi_loss : ?p_drop:float -> ?p_delay:float -> ?delay:Time.t -> unit -> t
(** Default delay 50 µs; at least one probability must be non-zero. *)

val core_steal : period:Time.t -> duration:Time.t -> unit -> t
val poison : period:Time.t -> service:Time.t -> unit -> t
val packet_loss : p_drop:float -> unit -> t

val tenant_hoard : ?window:window -> tenant:int -> unit -> t
val tenant_stale : ?window:window -> tenant:int -> unit -> t
val tenant_crash : ?window:window -> tenant:int -> unit -> t
