module Time = Skyloft_sim.Time
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries

(** Analysis passes over a {!Trace.t} ring: per-core utilization,
    structural invariant checking, and a Perfetto export with counter
    tracks.

    All passes fold over the retained events only; a trace that dropped
    events is analysed for what it kept (and {!check} skips the
    containment invariant, which cannot be decided on a truncated ring). *)

type core_report = {
  core : int;
  busy_ns : int;  (** sum of span durations on this core *)
  idle_ns : int;  (** [until - busy_ns], clamped at 0 *)
  spans : int;
  instants : int;
  per_app : (int * int) list;  (** (app id, busy ns), ascending app id *)
}

val utilization : Trace.t -> until:Time.t -> core_report list
(** Run/idle breakdown per core over [\[0, until\]], ascending core id.
    Only cores that appear in the trace are reported. *)

val busy_share : core_report -> float
(** [busy_ns / (busy_ns + idle_ns)]; 0 when the window is empty. *)

type violation
(** A broken invariant: the core, the instant and what broke
    ({!pp_violation} prints all three). *)

val check : Trace.t -> violation list
(** Structural invariants every well-formed runtime trace satisfies:

    - timestamps are monotone in emission order (spans stamp their [stop],
      instants their [at]);
    - spans on one core never overlap;
    - every [Preempt] instant lies within some span on its core
      (inclusive bounds — delivery lands exactly at the span's end; only
      checked when the ring dropped nothing).

    Empty when the trace is well-formed. *)

val pp_violation : Format.formatter -> violation -> unit

val check_machine : Trace.t -> violation list
(** Machine-level invariants over the broker's instants (per tenant name,
    replaying the health automaton):

    - [Quarantine]/[Release] strictly alternate — no release without a
      quarantine, no second quarantine without a release (a run may {e
      end} quarantined);
    - [Tenant_degrade]/[Tenant_recover] strictly alternate likewise;
    - nothing is emitted for a tenant after its [Tenant_crash];
    - no [Broker_grant] lands on a quarantined tenant (the clamp holds).

    Only checked when the ring dropped nothing — on a truncated trace the
    opening edge of a pair may be among the dropped events — so size the
    ring for the run.  Empty when the machine timeline is well-formed. *)

val to_chrome_json : ?counters:(string * Timeseries.t) list -> Trace.t -> string
(** {!Trace.to_chrome_json} plus one Perfetto counter track (["C"] phase
    events, [pid] 0) per named series — queue depth, per-app core counts.
    The trailing [skyloft_dropped] metadata event is preserved. *)
