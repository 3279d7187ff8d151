module Time = Skyloft_sim.Time

(** Skyloft EEVDF: Earliest Eligible Virtual Deadline First (§5.1;
    Stoica & Abdel-Wahab; Linux >= 6.6).

    A task is eligible when vruntime <= average vruntime; among eligible
    tasks the earliest virtual deadline (vruntime + base_slice) runs.
    Blocking preserves lag (clamped to one slice) so sleepers resume
    exactly where fairness says.  Task fields: [policy_f1] vruntime,
    [policy_f2] deadline, [policy_i] lag. *)

type config = { base_slice : Time.t }

val create : ?config:config -> unit -> Skyloft.Sched_ops.ctor
(** [config] defaults to Table 5: base_slice 12.5 µs. *)
