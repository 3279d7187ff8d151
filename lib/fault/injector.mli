module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Nic = Skyloft_net.Nic
module Trace = Skyloft_stats.Trace

(** Deterministic fault injector: schedules the fault {!Plan}s against a
    concrete target (machine, kernel module, NIC, cores).

    Determinism contract: give the injector its own {!Rng} split (via
    [Engine.split_rng]) and it draws from nothing else; when no plans are
    armed it draws nothing and schedules nothing, so a fault-free run is
    bit-identical to one built without an injector at all.  Every injected
    fault is counted per kind and — when a trace is attached — emitted
    as a {!Trace.Inject} instant, so recovery latencies can be read
    straight off the timeline. *)

type target = {
  machine : Machine.t;
  kmod : Kmod.t option;  (** required by [Core_steal] plans *)
  nic : Nic.t option;  (** required by [Packet_loss] plans *)
  cores : int list;
      (** cores eligible for IPI loss, steals, and poisoned tasks *)
  poison : (core:int -> service:Time.t -> unit) option;
      (** how to land a never-yielding task on a core (required by
          [Poison] plans): the runtime spawns a [service]-long compute
          with no scheduling point *)
}

type t

val create : engine:Engine.t -> rng:Rng.t -> ?trace:Trace.t -> unit -> t

val arm : t -> target -> Plan.t list -> unit
(** Install hooks and periodic loops for every plan.  May be called once
    per injector.  Raises [Invalid_argument] on a second call, on an empty
    [cores] list, on a second IPI-loss plan (the machine has one fault
    hook), on a tenant plan, or when a plan needs a target component
    ([kmod], [nic], [poison]) that is [None]; every check runs before
    anything is installed, so after a rejection the injector can still be
    armed.  Fault kinds recorded: ["ipi-drop"], ["ipi-delay"],
    ["core-steal"], ["poison"], ["pkt-drop"]. *)

val arm_tenants : t -> broker:Skyloft_alloc.Broker.t -> Plan.t list -> unit
(** Arm tenant-level plans ([Tenant_hoard], [Tenant_stale],
    [Tenant_crash]) against a machine-level core {!Skyloft_alloc.Broker}:
    hoard and stale plans install per-tenant sample interceptors that
    rewrite what the tenant reports inside their windows (fault kinds
    ["tenant-hoard"] / ["tenant-stale"], recorded on the activation edge),
    and crash plans schedule a broker-driven reclamation at window start
    (["tenant-crash"]).  Independent of {!arm} — a scenario may use both.
    Tenant plans draw no randomness, preserving the fault-free
    determinism contract.  Raises [Invalid_argument] on a machine-level
    plan or a tenant the broker does not know, before installing
    anything. *)

val injected : t -> int
(** Total faults injected so far. *)

val injected_of : t -> kind:string -> int

(** [register_metrics t reg] registers the injected-fault counters, total
    and per kind (under [skyloft_fault_*]).  Pull-based; never perturbs
    the injection schedule. *)
val register_metrics : t -> Skyloft_obs.Registry.t -> unit
