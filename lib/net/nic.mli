module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Machine = Skyloft_hw.Machine

(** Simulated NIC with RSS steering into per-queue receive rings (§3.5),
    in three reception modes:

    - {!Spin}: a dedicated DPDK-style polling core forwards each packet to
      its queue's consumer after a small per-packet cost — the paper's
      deployment model.
    - {!Periodic}: the rings are drained in batches every fixed interval
      (an energy-conscious poller); packets wait up to one interval.
    - {!Msi}: the §6 extension — the device posts a user interrupt
      ({!Skyloft_hw.Vectors.uvec_nic}) to the queue's core when a packet
      lands in an empty ring, and the runtime's user-space driver drains
      it.  No polling core, no kernel: the interrupt path is the same
      UINTR machinery the scheduler uses. *)

type mode =
  | Spin
  | Periodic of Time.t
  | Msi of { machine : Machine.t; cores : int array }
      (** [cores.(q)] is the target core of queue [q]'s interrupt *)

type t

val create : Engine.t -> queues:int -> ?ring_capacity:int -> ?mode:mode -> unit -> t
(** Default mode is [Spin], which forwards each packet 120 ns after it
    lands in its ring. *)

val on_packet : t -> queue:int -> (Packet.t -> unit) -> unit
(** Register the consumer for one queue (used by [Spin] and [Periodic];
    in [Msi] mode the runtime's interrupt handler calls {!drain}). *)

val rx : t -> Packet.t -> unit
(** A packet arrives from the wire now: steer by RSS, enqueue, and notify
    according to the mode.  Dropped if the ring is full. *)

val drain : t -> queue:int -> (Packet.t -> unit) -> int
(** Pop every packet currently in the queue's ring through [f]; returns
    the number drained.  This is the user-space driver path for [Msi]. *)

val queues : t -> int

val drops : t -> int
(** Packets lost to full receive rings (overflow). *)

val received : t -> int

(** {1 Fault injection} *)

val set_loss : t -> (Packet.t -> bool) option -> unit
(** Install (or clear) a wire-loss predicate: a packet for which it
    returns [true] is counted in {!injected_drops} and never reaches a
    ring — the injected-fault analogue of {!drops}.  Used by
    [Skyloft_fault] to model lossy links and NIC discards. *)

val injected_drops : t -> int

(** [register_metrics t reg] registers the NIC's packet counters (under
    [skyloft_nic_*]).  Pull-based; never perturbs the simulation. *)
val register_metrics : t -> Skyloft_obs.Registry.t -> unit
