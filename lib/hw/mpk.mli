(** Intel Memory Protection Keys model (§6, "Shared memory protection").

    Skyloft's shared runqueues and task metadata live in memory mapped into
    every scheduled application, so a buggy or malicious application could
    scribble over scheduling state.  The paper's proposed mitigation is
    MPK: tag the shared region with a protection key, keep the key revoked
    in application code, and have a guardian grant access only inside the
    scheduler entry points.

    This module models the architectural pieces: 16 protection keys, a
    per-core PKRU register with access-disable/write-disable bits, tagged
    regions, and the WRPKRU instruction.  Checked accesses raise
    {!Protection_fault} exactly where real hardware would deliver a #PF. *)

exception Protection_fault of string

type pkey = int
(** Protection key, 0..15.  Key 0 is conventionally "no restriction". *)

type t
(** MPK state for one machine (per-core PKRU array + region table). *)

type region
(** A tagged memory region (identified, not byte-addressed: the simulation
    cares about which logical object is touched, not its address). *)

val create : cores:int -> t
(** All PKRU registers start fully permissive, like the reset state. *)

val fresh_pkey : t -> pkey
(** Allocate the next unused key (pkey_alloc).  Raises [Invalid_argument]
    when all 15 allocatable keys are taken. *)

val tag_region : t -> name:string -> pkey -> region
(** Associate a named region with a key (pkey_mprotect). *)

val wrpkru : t -> core:int -> pkey -> allow_read:bool -> allow_write:bool -> unit
(** Set the access bits for [pkey] on [core]'s PKRU. *)

val read : t -> core:int -> region -> unit
(** Checked read: raises {!Protection_fault} if the region's key has
    access-disable set on this core. *)

val write : t -> core:int -> region -> unit
(** Checked write: raises {!Protection_fault} if access- or write-disable
    is set. *)

val with_guardian : t -> core:int -> pkey -> (unit -> 'a) -> 'a
(** The guardian pattern from §6: grant read/write for [pkey], run [f]
    (the scheduler entry), then revoke both — even on exceptions.  Nesting
    is safe; the previous permission is restored. *)
