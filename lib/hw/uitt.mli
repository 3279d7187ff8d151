(** User-Interrupt Target Table: the sender-side UINTR structure.

    Each sender thread owns a UITT; entry [i] names a receiver's UPID plus
    the user-vector to post.  [SENDUIPI i] posts that vector to that
    receiver (§3.2).  In Skyloft the dispatcher builds one entry per worker
    core at startup. *)

type t

val create : Machine.t -> size:int -> t
(** A table with [size] empty slots. *)

val set : t -> int -> Machine.uintr_ctx -> uvec:int -> unit
(** Fill entry [i] with the receiver context and the user-vector to post. *)

val clear : t -> int -> unit

val senduipi : t -> src_core:int -> int -> unit
(** Execute SENDUIPI with operand [i]: posts the entry's user vector into
    the receiver's PIR and, unless the receiver's SN bit is set, sends the
    notification IPI.  Raises [Invalid_argument] on an empty slot, matching
    the #GP a real SENDUIPI raises on an invalid UITT index. *)
