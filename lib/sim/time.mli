(** Virtual time for the discrete-event simulation.

    All simulated latencies in the repository are expressed as integer
    nanoseconds of virtual time.  The paper's testbed runs at 2.0 GHz, so one
    cycle is exactly half a nanosecond; [of_cycles] uses that conversion
    everywhere a paper-reported cycle count (e.g. Table 6) has to meet the
    nanosecond world of the scheduler. *)

type t = int
(** Nanoseconds of virtual time since simulation start. *)

val zero : t

val ns : int -> t
(** [ns x] is [x] nanoseconds. *)

val us : int -> t
(** [us x] is [x] microseconds. *)

val ms : int -> t
(** [ms x] is [x] milliseconds. *)

val s : int -> t
(** [s x] is [x] seconds. *)

val of_us_float : float -> t
(** [of_us_float x] converts a (possibly fractional) microsecond value,
    rounding to the nearest nanosecond. *)

val to_us_float : t -> float
(** [to_us_float t] is [t] expressed in microseconds. *)

val to_s_float : t -> float

val of_cycles : int -> t
(** Convert a cycle count to nanoseconds (rounding to nearest). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)

