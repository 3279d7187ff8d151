(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256** implementation so that every experiment in
    the repository is reproducible from a single integer seed, independent of
    the OCaml stdlib's [Random] state.  Streams can be split ([split]) to give
    independent generators to independent simulation components (one per
    load generator, one per application, ...) without coupling their draws. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator whose whole future is determined by
    [seed].  Two generators with the same seed produce the same stream. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t].  Use one split stream per simulation component. *)

val copy : t -> t
(** Deep copy: the copy and the original produce the same future stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output.  The result is a boxed [int64] (3 words); the
    [int]-returning draws below allocate nothing. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val bits53 : t -> int
(** The top 53 bits of the next output, in [\[0, 2{^53})]: the numerator
    of [uniform], which is [float_of_int (bits53 t) *. 0x1p-53] for the
    same draw.  Lets a caller build a float draw without a boxed float
    crossing the call. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val exponential_ns : t -> mean:float -> int
(** A draw from the exponential distribution with the given mean,
    truncated to an [int] (an exponential gap or service time in ns).
    The float never leaves the call, so nothing is boxed. *)
