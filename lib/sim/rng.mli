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
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val exponential : t -> mean:float -> float
(** Draw from an exponential distribution with the given mean. *)
