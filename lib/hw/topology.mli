(** Machine topology: sockets, cores, NUMA distance.

    The paper's server is a dual-socket Sapphire Rapids machine with 24
    physical cores per socket at 2.0 GHz (§5, experimental setup);
    [paper_server] reproduces it.  Core ids are dense in
    [\[0, total_cores)], assigned socket-major. *)

type t

val create : sockets:int -> cores_per_socket:int -> t
(** Both arguments must be positive. *)

val paper_server : t
(** 2 sockets x 24 cores, as in the evaluation. *)

val total_cores : t -> int
val cross_numa : t -> int -> int -> bool
(** Whether two cores live on different sockets (different NUMA nodes).
    Raises [Invalid_argument] on a core id outside the machine. *)
