(** Domain-based work pool for the experiment suite.

    Every data point in the §5 suite is an independent deterministic
    simulation, so sweeps are embarrassingly parallel.  {!map} fans the
    cells across [jobs] domains and merges results by cell index: the
    merged list is identical to [List.map f items] at any [jobs] — the
    determinism gates in [test/test_determinism.ml] hold under [-j 4]
    exactly because parallelism reorders only wall-clock execution. *)

val map : ?order:int array -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item across [jobs] domains
    (sequentially when [jobs <= 1], when there is at most one item, or
    when called from inside a worker — nested sweeps do not multiply
    domains) and returns the results in item order.

    If any cell raises, workers stop claiming new cells, every domain is
    joined (none is left hanging), and the exception from the raising
    cell with the smallest index is re-raised with its backtrace.

    [?order] fixes the order in which workers claim cells (a permutation
    of [0 .. n-1]); it exists so tests can prove claim order cannot leak
    into results.
    @raise Invalid_argument if [order] is not a permutation. *)

val grid :
  jobs:int -> 'r list -> 'c list -> ('r -> 'c -> 'b) -> ('r * 'b list) list
(** [grid ~jobs rows cols f] runs one cell [f r c] per row and column
    through {!map}, so all of them fan across [jobs] domains at once, and
    returns each row with its results in column order:
    [List.map (fun r -> (r, List.map (f r) cols)) rows] at any [jobs]. *)
