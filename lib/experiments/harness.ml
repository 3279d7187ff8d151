module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod

(** What every §5 cell is built from.  A figure is a list of cells, a
    cell runner over {!fresh} and a printer ({!Report.series} for the
    name-per-row, point-per-column tables); {!Parallel.grid} runs the
    cells. *)

(* A cell's machine: the seeded engine, the paper's 24-core server and
   its kernel module.  Runtimes are built on it by the cell
   ([Scenario.build] is one such builder). *)
let fresh (config : Config.t) =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  (engine, machine, Kmod.create machine)

(* [read ()] at the end of the measured window ([config.duration]):
   counting the drain tail after it would overstate a saturated system.
   Call the returned getter after the run has passed the window. *)
let window engine (config : Config.t) read =
  let v = ref None in
  Engine.at engine config.duration (fun () -> v := Some (read ()));
  fun () -> Option.get !v

(* The --quick / default / --full tier [config]'s duration falls in. *)
let tier (config : Config.t) ~quick ~default ~full =
  if config.duration <= Config.quick.duration then quick
  else if config.duration >= Config.full.duration then full
  else default

(* A request-driven experiment's count: --requests, else by tier. *)
let requests (config : Config.t) ~quick ~default ~full =
  Option.value config.requests ~default:(tier config ~quick ~default ~full)

(* A count over the measured window, per second. *)
let per_s (config : Config.t) n = float_of_int n /. Time.to_s_float config.duration

(** The SLO knee: the highest achieved load over the points whose
    [metric] stays at or under [slo] — the "maximum throughput" number
    the paper quotes (tail explosion = saturation); 0 if none does. *)
let knee ~slo metric achieved points =
  List.fold_left
    (fun acc p -> if metric p <= slo then max acc (achieved p) else acc)
    0.0 points

(* One row per system: the knee of its points, in krps. *)
let print_knees label ~slo metric achieved results =
  Report.table ~header:[ "system"; label ]
    (List.map
       (fun (name, points) -> [ name; Report.krps (knee ~slo metric achieved points) ])
       results)
