module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors

exception Binding_rule_violation of string

type kthread = {
  tid : int;
  app : int;
  core : int;
  ctx : Machine.uintr_ctx;
  mutable active : bool;  (* else parked *)
}

type t = {
  machine : Machine.t;
  mutable threads : kthread list;
  mutable next_tid : int;  (* per-instance tid allocator: no global state *)
  steal_handlers : (int, duration:Time.t -> unit) Hashtbl.t;
  stolen : Time.t array;
      (* core -> end of its latest steal; at or before now: not stolen *)
  mutable steals : int;
}

let create machine =
  {
    machine;
    threads = [];
    next_tid = 1;
    steal_handlers = Hashtbl.create 8;
    stolen = Array.make (Machine.n_cores machine) 0;
    steals = 0;
  }

let violation fmt = Format.kasprintf (fun s -> raise (Binding_rule_violation s)) fmt

let kthreads_on t ~core = List.filter (fun kt -> kt.core = core) t.threads
let active_on t ~core = List.find_opt (fun kt -> kt.core = core && kt.active) t.threads

let park_on_cpu t ~app ~core =
  if core < 0 || core >= Machine.n_cores t.machine then
    invalid_arg "Kmod.park_on_cpu: bad core";
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let kt =
    { tid; app; core; ctx = Machine.uintr_create_ctx (); active = false }
  in
  t.threads <- kt :: t.threads;
  kt

let activate t kt =
  if kt.active then violation "activate: kthread %d already active" kt.tid;
  (match active_on t ~core:kt.core with
  | Some other ->
      violation "activate: core %d already has active kthread %d (app %d)" kt.core
        other.tid other.app
  | None -> ());
  kt.active <- true;
  Machine.uintr_install t.machine ~core:kt.core kt.ctx;
  Costs.linux_wakeup_switch_ns

let switch_to t ~from ~target =
  if from == target then violation "switch_to: from and target are the same kthread";
  if not from.active then violation "switch_to: kthread %d is not active" from.tid;
  if from.core <> target.core then
    violation "switch_to: cross-core switch (%d -> %d)" from.core target.core;
  (* Both transitions happen atomically in the kernel, upholding the
     binding rule throughout (§3.3). *)
  from.active <- false;
  target.active <- true;
  Machine.uintr_install t.machine ~core:target.core target.ctx;
  Costs.app_switch_ns

let is_active kt = kt.active
let uintr_ctx kt = kt.ctx

let timer_enable _t kt =
  Machine.uintr_set_uinv kt.ctx Vectors.timer;
  Machine.uintr_set_sn kt.ctx true

let timer_set_hz t ~core ~hz =
  Machine.timer_set_periodic t.machine ~core ~hz;
  Time.of_cycles Costs.lapic_timer_program

(* ---- imperfect isolation: the host kernel steals a core ---------------- *)

let on_steal t ~core f = Hashtbl.replace t.steal_handlers core f
let stolen_until t ~core = t.stolen.(core)

let steal_core t ~core ~duration =
  if duration <= 0 then invalid_arg "Kmod.steal_core: duration must be positive";
  if core < 0 || core >= Machine.n_cores t.machine then
    invalid_arg "Kmod.steal_core: bad core";
  t.steals <- t.steals + 1;
  let engine = Machine.engine t.machine in
  (* overlapping steals extend *)
  let until = Int.max t.stolen.(core) (Engine.now engine + duration) in
  t.stolen.(core) <- until;
  let c = Machine.core t.machine core in
  Machine.mask_interrupts c;
  (match Hashtbl.find_opt t.steal_handlers core with
  | Some f -> f ~duration
  | None -> ());
  Engine.at engine until (fun () ->
      (* Only the latest steal's expiry hands the core back. *)
      if t.stolen.(core) = until then Machine.unmask_interrupts c)

let steals t = t.steals

let register_metrics t reg =
  Skyloft_obs.Registry.counter reg "skyloft_kmod_steals_total"
    ~help:"Host-kernel core steals on isolated cores" (fun () -> t.steals)
