module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Machine = Skyloft_hw.Machine
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Nic = Skyloft_net.Nic
module Trace = Skyloft_stats.Trace
module Allocator = Skyloft_alloc.Allocator
module Broker = Skyloft_alloc.Broker

type target = {
  machine : Machine.t;
  kmod : Kmod.t option;
  nic : Nic.t option;
  cores : int list;
  poison : (core:int -> service:Time.t -> unit) option;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  trace : Trace.t option;
  counts : (string, int) Hashtbl.t;
  mutable armed : bool;
}

let create ~engine ~rng ?trace () =
  {
    engine;
    rng;
    trace;
    counts = Hashtbl.create 8;
    armed = false;
  }

let now t = Engine.now t.engine

let record t ~kind ~core =
  Hashtbl.replace t.counts kind
    (1 + Option.value (Hashtbl.find_opt t.counts kind) ~default:0);
  match t.trace with
  | Some trace ->
      Trace.instant trace ~core:(max 0 core) ~at:(now t) Trace.Inject ~name:kind
  | None -> ()

(* One periodic loop per scheduled plan, for the whole run. *)
let periodic t ~period fire =
  Engine.every t.engine ~period (fun () ->
      fire ();
      true)

let pick_core t cores =
  let arr = Array.of_list cores in
  arr.(Rng.int t.rng (Array.length arr))

(* Every plan's requirement is checked before the first side effect, so
   a rejected list leaves no hook, no loss filter and no timer behind,
   and the injector can still be armed. *)
let arm t target plans =
  let fail msg = invalid_arg ("Injector.arm: " ^ msg) in
  if t.armed then fail "already armed";
  if target.cores = [] then fail "no target cores";
  List.iter
    (fun (p : Plan.t) ->
      match p.Plan.spec with
      | Plan.Ipi_loss _ -> ()
      | Plan.Packet_loss _ ->
          if target.nic = None then fail "packet-loss plan without a NIC"
      | Plan.Core_steal _ ->
          if target.kmod = None then fail "core-steal plan without a Kmod"
      | Plan.Poison _ ->
          if target.poison = None then fail "poison plan without a spawn callback"
      | Plan.Tenant_hoard _ | Plan.Tenant_stale _ | Plan.Tenant_crash _ ->
          fail "tenant plans are armed with arm_tenants")
    plans;
  let ipi_plans =
    List.filter_map
      (fun (p : Plan.t) ->
        match p.Plan.spec with
        | Plan.Ipi_loss l -> Some l
        | _ -> None)
      plans
  in
  (* The machine has one fault hook, so one IPI-loss plan decides the fate
     of each queried delivery; a second would be silently ignored. *)
  if List.length ipi_plans > 1 then fail "at most one IPI-loss plan";
  t.armed <- true;
  (* The hook only touches notification and delegated-timer vectors on
     target cores: everything else delivers untouched. *)
  (match ipi_plans with
  | [] -> ()
  | { Plan.p_drop; p_delay; delay } :: _ ->
      Machine.set_fault_hook target.machine (fun ~core vector ->
          let applicable =
            (vector = Vectors.uintr_notification || vector = Vectors.timer)
            && List.mem core target.cores
          in
          if not applicable then Machine.Deliver
          else if p_drop > 0.0 && Rng.uniform t.rng < p_drop then begin
            record t ~kind:"ipi-drop" ~core;
            Machine.Drop
          end
          else if p_delay > 0.0 && Rng.uniform t.rng < p_delay then begin
            record t ~kind:"ipi-delay" ~core;
            Machine.Delay delay
          end
          else Machine.Deliver));
  let packet_plans =
    List.filter_map
      (fun (p : Plan.t) ->
        match p.Plan.spec with
        | Plan.Packet_loss { p_drop } -> Some p_drop
        | _ -> None)
      plans
  in
  if packet_plans <> [] then
    Nic.set_loss (Option.get target.nic)
      (Some
         (fun _pkt ->
           List.exists
             (fun p_drop ->
               Rng.uniform t.rng < p_drop
               &&
               (record t ~kind:"pkt-drop" ~core:(-1);
                true))
             packet_plans));
  List.iter
    (fun (p : Plan.t) ->
      match p.Plan.spec with
      | Plan.Ipi_loss _ | Plan.Packet_loss _ | Plan.Tenant_hoard _
      | Plan.Tenant_stale _ | Plan.Tenant_crash _ ->
          ()
      | Plan.Core_steal { period; duration } ->
          let kmod = Option.get target.kmod in
          periodic t ~period (fun () ->
              let core = pick_core t target.cores in
              record t ~kind:"core-steal" ~core;
              Kmod.steal_core kmod ~core ~duration)
      | Plan.Poison { period; service } ->
          let poison = Option.get target.poison in
          periodic t ~period (fun () ->
              let core = pick_core t target.cores in
              record t ~kind:"poison" ~core;
              poison ~core ~service))
    plans

(* Tenant-level faults live one layer up from the machine: they corrupt
   (or end) what a tenant tells the machine-level core broker, not what
   the hardware does.  Armed separately from [arm] because the target is
   a [Broker.t], and independently of it — a scenario may arm both.  The
   hoard and stale interceptors are pure functions of the window and the
   sample stream, and the crash is a single scheduled thunk, so no RNG is
   drawn: tenant plans keep the fault-free-bit-identical contract.  The
   whole list is checked first, so a rejected one installs nothing. *)
let arm_tenants t ~broker plans =
  List.iter
    (fun (p : Plan.t) ->
      match p.Plan.spec with
      | Plan.Tenant_hoard { tenant } | Plan.Tenant_stale { tenant }
      | Plan.Tenant_crash { tenant } ->
          (* raises on a tenant the broker does not know *)
          ignore (Broker.health broker ~tenant)
      | Plan.Ipi_loss _ | Plan.Core_steal _ | Plan.Poison _
      | Plan.Packet_loss _ ->
          invalid_arg "Injector.arm_tenants: not a tenant plan")
    plans;
  List.iter
    (fun (p : Plan.t) ->
      match p.Plan.spec with
      | Plan.Tenant_hoard { tenant } ->
          (* Claim congestion forever: deep queue, old work, and a busy
             integral that advances by exactly granted-cores x interval
             every tick — fully utilized, never stale, always hungry.
             This is the adversary the hoard detector (not the staleness
             detector) must catch. *)
          let active = ref false in
          let busy = ref 0 in
          Broker.intercept_sample broker ~tenant (fun ~granted raw ->
              if Plan.active p.Plan.window ~at:(now t) then begin
                if not !active then begin
                  active := true;
                  busy := raw.Allocator.busy_ns;
                  record t ~kind:"tenant-hoard" ~core:(-1)
                end;
                busy := !busy + (granted * Allocator.interval);
                {
                  Allocator.runq_len = 64;
                  oldest_delay = Time.ms 5;
                  busy_ns = !busy;
                }
              end
              else begin
                active := false;
                raw
              end)
      | Plan.Tenant_stale { tenant } ->
          (* Stop reporting: the sample freezes at the first in-window
             value, queue pinned non-empty so the frozen signal reads as
             "work waiting, nothing moving" — the staleness detector's
             trigger condition. *)
          let frozen = ref None in
          Broker.intercept_sample broker ~tenant (fun ~granted:_ raw ->
              if Plan.active p.Plan.window ~at:(now t) then begin
                match !frozen with
                | Some r -> r
                | None ->
                    let r =
                      { raw with Allocator.runq_len = max 1 raw.Allocator.runq_len }
                    in
                    frozen := Some r;
                    record t ~kind:"tenant-stale" ~core:(-1);
                    r
              end
              else begin
                frozen := None;
                raw
              end)
      | Plan.Tenant_crash { tenant } ->
          let at = max (Plan.start p.Plan.window) (now t) in
          Engine.at t.engine at (fun () ->
              record t ~kind:"tenant-crash" ~core:(-1);
              Broker.crash broker ~tenant)
      | Plan.Ipi_loss _ | Plan.Core_steal _ | Plan.Poison _
      | Plan.Packet_loss _ ->
          ())
    plans

let injected t = Hashtbl.fold (fun _ n acc -> acc + n) t.counts 0

let injected_of t ~kind =
  Option.value (Hashtbl.find_opt t.counts kind) ~default:0

let register_metrics t reg =
  let module Registry = Skyloft_obs.Registry in
  Registry.counter reg "skyloft_fault_injected_total"
    ~help:"Faults injected" (fun () -> injected t);
  List.iter
    (fun kind ->
      Registry.counter reg
        ~labels:[ ("kind", kind) ]
        "skyloft_fault_injected_kind_total" ~help:"Faults injected by kind"
        (fun () -> injected_of t ~kind))
    [
      "ipi-drop";
      "ipi-delay";
      "core-steal";
      "poison";
      "pkt-drop";
      "tenant-hoard";
      "tenant-stale";
      "tenant-crash";
    ]
