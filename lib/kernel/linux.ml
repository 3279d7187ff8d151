module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Histogram = Skyloft_stats.Histogram

type policy =
  | Cfs of {
      hz : int;
      min_granularity : Time.t;
      sched_latency : Time.t;
      wakeup_granularity : Time.t;
    }
  | Rr of { hz : int; slice : Time.t }
  | Eevdf of { hz : int; base_slice : Time.t }

(* Table 5 parameter sets.  wakeup_granularity is not listed in the paper;
   we follow the kernel's convention of keeping it in the order of
   min_granularity. *)
let cfs_default =
  Cfs
    {
      hz = 250;
      min_granularity = Time.ms 3;
      sched_latency = Time.ms 24;
      wakeup_granularity = Time.ms 3;
    }

let cfs_tuned =
  Cfs
    {
      hz = 1000;
      min_granularity = Time.of_us_float 12.5;
      sched_latency = Time.us 50;
      wakeup_granularity = Time.of_us_float 12.5;
    }

let rr_default = Rr { hz = 250; slice = Time.ms 100 }
let eevdf_default = Eevdf { hz = 1000; base_slice = Time.ms 3 }
let eevdf_tuned = Eevdf { hz = 1000; base_slice = Time.of_us_float 12.5 }

type cpu = {
  idx : int;  (* machine core id *)
  mutable curr : Kthread.t option;
  rq : Kthread.t Fair.t;  (* ready threads, by the policy sort key *)
  mutable last_update : Time.t;
  completion : Engine.timer;
      (* the cpu's one stable segment-end timer, armed per segment *)
}

type t = {
  machine : Machine.t;
  engine : Engine.t;
  policy : policy;
  cpus : cpu array;
  slot : int array;  (* machine core id -> position in [cpus], or -1 *)
  wakeups : Histogram.t;
  mutable alive : int;
}

let now t = Engine.now t.engine

let policy_hz = function Cfs { hz; _ } -> hz | Rr { hz; _ } -> hz | Eevdf { hz; _ } -> hz

let slot_of t core =
  if core >= 0 && core < Array.length t.slot then t.slot.(core) else -1

(* ---- vruntime / deadline accounting ---------------------------------- *)

let update_curr t cpu =
  let n = now t in
  (match cpu.curr with
  | Some kt when kt.Kthread.state = Kthread.Running && n > cpu.last_update ->
      kt.vruntime <- Fair.charge ~weight:kt.weight kt.vruntime (n - cpu.last_update)
  | _ -> ());
  cpu.last_update <- n;
  Fair.update_min cpu.rq
    ~curr:(match cpu.curr with Some kt -> kt.Kthread.vruntime | None -> infinity)

(* Linux's EEVDF average counts the running thread. *)
let avg_vruntime cpu =
  Fair.avg_vruntime cpu.rq
    ~curr:(match cpu.curr with Some kt -> Some kt.Kthread.vruntime | None -> None)

let nr_on cpu = Fair.length cpu.rq + match cpu.curr with Some _ -> 1 | None -> 0

(* ---- enqueue / pick --------------------------------------------------- *)

let enqueue t cpu (kt : Kthread.t) =
  (* Migrating between runqueues renormalises the virtual time basis. *)
  let s = slot_of t kt.last_core in
  if s >= 0 && t.cpus.(s) != cpu then begin
    let src = t.cpus.(s).rq in
    kt.vruntime <- Fair.migrate ~src ~dst:cpu.rq kt.vruntime;
    kt.deadline <- Fair.migrate ~src ~dst:cpu.rq kt.deadline
  end;
  kt.last_core <- cpu.idx;
  (* RR keys everything at 0.0, so the (key, seq) order is plain FIFO. *)
  let key = match t.policy with Rr _ -> 0.0 | Cfs _ | Eevdf _ -> kt.vruntime in
  Fair.add cpu.rq ~key ~vruntime:kt.vruntime ~deadline:kt.deadline kt

let pop_next t cpu =
  match t.policy with
  | Rr _ | Cfs _ -> Fair.pop_min_key cpu.rq
  | Eevdf _ -> Fair.pop_eevdf cpu.rq ~avg:(avg_vruntime cpu)

(* Idle balance: pull the earliest-enqueued Ready thread from the busiest
   runqueue. *)
let steal t cpu =
  let best = ref None in
  Array.iter
    (fun other ->
      if other != cpu && not (Fair.is_empty other.rq) then
        match !best with
        | Some b when nr_on b >= nr_on other -> ()
        | _ -> best := Some other)
    t.cpus;
  match !best with None -> None | Some src -> Fair.pop_earliest src.rq

(* ---- dispatch / run --------------------------------------------------- *)

let rec process t cpu (kt : Kthread.t) =
  match kt.body with
  | Coro.Compute (d, k) ->
      kt.cont <- k;
      kt.segment_end <- now t + d;
      Engine.arm cpu.completion ~at:kt.segment_end
  | Coro.Yield _ ->
      (* The continuation is evaluated when the thread is dispatched again,
         so its side effects happen at resume time. *)
      update_curr t cpu;
      kt.state <- Kthread.Ready;
      cpu.curr <- None;
      enqueue t cpu kt;
      rr_requeue t kt;
      schedule t cpu ~prev:(Some kt)
  | Coro.Block k ->
      if kt.pending_wake then begin
        kt.pending_wake <- false;
        kt.body <- k ();
        process t cpu kt
      end
      else begin
        kt.body <- Coro.Block k;
        update_curr t cpu;
        eevdf_dequeue t cpu kt;
        kt.state <- Kthread.Blocked;
        cpu.curr <- None;
        schedule t cpu ~prev:(Some kt)
      end
  | Coro.Exit ->
      update_curr t cpu;
      kt.state <- Kthread.Exited;
      t.alive <- t.alive - 1;
      cpu.curr <- None;
      schedule t cpu ~prev:(Some kt)

and rr_requeue t (kt : Kthread.t) =
  match t.policy with Rr { slice; _ } -> kt.slice_left <- slice | Cfs _ | Eevdf _ -> ()

and eevdf_dequeue t cpu (kt : Kthread.t) =
  match t.policy with
  | Eevdf { base_slice; _ } ->
      kt.lag <- Fair.clamp_lag ~base_slice (avg_vruntime cpu -. kt.vruntime)
  | Cfs _ | Rr _ -> ()

and on_complete t cpu (kt : Kthread.t) =
  update_curr t cpu;
  kt.body <- kt.cont ();
  process t cpu kt

and dispatch t cpu (kt : Kthread.t) ~switch_cost =
  kt.state <- Kthread.Running;
  cpu.curr <- Some kt;
  let start = now t + switch_cost in
  (match kt.wake_time with
  | Some w ->
      if kt.track_wakeup then Histogram.record t.wakeups (start - w);
      kt.wake_time <- None
  | None -> ());
  kt.slice_start <- start;
  (match t.policy with
  | Rr { slice; _ } -> if kt.slice_left <= 0 then kt.slice_left <- slice
  | Eevdf { base_slice; _ } ->
      if kt.deadline <= kt.vruntime then
        kt.deadline <- Fair.deadline ~base_slice kt.vruntime
  | Cfs _ -> ());
  cpu.last_update <- start;
  let continue () =
    match cpu.curr with
    | Some k when k == kt && kt.state = Kthread.Running ->
        (match kt.body with
        | Coro.Yield k -> kt.body <- k ()
        | Coro.Block k when kt.resuming ->
            kt.resuming <- false;
            kt.body <- k ()
        | Coro.Block _ | Coro.Compute _ | Coro.Exit -> ());
        process t cpu kt
    | _ -> ()
  in
  if switch_cost = 0 then continue ()
  else Engine.after t.engine switch_cost continue

and schedule t cpu ~prev =
  let next = match pop_next t cpu with Some _ as k -> k | None -> steal t cpu in
  match next with
  | None -> cpu.curr <- None
  | Some kt ->
      let same = match prev with Some p -> p == kt | None -> false in
      let cost =
        if same then 0
        else if kt.wake_time <> None then Costs.linux_wakeup_switch_ns
        else Costs.linux_ctx_switch_ns
      in
      dispatch t cpu kt ~switch_cost:cost

(* ---- preemption -------------------------------------------------------- *)

let preempt_curr t cpu =
  match cpu.curr with
  | Some kt when Engine.armed cpu.completion ->
      update_curr t cpu;
      Engine.disarm cpu.completion;
      let remaining = Int.max 0 (kt.segment_end - now t) in
      kt.body <- Coro.Compute (remaining, kt.cont);
      kt.state <- Kthread.Ready;
      cpu.curr <- None;
      enqueue t cpu kt;
      schedule t cpu ~prev:(Some kt)
  | _ -> ()

(* Interrupt overhead pushes the running segment's completion back. *)
let steal_time cpu cost =
  match cpu.curr with
  | Some kt when Engine.armed cpu.completion ->
      kt.segment_end <- kt.segment_end + cost;
      Engine.arm cpu.completion ~at:kt.segment_end
  | _ -> ()

let tick_period t = Int.max 1 (1_000_000_000 / policy_hz t.policy)

let on_tick t cpu =
  steal_time cpu Costs.kernel_tick_ns;
  update_curr t cpu;
  match cpu.curr with
  | None -> ()
  | Some kt -> (
      if not (Fair.is_empty cpu.rq) then
        match t.policy with
        | Cfs { min_granularity; sched_latency; _ } ->
            let slice = Fair.cfs_slice ~min_granularity ~sched_latency ~nr:(nr_on cpu) in
            if now t - kt.slice_start >= slice then preempt_curr t cpu
        | Rr _ ->
            kt.slice_left <- kt.slice_left - tick_period t;
            if kt.slice_left <= 0 then begin
              rr_requeue t kt;
              preempt_curr t cpu
            end
        | Eevdf { base_slice; _ } ->
            if now t - kt.slice_start >= base_slice then begin
              kt.deadline <- Fair.deadline ~base_slice kt.vruntime;
              preempt_curr t cpu
            end)

(* ---- construction ------------------------------------------------------- *)

let create machine policy ~cores =
  if cores = [] then invalid_arg "Linux.create: no cores";
  let cpus =
    Array.of_list
      (List.map
         (fun idx ->
           {
             idx;
             curr = None;
             rq = Fair.create ();
             last_update = 0;
             completion = Engine.timer (Machine.engine machine) ignore;
           })
         cores)
  in
  let slot = Array.make (1 + List.fold_left Int.max 0 cores) (-1) in
  Array.iteri (fun i c -> slot.(c.idx) <- i) cpus;
  let t =
    {
      machine;
      engine = Machine.engine machine;
      policy;
      cpus;
      slot;
      wakeups = Histogram.create ();
      alive = 0;
    }
  in
  (* Each cpu's completion reads [curr] when it fires: it is only armed
     for the running thread, and every path that takes the thread off the
     cpu disarms it first. *)
  Array.iter
    (fun c ->
      Engine.set_callback c.completion (fun () ->
          match c.curr with Some kt -> on_complete t c kt | None -> ()))
    cpus;
  Array.iter
    (fun cpu ->
      let core = Machine.core machine cpu.idx in
      Machine.set_kernel_handler core (fun v ->
          if v = Vectors.timer then on_tick t cpu);
      Machine.timer_set_periodic machine ~core:cpu.idx ~hz:(policy_hz policy))
    cpus;
  t

(* ---- wakeup / spawn ---------------------------------------------------- *)

let idle cpu = Option.is_none cpu.curr

let select_cpu t (kt : Kthread.t) =
  let s = slot_of t kt.last_core in
  let prev = if s >= 0 then Some t.cpus.(s) else None in
  match prev with
  | Some cpu when idle cpu -> cpu
  | _ -> (
      match Array.find_opt idle t.cpus with
      | Some cpu -> cpu
      | None -> (
          (* wake_affine: stay on the previous CPU unless it is clearly
             more loaded than the least-loaded one *)
          let least =
            Array.fold_left
              (fun best c -> if nr_on c < nr_on best then c else best)
              t.cpus.(0) t.cpus
          in
          match prev with Some p when nr_on p <= nr_on least + 1 -> p | _ -> least))

let wakeup_place cpu (kt : Kthread.t) = function
  | Cfs { sched_latency; _ } ->
      kt.vruntime <- Fair.place_sleeper cpu.rq ~sched_latency kt.vruntime
  | Eevdf { base_slice; _ } ->
      kt.vruntime <- avg_vruntime cpu -. kt.lag;
      kt.deadline <- Fair.deadline ~base_slice kt.vruntime
  | Rr _ -> ()

let wakeup_preempt t cpu (kt : Kthread.t) =
  match cpu.curr with
  | None -> ()
  | Some curr -> (
      match t.policy with
      | Cfs { wakeup_granularity; _ } ->
          update_curr t cpu;
          if kt.vruntime +. float_of_int wakeup_granularity < curr.Kthread.vruntime then
            preempt_curr t cpu
      | Eevdf _ ->
          update_curr t cpu;
          if kt.deadline < curr.Kthread.deadline then preempt_curr t cpu
      | Rr _ -> ())

let wakeup t (kt : Kthread.t) =
  match kt.state with
  | Kthread.Blocked ->
      kt.state <- Kthread.Ready;
      kt.resuming <- true;
      kt.wake_time <- Some (now t);
      let cpu = select_cpu t kt in
      wakeup_place cpu kt t.policy;
      enqueue t cpu kt;
      if idle cpu then begin
        (* the woken thread is the only candidate unless a steal beats it;
           schedule picks by policy *)
        match pop_next t cpu with
        | Some next ->
            dispatch t cpu next
              ~switch_cost:
                (if next.Kthread.wake_time <> None then Costs.linux_wakeup_switch_ns
                 else Costs.linux_ctx_switch_ns)
        | None -> ()
      end
      else wakeup_preempt t cpu kt
  | Kthread.Running | Kthread.Ready -> kt.pending_wake <- true
  | Kthread.Exited -> ()

let spawn t ?weight body =
  let kt = Kthread.create ?weight body in
  t.alive <- t.alive + 1;
  let cpu = select_cpu t kt in
  kt.vruntime <- Fair.min_vruntime cpu.rq;
  (match t.policy with
  | Eevdf { base_slice; _ } -> kt.deadline <- Fair.deadline ~base_slice kt.vruntime
  | Rr { slice; _ } -> kt.slice_left <- slice
  | Cfs _ -> ());
  kt.last_core <- cpu.idx;
  if idle cpu then dispatch t cpu kt ~switch_cost:Costs.linux_ctx_switch_ns
  else enqueue t cpu kt;
  kt

let wakeup_hist t = t.wakeups
let alive t = t.alive
