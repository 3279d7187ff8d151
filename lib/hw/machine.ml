module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Bits = Skyloft_sim.Bits

type vector = int

(* PIR and UIRR are 64-bit sets of user vectors, each kept as two 32-bit
   halves in immediate ints: vectors 32..63 in [_hi], 0..31 in [_lo].  An
   [int64] field would box on every write, and every delegated timer tick
   writes both (recognition, then the handler's re-post). *)
type uintr_ctx = {
  mutable pir_hi : int;
  mutable pir_lo : int;
  mutable sn : bool;
  mutable uinv : vector;
  mutable uirr_hi : int;
  mutable uirr_lo : int;
  mutable handler : uintr_ctx -> uvec:int -> unit;  (* [no_handler]: none *)
  mutable installed_on : int;  (* core id; -1 when not installed *)
}

(* The handler of a context that registered none, compared physically. *)
let no_handler _ ~uvec:_ = ()

let uintr_create_ctx () =
  {
    pir_hi = 0;
    pir_lo = 0;
    sn = false;
    uinv = Vectors.uintr_notification;
    uirr_hi = 0;
    uirr_lo = 0;
    handler = no_handler;
    installed_on = -1;
  }

(* The [uintr] of a core with no receiver installed: compared physically
   and never written, as cells run in parallel domains.  A core always
   holds a context, so installing one allocates nothing. *)
let no_ctx = uintr_create_ctx ()

type core = {
  mutable uintr : uintr_ctx;  (* [no_ctx] when none is installed *)
  mutable kernel_handler : (vector -> unit) option;
  mutable masked : bool;
  mutable pending : vector list;  (* reversed arrival order *)
  mutable timer_gen : int;  (* invalidates stale periodic arms *)
  mutable hz : int;
  mutable user_interrupts : int;
  mutable dropped : int;
  deliver : (unit -> unit) option array;
      (* memoized per-vector delivery closures: every IPI to this core
         schedules the same closure instead of allocating a fresh one *)
}

type fate = Deliver | Drop | Delay of Time.t

type t = {
  engine : Engine.t;
  topo : Topology.t;
  cores : core array;
  mutable fault_hook : (core:int -> vector -> fate) option;
}

let create engine topo =
  let make_core _ =
    {
      uintr = no_ctx;
      kernel_handler = None;
      masked = false;
      pending = [];
      timer_gen = 0;
      hz = 0;
      user_interrupts = 0;
      dropped = 0;
      deliver = Array.make 256 None;
    }
  in
  {
    engine;
    topo;
    cores = Array.init (Topology.total_cores topo) make_core;
    fault_hook = None;
  }

let engine t = t.engine
let n_cores t = Array.length t.cores

let core t i =
  if i < 0 || i >= Array.length t.cores then invalid_arg "Machine.core: bad core id";
  t.cores.(i)

let set_kernel_handler c f = c.kernel_handler <- Some f
let interrupts_masked c = c.masked

(* The highest set UIRR vector below [below] (0..64), or -1. *)
let highest_uirr ctx ~below =
  if below > 32 then
    let hi = ctx.uirr_hi land ((1 lsl (below - 32)) - 1) in
    if hi <> 0 then 32 + Bits.msb hi
    else if ctx.uirr_lo <> 0 then Bits.msb ctx.uirr_lo
    else -1
  else
    let lo = ctx.uirr_lo land ((1 lsl below) - 1) in
    if lo <> 0 then Bits.msb lo else -1

(* Run the handler once per set UIRR bit, highest vector first (x86
   priority order), visiting only the set bits.  UIRR is reread after each
   handler call, and only vectors below the one just handled are
   considered: a handler that re-enters [recognize] (by re-installing the
   context) sees exactly what a 63-downto-0 walk over the live UIRR would. *)
let rec deliver_uirr c ctx handler ~below =
  let uvec = highest_uirr ctx ~below in
  if uvec >= 0 then begin
    if uvec >= 32 then ctx.uirr_hi <- ctx.uirr_hi land lnot (1 lsl (uvec - 32))
    else ctx.uirr_lo <- ctx.uirr_lo land lnot (1 lsl uvec);
    c.user_interrupts <- c.user_interrupts + 1;
    handler ctx ~uvec;
    deliver_uirr c ctx handler ~below:uvec
  end

let pir_empty ctx = ctx.pir_hi lor ctx.pir_lo = 0

(* Recognition: move posted PIR bits into the UIRR and deliver them. *)
let recognize c ctx =
  if pir_empty ctx then c.dropped <- c.dropped + 1
  else begin
    ctx.uirr_hi <- ctx.uirr_hi lor ctx.pir_hi;
    ctx.uirr_lo <- ctx.uirr_lo lor ctx.pir_lo;
    ctx.pir_hi <- 0;
    ctx.pir_lo <- 0;
    let handler = ctx.handler in
    if handler != no_handler then deliver_uirr c ctx handler ~below:64
  end

let dispatch c v =
  let ctx = c.uintr in
  if ctx != no_ctx && v = ctx.uinv then recognize c ctx
  else match c.kernel_handler with Some f -> f v | None -> ()

let raise_vector c v = if c.masked then c.pending <- v :: c.pending else dispatch c v

let mask_interrupts c = c.masked <- true

let unmask_interrupts c =
  c.masked <- false;
  let queued = List.rev c.pending in
  c.pending <- [];
  let rec replay = function
    | [] -> ()
    | v :: rest ->
        if c.masked then
          (* A handler re-masked mid-replay.  The still-queued remainder is
             older than anything raised since the re-mask, so it belongs at
             the back of [pending] (which is newest-first): appending its
             reversal preserves global arrival order. *)
          c.pending <- c.pending @ List.rev (v :: rest)
        else begin
          dispatch c v;
          replay rest
        end
  in
  replay queued

(* Fault injection (lib/fault): an optional hook decides the fate of each
   interrupt about to be delivered.  Without a hook every call is [Deliver]
   with zero extra work, so fault-free runs are bit-identical to a build
   that never heard of injection. *)
let set_fault_hook t f = t.fault_hook <- Some f

let fault_fate t ~core v =
  match t.fault_hook with
  | None -> Deliver
  | Some f -> f ~core v

(* The delivery closure for vector [v] at [c], built once per (core,
   vector) pair and reused for every subsequent IPI — delivery itself then
   allocates nothing per interrupt. *)
let delivery c v =
  if v < 0 || v >= Array.length c.deliver then fun () -> raise_vector c v
  else
    match Array.unsafe_get c.deliver v with
    | Some f -> f
    | None ->
        let f () = raise_vector c v in
        c.deliver.(v) <- Some f;
        f

let send_ipi t ~src ~dst v =
  let cross = Topology.cross_numa t.topo src dst in
  let latency =
    if v = Vectors.uintr_notification then Costs.uipi_delivery_ns ~cross_numa:cross
    else Costs.kipi_delivery_ns
  in
  let target = core t dst in
  match fault_fate t ~core:dst v with
  | Drop -> ()
  | Delay d -> Engine.after t.engine (latency + d) (delivery target v)
  | Deliver -> Engine.after t.engine latency (delivery target v)

let timer_set_periodic t ~core:i ~hz =
  if hz <= 0 then invalid_arg "Machine.timer_set_periodic: hz must be positive";
  let c = core t i in
  c.timer_gen <- c.timer_gen + 1;
  c.hz <- hz;
  let gen = c.timer_gen in
  let period = Int.max 1 (1_000_000_000 / hz) in
  Engine.every t.engine ~period (fun () ->
      if c.timer_gen = gen then begin
        (* LAPIC ticks are local, but the injector may still lose or delay
           them — the imperfect-isolation failure mode of delegated timers. *)
        (match fault_fate t ~core:i Vectors.timer with
        | Drop -> ()
        | Delay d ->
            (* Recheck the generation at fire time: a tick delayed past
               a re-arm must not deliver. *)
            Engine.after t.engine d (fun () ->
                if c.timer_gen = gen then raise_vector c Vectors.timer)
        | Deliver -> raise_vector c Vectors.timer);
        true
      end
      else false)

let timer_hz c = c.hz

let uintr_register_handler ctx ~uinv handler =
  ctx.uinv <- uinv;
  ctx.handler <- handler

let uintr_set_uinv ctx v = ctx.uinv <- v
let uintr_set_sn ctx sn = ctx.sn <- sn
let uintr_sn ctx = ctx.sn
let uintr_pir_pending ctx = not (pir_empty ctx)

let uintr_install t ~core:i ctx =
  let c = core t i in
  let old = c.uintr in
  if old != no_ctx then old.installed_on <- -1;
  c.uintr <- ctx;
  ctx.installed_on <- i;
  (* Hardware recognises already-posted interrupts when the thread resumes
     user mode. *)
  if (not (pir_empty ctx)) && not c.masked then recognize c ctx

let uintr_installed t ~core:i =
  let ctx = (core t i).uintr in
  if ctx == no_ctx then None else Some ctx

let senduipi t ~src_core ctx ~uvec =
  if uvec < 0 || uvec > 63 then invalid_arg "Machine.senduipi: uvec out of range";
  if uvec >= 32 then ctx.pir_hi <- ctx.pir_hi lor (1 lsl (uvec - 32))
  else ctx.pir_lo <- ctx.pir_lo lor (1 lsl uvec);
  if not ctx.sn then
    let dst = ctx.installed_on in
    if dst >= 0 then send_ipi t ~src:src_core ~dst ctx.uinv

let user_interrupts_delivered c = c.user_interrupts
let dropped_notifications c = c.dropped
