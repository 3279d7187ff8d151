module Time = Skyloft_sim.Time

type kind = Lc | Be

type signal = {
  kind : kind;
  mutable cores : int;
  mutable runq_len : int;
  mutable oldest_delay : Time.t;
  mutable busy_ns : int;
  mutable window_ns : int;
}

(* Busy time over the window, computed where it is read: a float field
   would box on every refill. *)
let utilization_of s = float_of_int s.busy_ns /. float_of_int s.window_ns

type decision = Grant of int | Yield of int | Hold

(* The policy signature: [t] carries per-application hysteresis state. *)
module type POLICY = sig
  type t

  val name : string
  val observe : t -> app:int -> signal -> decision
end

type t = P : (module POLICY with type t = 'a) * 'a -> t

let pack (type a) (m : (module POLICY with type t = a)) (st : a) = P (m, st)
let name (P ((module M), _)) = M.name
let observe (P ((module M), st)) ~app s = M.observe st ~app s

(* A BE app under the reactive policies: soak whatever the free pool holds
   (the arbiter clamps to burstable and to what is actually free). *)
let be_greedy (s : signal) =
  if s.cores < max_int then Grant max_int else Hold

(* Per-app hysteresis state keyed by app id: parallel arrays scanned in
   registration order.  An arbiter serves a handful of apps, and an int
   compare per entry is cheaper than hashing the id polymorphically. *)
module Per_app = struct
  type 'a t = {
    mutable ids : int array;
    mutable states : 'a array;
    mutable n : int;
    fresh : unit -> 'a;
  }

  let create fresh = { ids = [||]; states = [||]; n = 0; fresh }

  let add t id =
    let st = t.fresh () in
    if t.n = Array.length t.ids then begin
      let len = Int.max 4 (2 * t.n) in
      let ids = Array.make len 0 and states = Array.make len st in
      Array.blit t.ids 0 ids 0 t.n;
      Array.blit t.states 0 states 0 t.n;
      t.ids <- ids;
      t.states <- states
    end;
    t.ids.(t.n) <- id;
    t.states.(t.n) <- st;
    t.n <- t.n + 1;
    st

  (* Top-level, not a local [let rec]: that would allocate a closure per
     lookup. *)
  let rec find_from t id i =
    if i = t.n then add t id
    else if Array.unsafe_get t.ids i = id then Array.unsafe_get t.states i
    else find_from t id (i + 1)

  let find t id = find_from t id 0
end

(* ---- Static: the pre-allocator baseline split --------------------------- *)

module Static_impl = struct
  type t = unit

  let name = "static"

  let observe () ~app:_ s =
    match s.kind with
    | Lc ->
        (* Claim a core per queued task; hand everything back the moment
           the queue drains so BE regrows within one check interval. *)
        if s.runq_len > 0 then Grant s.runq_len
        else if s.cores > 0 then Yield s.cores
        else Hold
    | Be -> be_greedy s
end

let static () = pack (module Static_impl) ()

(* Consecutive intervals a reactive policy waits before it acts. *)
let hysteresis = 2

(* ---- Utilization: watermarks + hysteresis ------------------------------- *)

module Utilization_impl = struct
  type app_state = { mutable above : int; mutable below : int }
  type t = app_state Per_app.t

  let name = "utilization"
  let hi = 0.9
  let lo = 0.2

  let observe apps ~app s =
    let st = Per_app.find apps app in
    let utilization = utilization_of s in
    if utilization >= hi then begin
      st.below <- 0;
      st.above <- st.above + 1;
      if st.above >= hysteresis then begin
        st.above <- 0;
        (* Enough cores to bring utilization back under the high watermark:
           busy core-equivalents / hi, rounded up. *)
        let busy_cores = utilization *. float_of_int (Int.max 1 s.cores) in
        let want = int_of_float (ceil (busy_cores /. hi)) in
        Grant (Int.max 1 (want - s.cores))
      end
      else Hold
    end
    else if utilization <= lo then begin
      st.above <- 0;
      st.below <- st.below + 1;
      if st.below >= hysteresis && s.cores > 0 then begin
        st.below <- 0;
        (* Shed down to the high-watermark target in one step, so a calm
           app does not ratchet its grant upward over time. *)
        let busy_cores = utilization *. float_of_int (Int.max 1 s.cores) in
        let target = int_of_float (ceil (busy_cores /. hi)) in
        Yield (Int.max 1 (s.cores - target))
      end
      else Hold
    end
    else begin
      st.above <- 0;
      st.below <- 0;
      Hold
    end
end

let utilization () =
  pack
    (module Utilization_impl)
    (Per_app.create (fun () -> { Utilization_impl.above = 0; below = 0 }))

(* ---- Delay: Shenango's oldest-pending-task congestion signal ------------ *)

module Delay_impl = struct
  type app_state = { mutable calm : int }
  type t = app_state Per_app.t

  let name = "delay"
  let threshold = Time.us 10

  let observe apps ~app s =
    match s.kind with
    | Be -> be_greedy s
    | Lc ->
        let st = Per_app.find apps app in
        if s.oldest_delay > threshold then begin
          st.calm <- 0;
          Grant (Int.max 1 s.runq_len)
        end
        else begin
          (* Spare capacity in core-equivalents this interval; keep one
             headroom core so a single arrival does not immediately queue
             past the threshold again. *)
          let busy_cores = utilization_of s *. float_of_int (Int.max 1 s.cores) in
          let spare = float_of_int s.cores -. busy_cores in
          if s.runq_len = 0 && s.cores > 0 && spare > 1.5 then begin
            st.calm <- st.calm + 1;
            if st.calm >= hysteresis then begin
              st.calm <- 0;
              Yield (Int.max 1 (int_of_float (spare -. 1.0)))
            end
            else Hold
          end
          else begin
            st.calm <- 0;
            Hold
          end
        end
end

let delay () =
  pack (module Delay_impl) (Per_app.create (fun () -> { Delay_impl.calm = 0 }))
