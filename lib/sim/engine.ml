type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Eventq.t;
  root_rng : Rng.t;
  mutable fired : int;
}

let create ?(seed = 42) () =
  { clock = Time.zero; queue = Eventq.create (); root_rng = Rng.create ~seed; fired = 0 }

let now t = t.clock
let split_rng t = Rng.split t.root_rng

let at t time f =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Engine.at: time %a is before now %a" Time.pp time Time.pp t.clock);
  Eventq.schedule t.queue ~at:time f

let after t delay f =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  at t (t.clock + delay) f

let cancel t h = Eventq.cancel t.queue h

(* A reusable timer event: one stable [fire] closure for the timer's whole
   lifetime, re-armed in place, instead of a fresh closure per tick.  The
   handle field is cleared before the callback runs so the callback can
   re-arm immediately. *)
type timer = {
  te : t;
  mutable th : Eventq.handle;
  mutable cb : unit -> unit;
  fire : unit -> unit;
}

let timer t cb =
  let rec tm =
    { te = t; th = Eventq.null; cb; fire = (fun () -> tm.th <- Eventq.null; tm.cb ()) }
  in
  tm

let set_callback tm cb = tm.cb <- cb
let armed tm = not (Eventq.is_null tm.th)

let disarm tm =
  Eventq.cancel tm.te.queue tm.th;
  tm.th <- Eventq.null

let arm tm ~at:time =
  if armed tm then disarm tm;
  tm.th <- at tm.te time tm.fire

let arm_after tm delay =
  if delay < 0 then invalid_arg "Engine.arm_after: negative delay";
  arm tm ~at:(tm.te.clock + delay)

let recurring t ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock + period in
  let tm = timer t ignore in
  set_callback tm (fun () -> if f () then arm_after tm period);
  arm tm ~at:first;
  tm

let every t ~period ?start f = ignore (recurring t ~period ?start f)

let step t =
  let next = Eventq.next_time t.queue in
  if next < 0 then false
  else begin
    let f = Eventq.pop_exn t.queue in
    t.clock <- next;
    t.fired <- t.fired + 1;
    f ();
    true
  end

let run ?until ?max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    let next = Eventq.next_time t.queue in
    if next < 0 then continue := false
    else if next > limit then begin
      t.clock <- max t.clock limit;
      continue := false
    end
    else begin
      let f = Eventq.pop_exn t.queue in
      t.clock <- next;
      t.fired <- t.fired + 1;
      f ();
      decr budget
    end
  done;
  match until with
  | Some limit when t.clock < limit && Eventq.is_empty t.queue -> t.clock <- limit
  | _ -> ()

let pending t = Eventq.size t.queue
let events_fired t = t.fired
