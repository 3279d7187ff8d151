type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Eventq.t;
  root_rng : Rng.t;
  mutable fired : int;  (* callbacks run, cohort members counted one each *)
  mutable fire_limit : int;  (* set by [run]/[step]: stop at this [fired] *)
  mutable cohorts : cohort list;  (* live [every] cohorts, pruned on [every] *)
}

(* The [every]s that share a period and a next instant [due], held as one
   pinned queue slot keyed (due, seq of the first member still to run).  Members
   are kept in seq order: a member takes its next-round seq right after
   its callback returns [true] — the moment its own timer would re-arm —
   and a newcomer takes the largest seq yet and appends.  Members
   [0, wr) have run this round (compacted, next-round seqs), [rd, n) have
   not; [rd = 0] between rounds, the only time a newcomer may join. *)
and cohort = {
  eng : t;
  period : Time.t;
  mutable due : Time.t;
  mutable cbs : (unit -> bool) array;
  mutable seqs : int array;
  mutable n : int;
  mutable rd : int;
  mutable wr : int;
  mutable slot : int;  (* its pinned slot, given back when no member is left *)
}

let create ?(seed = 42) () =
  {
    clock = Time.zero;
    queue = Eventq.create ();
    root_rng = Rng.create ~seed;
    fired = 0;
    fire_limit = max_int;
    cohorts = [];
  }

let now t = t.clock
let split_rng t = Rng.split t.root_rng

let check_not_past t time =
  if time < t.clock then
    invalid_arg
      (Format.asprintf "Engine.at: time %a is before now %a" Time.pp time Time.pp t.clock)

let at t time f =
  check_not_past t time;
  Eventq.schedule t.queue ~at:time f

let after t delay f =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  at t (t.clock + delay) f

(* A reusable timer event: its callback is the payload of one pinned queue
   slot, taken at the first [arm] and held for the timer's life, so a
   re-arm moves ints and stores no pointer.  Creating a timer touches no
   queue.  A pop leaves the slot unqueued before the callback runs, so the
   callback can re-arm immediately. *)
type timer = {
  te : t;
  mutable slot : int;  (* its pinned slot; -1 before the first arm *)
  mutable cb : unit -> unit;
}

let timer t cb = { te = t; slot = -1; cb }

let set_callback tm cb =
  tm.cb <- cb;
  if tm.slot >= 0 then Eventq.set_payload tm.te.queue tm.slot cb

let armed tm = tm.slot >= 0 && Eventq.queued tm.te.queue tm.slot
let disarm tm = if tm.slot >= 0 then Eventq.unqueue tm.te.queue tm.slot

let arm tm ~at:time =
  let t = tm.te in
  check_not_past t time;
  if tm.slot < 0 then tm.slot <- Eventq.pin t.queue tm.cb;
  Eventq.move t.queue tm.slot ~at:time ~seq:(Eventq.reserve_seq t.queue)

let stopped () = false

(* Put the cohort back in the queue at the key of member [rd], the next to
   run. *)
let requeue c = Eventq.move c.eng.queue c.slot ~at:c.due ~seq:(Array.unsafe_get c.seqs c.rd)

(* One round of a cohort, from member [rd] on; the engine already counted
   the member its pop runs ([~first]).  Before each later member the
   cohort yields — re-inserts itself at that member's key and returns —
   when an event sorts before it or the [run]/[step] budget is spent, so
   callbacks and other events interleave exactly as separate timers
   would. *)
let rec run_round c ~first =
  let i = c.rd in
  if i = c.n then end_round c
  else begin
    let e = c.eng in
    if
      (not first)
      && (e.fired >= e.fire_limit
         || Eventq.precedes e.queue ~at:c.due ~seq:(Array.unsafe_get c.seqs i))
    then requeue c
    else begin
      if not first then e.fired <- e.fired + 1;
      let cb = Array.unsafe_get c.cbs i in
      c.rd <- i + 1;
      let keep =
        try cb ()
        with exn ->
          (* as a separate timer would: the raiser is not re-armed, the
             other members stay scheduled *)
          let bt = Printexc.get_raw_backtrace () in
          if c.rd < c.n then requeue c else end_round c;
          Printexc.raise_with_backtrace exn bt
      in
      if keep then begin
        let w = c.wr in
        (* a survivor moves down only past a member that stopped *)
        if w <> i then Array.unsafe_set c.cbs w cb;
        Array.unsafe_set c.seqs w (Eventq.reserve_seq e.queue);
        c.wr <- w + 1
      end;
      run_round c ~first:false
    end
  end

(* Members that returned [false] are gone; the survivors' first seq keys
   the next round.  A cohort with none left gives its slot back: a
   watchdog rescue's [Kmod.timer_set_hz] starts a new [every] each time. *)
and end_round c =
  let w = c.wr in
  Array.fill c.cbs w (c.n - w) stopped;
  c.n <- w;
  c.rd <- 0;
  c.wr <- 0;
  c.due <- c.due + c.period;
  if w > 0 then requeue c else Eventq.unpin c.eng.queue c.slot

let join c f seq =
  let n = c.n in
  if n = Array.length c.cbs then begin
    (* double; the copied tail is overwritten before it is read *)
    c.cbs <- Array.append c.cbs c.cbs;
    c.seqs <- Array.append c.seqs c.seqs
  end;
  c.cbs.(n) <- f;
  c.seqs.(n) <- seq;
  c.n <- n + 1

let every t ~period f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = t.clock + period in
  let seq = Eventq.reserve_seq t.queue in
  t.cohorts <- List.filter (fun c -> c.n > 0) t.cohorts;
  match List.find_opt (fun c -> c.rd = 0 && c.period = period && c.due = first) t.cohorts with
  | Some c -> join c f seq
  | None ->
      let c =
        {
          eng = t;
          period;
          due = first;
          cbs = [| f |];
          seqs = [| seq |];
          n = 1;
          rd = 0;
          wr = 0;
          slot = -1;
        }
      in
      c.slot <- Eventq.pin t.queue (fun () -> run_round c ~first:true);
      t.cohorts <- c :: t.cohorts;
      requeue c

(* The sentinel [Eventq.pop_until] returns when no event is due; no
   event ever carries it. *)
let nothing () = ()

let step t =
  let f = Eventq.pop_until t.queue ~limit:max_int ~none:nothing in
  if f == nothing then false
  else begin
    t.clock <- Eventq.last_time t.queue;
    t.fired <- t.fired + 1;
    t.fire_limit <- t.fired;
    f ();
    true
  end

let run ?until ?max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  t.fire_limit <-
    (match max_events with
    | Some n when n < max_int - t.fired -> t.fired + n
    | Some _ | None -> max_int);
  let continue = ref true in
  while !continue && t.fired < t.fire_limit do
    let f = Eventq.pop_until t.queue ~limit ~none:nothing in
    if f == nothing then begin
      (* an event lies past [limit] (an empty queue is settled below) *)
      if not (Eventq.is_empty t.queue) then t.clock <- Int.max t.clock limit;
      continue := false
    end
    else begin
      t.clock <- Eventq.last_time t.queue;
      t.fired <- t.fired + 1;
      f ()
    end
  done;
  match until with
  | Some limit when t.clock < limit && Eventq.is_empty t.queue -> t.clock <- limit
  | _ -> ()

let pending t = Eventq.size t.queue
let events_fired t = t.fired
