module Summary = Skyloft_stats.Summary
module Attribution = Skyloft_obs.Attribution

type t = {
  id : int;
  name : string;
  mutable busy_ns : int;
  mutable spawned : int;
  mutable completed : int;
  mutable tasks_alive : int;
  summary : Summary.t;
  attribution : Attribution.t;
}

let make id name =
  {
    id;
    name;
    busy_ns = 0;
    spawned = 0;
    completed = 0;
    tasks_alive = 0;
    summary = Summary.create ();
    attribution = Attribution.create ();
  }

let create ~id ~name =
  if id <= 0 then invalid_arg "App.create: id must be positive (0 is the daemon)";
  make id name

let daemon () = make 0 "daemon"

(* -1 marks "no app" in assignment slots, so the sentinel must not use it. *)
let none = make (-2) "none"

let cpu_share t ~total_ns =
  if total_ns <= 0 then 0.0 else float_of_int t.busy_ns /. float_of_int total_ns
