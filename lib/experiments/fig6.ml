module Time = Skyloft_sim.Time

(** Figure 6: schbench wakeup latency under Skyloft RR as a function of the
    time slice.  The paper's observation: wakeup latency is roughly
    proportional to the slice; Skyloft-FIFO (infinite slice, no
    preemption) is the worst case. *)

let slices = [ Some (Time.us 10); Some (Time.us 50); Some (Time.us 200); Some (Time.ms 1); None ]
let worker_counts = [ 32; 48; 64 ]

let slice_name = function
  | Some s -> Printf.sprintf "RR-%s" (Format.asprintf "%a" Time.pp s)
  | None -> "FIFO (no preemption)"

(* Figure 5's Skyloft cell with RR at [slice] ([None]: no preemption). *)
let system slice =
  Fig5.Skyloft_sys ((fun () -> Skyloft_policies.Rr.create ?slice ()), slice_name slice)

let print (config : Config.t) =
  Report.section "Figure 6: schbench p99 wakeup latency (us) vs RR time slice, 24 cores";
  Report.series "slice"
    (List.map (fun w -> Printf.sprintf "%dw" w) worker_counts)
    (Fig5.latency 99.0)
    (Fig5.sweep config (List.map system slices) worker_counts);
  Report.note "paper: wakeup latency is roughly proportional to the time slice"
