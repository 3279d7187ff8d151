module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Histogram = Skyloft_stats.Histogram

(** schbench v1.0 model (§5.1).

    M message threads continuously wake T worker threads; each woken worker
    performs a fixed chunk of work (matrix multiplication in the original,
    ~2,300 µs per request with default parameters) and goes back to sleep
    until the next wake.  The figure of merit is the p99 {e wakeup
    latency}: time from the wake to the worker's first instruction —
    queueing plus scheduling delay, the quantity Figure 5 plots against the
    worker count. *)

val run : Runner.t -> Engine.t -> workers:int -> duration:Time.t -> Histogram.t
(** Start the benchmark now with [workers] worker threads, one message
    thread, 2,300 µs requests and 1 µs of message work per wake; simulate
    for [duration], and return the wakeup latency histogram
    (message-thread wakeups excluded).
    @raise Invalid_argument if [workers <= 0]. *)
