module Histogram = Skyloft_stats.Histogram

type t = {
  queueing : Histogram.t;
  service : Histogram.t;
  overhead : Histogram.t;
  stall : Histogram.t;
  response : Histogram.t;
  mutable mismatches : int;
}

let create () =
  {
    queueing = Histogram.create ();
    service = Histogram.create ();
    overhead = Histogram.create ();
    stall = Histogram.create ();
    response = Histogram.create ();
    mismatches = 0;
  }

let record t ~queueing ~overhead ~stall ~response ~declared =
  let residue = response - queueing - overhead - stall in
  if residue < 0 || (declared > 0 && residue <> declared) then
    t.mismatches <- t.mismatches + 1;
  Histogram.record t.queueing (Int.max 0 queueing);
  Histogram.record t.overhead (Int.max 0 overhead);
  Histogram.record t.stall (Int.max 0 stall);
  Histogram.record t.service (Int.max 0 residue);
  Histogram.record t.response (Int.max 0 response)

let requests t = Histogram.count t.response
let mismatches t = t.mismatches
let queueing t = t.queueing
let service t = t.service
let overhead t = t.overhead
let stall t = t.stall
let response t = t.response

let register reg ?(labels = []) t =
  Registry.counter reg ~labels "skyloft_latency_requests_total"
    ~help:"Requests with full latency attribution" (fun () -> requests t);
  Registry.counter reg ~labels "skyloft_latency_mismatches_total"
    ~help:"Requests whose segments did not sum to the response time" (fun () ->
      t.mismatches);
  Registry.histogram reg ~labels "skyloft_latency_queueing_ns"
    ~help:"Time runnable but not running" t.queueing;
  Registry.histogram reg ~labels "skyloft_latency_service_ns"
    ~help:"Time doing the request's own work" t.service;
  Registry.histogram reg ~labels "skyloft_latency_overhead_ns"
    ~help:"Scheduling mechanism cost charged to the request" t.overhead;
  Registry.histogram reg ~labels "skyloft_latency_stall_ns"
    ~help:"Time blocked on faults or host core steals" t.stall;
  Registry.histogram reg ~labels "skyloft_latency_response_ns"
    ~help:"End-to-end response time" t.response

let pp_row ppf (label, t) =
  Format.fprintf ppf "%-12s %8d %12.0f %12.0f %12.0f %12.0f %12.0f" label
    (requests t) (Histogram.mean t.queueing) (Histogram.mean t.service)
    (Histogram.mean t.overhead) (Histogram.mean t.stall)
    (Histogram.mean t.response)
