module Time = Skyloft_sim.Time

(** Scheduling flight recorder: a bounded ring of fixed-width 64-byte
    binary records in one preallocated flat buffer (a [Bigarray] of
    unboxed native ints), exportable as Chrome trace-event JSON (load in
    [chrome://tracing] or Perfetto) or as a self-describing binary
    image.

    The runtimes emit a {e span} for every interval a task spends on a
    core and {e instants} for scheduling events (preemptions, wakeups,
    application switches); the machine-level core broker emits instants
    for its arbitration and tenant-health edges.  Recording performs
    {e zero allocation} per event: payloads are int-packed into the ring
    in place (Snabb timeline idiom) and names go through a
    string-interning side table, so tracing is cheap enough to leave on
    everywhere — in tests, in the benches, and across million-request
    runs. *)

type t

(** A retained event in the {e decode view}: either a run interval of one
    task on one core, or a point-in-time scheduling event.  The binary
    ring is the storage; analysis passes (utilization, invariant
    checking — see [lib/obs]) fold over these decoded values without
    knowing the layout. *)
type instant_kind =
  | Preempt  (** the running task was preempted *)
  | Wakeup  (** a blocked task was made runnable *)
  | App_switch  (** cross-application kthread switch *)
  | Timer_tick  (** user timer interrupt handled *)
  | Fault  (** blocking event (page fault) *)
  | Core_grant  (** the core allocator granted a core to an application *)
  | Core_reclaim  (** the core allocator reclaimed a core *)
  | Inject  (** a fault-injection plan fired (lib/fault) *)
  | Watchdog_rescue  (** the per-core watchdog forced a scheduling point *)
  | Failover  (** a stalled dispatcher was replaced by a promoted worker *)
  | Deadline_drop  (** a task was killed at its deadline *)
  | Alloc_degrade  (** the allocator fell back to its static policy *)
  | Alloc_recover  (** the allocator left degraded mode *)
  | Mode_switch  (** a hybrid runtime changed dispatch mode *)
  | Broker_grant  (** the machine broker granted cores to a tenant *)
  | Broker_reclaim  (** the machine broker reclaimed cores from a tenant *)
  | Broker_yield  (** a tenant voluntarily yielded cores to the broker *)
  | Tenant_degrade  (** a tenant's congestion signal went stale *)
  | Tenant_recover  (** a stale tenant's signal moved again *)
  | Quarantine  (** a hoarding tenant was clamped to its floor *)
  | Release  (** a quarantined tenant served out its sentence *)
  | Tenant_crash  (** a tenant crashed; everything reclaimed *)

type event =
  | Span of { core : int; app : int; name : string; start : Time.t; stop : Time.t }
  | Instant of { core : int; at : Time.t; kind : instant_kind; name : string }

val create : ?capacity:int -> unit -> t
(** Keep at most [capacity] (default 100,000) most recent events.  The
    ring of 64-byte records (8 little-endian 8-byte words) is allocated
    once, up front; recording never allocates again. *)

val span : t -> core:int -> app:int -> name:string -> start:Time.t -> stop:Time.t -> unit
(** A task ran on [core] from [start] to [stop]. *)

val instant : t -> core:int -> at:Time.t -> instant_kind -> name:string -> unit

val events : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events discarded because the ring was full. *)

val interned : t -> int
(** Distinct names in the interning side table. *)

val iter : t -> (event -> unit) -> unit
(** Oldest-first iteration, decoding each record into the {!event} view. *)

val fold : t -> ('a -> event -> 'a) -> 'a -> 'a

val kind_name : instant_kind -> string
(** Stable lowercase name used in exports (e.g. ["preempt"]). *)

val escape : string -> string
(** JSON string-body escaping used by the exports (shared with the
    counter-track export in [lib/obs]). *)

val event_to_string : event -> string
(** One fixed-width human-readable line per event (the [trace-dump]
    rendering): timestamp, record class, core, payload, name. *)

val to_chrome_json : t -> string
(** The retained events in Chrome trace-event array format: spans as
    ["X"] complete events (ts/dur in µs), instants as ["i"]; [pid] is the
    application id and [tid] the core.  The array ends with one ["M"]
    (metadata) event, [skyloft_dropped], whose [args] carry the
    {!dropped} and retained counts — a truncated trace is self-describing
    instead of silently incomplete. *)

val write_chrome_json : t -> path:string -> unit

(** {1 Binary image}

    The flat interchange format the [skyloft_run trace-dump] decoder
    reads: a 64-byte header (magic ["SKYLFTTR"], version, record width,
    ring geometry, drop count), the interning table, then the retained
    records oldest-first.  Writing normalizes the ring, so the image is a
    pure function of the retained events, the drop counter and the
    interning history — same events, same bytes. *)

val to_binary : t -> string

val of_binary : string -> t
(** Rebuild a trace from {!to_binary} output.  The result decodes,
    renders and re-serializes identically to the original.  Raises
    [Invalid_argument] on a corrupt image (bad magic/version, truncation,
    out-of-range name ids or kind codes). *)

val read_binary : path:string -> t
