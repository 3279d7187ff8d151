module Time = Skyloft_sim.Time

type instant_kind =
  | Preempt
  | Wakeup
  | App_switch
  | Timer_tick
  | Fault
  | Core_grant
  | Core_reclaim
  | Inject
  | Watchdog_rescue
  | Failover
  | Deadline_drop
  | Alloc_degrade
  | Alloc_recover
  | Mode_switch
  | Broker_grant
  | Broker_reclaim
  | Broker_yield
  | Tenant_degrade
  | Tenant_recover
  | Quarantine
  | Release
  | Tenant_crash

type event =
  | Span of { core : int; app : int; name : string; start : Time.t; stop : Time.t }
  | Instant of { core : int; at : Time.t; kind : instant_kind; name : string }

(* ---- the flight recorder --------------------------------------------------

   Events are not boxed constructors: each one is a fixed-width 64-byte
   binary record written in place into a preallocated flat ring (the
   Snabb timeline layout — 8 little-endian words per record).  In memory
   the ring is a [Bigarray] of unboxed native ints: every field write is
   a single machine-word store — no per-byte decomposition, no Int64
   boxing, no GC write barrier — which is what makes the push an order
   of magnitude cheaper than allocating a constructor.  Names go through
   a string-interning side table with a two-entry pointer-equality memo,
   so the hot path performs zero allocation per event.  The [event]
   constructors above survive purely as the decode view: [iter]/[fold]
   rebuild them on the fly, so analysis passes are unchanged and unaware
   of the layout.

   Record layout (word index; ×8 bytes in the serialized image):
     w0  tag        0 = span, 1 = instant
     w1  core
     w2  app (span) | instant_kind code (instant)
     w3  interned name id
     w4  start (span) | at (instant)
     w5  stop (span)  | 0
     w6  reserved (0)
     w7  reserved (0)
   Every word — reserved zeros included — is stored on each write, so a
   record never carries stale slot bytes and the binary image is a pure
   function of the events it retains (see [to_binary], which serializes
   each word as 8 LE bytes — the on-disk format is independent of the
   in-memory one). *)

let record_bytes = 64
let record_words = 8

type ring = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  capacity : int;  (* records *)
  buf : ring;  (* capacity * record_words, flat, unboxed *)
  mutable head : int;  (* next record slot *)
  mutable count : int;
  mutable dropped : int;
  (* interning side table: id -> name and name -> id, plus a two-entry
     pointer-equality memo so a pair of alternating hot names (the
     common request/tick interleaving) never touches the hashtable *)
  mutable names : string array;
  mutable n_names : int;
  ids : (string, int) Hashtbl.t;
  mutable last_name : string;
  mutable last_id : int;
  mutable prev_name : string;
  mutable prev_id : int;
}

(* Memo slots start out pointing at a string no caller can hold (freshly
   allocated at module init), so the physical-equality test can never
   false-positive against an empty memo — not even for [""], which the
   runtime may share across compilation units. *)
let memo_empty = String.make 1 '\000'

let create ?(capacity = 100_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  (* No eager fill: a big ring would touch every page up front, and every
     record write covers all 8 words, so untouched slots are never read. *)
  let buf =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (capacity * record_words)
  in
  {
    capacity;
    buf;
    head = 0;
    count = 0;
    dropped = 0;
    names = Array.make 64 "";
    n_names = 0;
    ids = Hashtbl.create 64;
    last_name = memo_empty;
    last_id = -1;
    prev_name = memo_empty;
    prev_id = -1;
  }

(* 63-bit OCaml ints as 8 LE bytes: low 7 bytes carry bits 0..55, the 8th
   carries bits 56..62 (sign bit included), so every int round-trips. *)
let set_word buf off v =
  Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set buf (off + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
  Bytes.unsafe_set buf (off + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
  Bytes.unsafe_set buf (off + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
  Bytes.unsafe_set buf (off + 7) (Char.unsafe_chr ((v asr 56) land 0x7f))

let get_word buf off =
  Char.code (Bytes.unsafe_get buf off)
  lor (Char.code (Bytes.unsafe_get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get buf (off + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get buf (off + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get buf (off + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get buf (off + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get buf (off + 7)) lsl 56)

let kind_code = function
  | Preempt -> 0
  | Wakeup -> 1
  | App_switch -> 2
  | Timer_tick -> 3
  | Fault -> 4
  | Core_grant -> 5
  | Core_reclaim -> 6
  | Inject -> 7
  | Watchdog_rescue -> 8
  | Failover -> 9
  | Deadline_drop -> 10
  | Alloc_degrade -> 11
  | Alloc_recover -> 12
  | Mode_switch -> 13
  | Broker_grant -> 14
  | Broker_reclaim -> 15
  | Broker_yield -> 16
  | Tenant_degrade -> 17
  | Tenant_recover -> 18
  | Quarantine -> 19
  | Release -> 20
  | Tenant_crash -> 21

let kind_of_code = function
  | 0 -> Preempt
  | 1 -> Wakeup
  | 2 -> App_switch
  | 3 -> Timer_tick
  | 4 -> Fault
  | 5 -> Core_grant
  | 6 -> Core_reclaim
  | 7 -> Inject
  | 8 -> Watchdog_rescue
  | 9 -> Failover
  | 10 -> Deadline_drop
  | 11 -> Alloc_degrade
  | 12 -> Alloc_recover
  | 13 -> Mode_switch
  | 14 -> Broker_grant
  | 15 -> Broker_reclaim
  | 16 -> Broker_yield
  | 17 -> Tenant_degrade
  | 18 -> Tenant_recover
  | 19 -> Quarantine
  | 20 -> Release
  | 21 -> Tenant_crash
  | c -> invalid_arg (Printf.sprintf "Trace: unknown instant kind code %d" c)

(* Two-entry memo: the hot pair of names (request spans interleaved with
   tick instants, say) stays resolvable by pointer comparison alone.  A
   hit on the second slot swaps it to the front; only a miss on both
   pays the hashtable probe.  Interning order — and so every assigned
   id — is independent of memo state. *)
let intern t name =
  if name == t.last_name then t.last_id
  else if name == t.prev_name then begin
    let id = t.prev_id in
    t.prev_name <- t.last_name;
    t.prev_id <- t.last_id;
    t.last_name <- name;
    t.last_id <- id;
    id
  end
  else begin
    let id =
      try Hashtbl.find t.ids name
      with Not_found ->
        let id = t.n_names in
        if id = Array.length t.names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit t.names 0 bigger 0 id;
          t.names <- bigger
        end;
        t.names.(id) <- name;
        t.n_names <- id + 1;
        Hashtbl.add t.ids name id;
        id
    in
    t.prev_name <- t.last_name;
    t.prev_id <- t.last_id;
    t.last_name <- name;
    t.last_id <- id;
    id
  end

(* Claim the next slot, returning its word offset; advancing over a full
   ring overwrites the oldest record and counts it as dropped. *)
let slot t =
  let off = t.head * record_words in
  if t.count = t.capacity then t.dropped <- t.dropped + 1
  else t.count <- t.count + 1;
  t.head <- t.head + 1;
  if t.head = t.capacity then t.head <- 0;
  off

(* Eight single-word stores per record — all words written every time
   (including the reserved zeros), so the ring never needs pre-zeroing
   and a reused slot carries no stale bytes. *)
let span t ~core ~app ~name ~start ~stop =
  if stop < start then invalid_arg "Trace.span: stop before start";
  let id = intern t name in
  let off = slot t in
  let buf = t.buf in
  Bigarray.Array1.unsafe_set buf off 0;
  Bigarray.Array1.unsafe_set buf (off + 1) core;
  Bigarray.Array1.unsafe_set buf (off + 2) app;
  Bigarray.Array1.unsafe_set buf (off + 3) id;
  Bigarray.Array1.unsafe_set buf (off + 4) start;
  Bigarray.Array1.unsafe_set buf (off + 5) stop;
  Bigarray.Array1.unsafe_set buf (off + 6) 0;
  Bigarray.Array1.unsafe_set buf (off + 7) 0

let instant t ~core ~at kind ~name =
  let id = intern t name in
  let off = slot t in
  let buf = t.buf in
  Bigarray.Array1.unsafe_set buf off 1;
  Bigarray.Array1.unsafe_set buf (off + 1) core;
  Bigarray.Array1.unsafe_set buf (off + 2) (kind_code kind);
  Bigarray.Array1.unsafe_set buf (off + 3) id;
  Bigarray.Array1.unsafe_set buf (off + 4) at;
  Bigarray.Array1.unsafe_set buf (off + 5) 0;
  Bigarray.Array1.unsafe_set buf (off + 6) 0;
  Bigarray.Array1.unsafe_set buf (off + 7) 0

let events t = t.count
let dropped t = t.dropped
let interned t = t.n_names

(* ---- decode view ---------------------------------------------------------- *)

let decode t off =
  let buf = t.buf in
  let word i = Bigarray.Array1.unsafe_get buf (off + i) in
  let core = word 1 in
  let name = t.names.(word 3) in
  match word 0 with
  | 0 -> Span { core; app = word 2; name; start = word 4; stop = word 5 }
  | 1 -> Instant { core; at = word 4; kind = kind_of_code (word 2); name }
  | tag -> invalid_arg (Printf.sprintf "Trace: unknown record tag %d" tag)

(* Oldest-first iteration over the ring. *)
let iter t f =
  let start = if t.count = t.capacity then t.head else 0 in
  for i = 0 to t.count - 1 do
    let idx = start + i in
    let idx = if idx >= t.capacity then idx - t.capacity else idx in
    f (decode t (idx * record_words))
  done

let fold t f init =
  let acc = ref init in
  iter t (fun ev -> acc := f !acc ev);
  !acc

(* ---- rendering ------------------------------------------------------------ *)

let kind_name = function
  | Preempt -> "preempt"
  | Wakeup -> "wakeup"
  | App_switch -> "app-switch"
  | Timer_tick -> "tick"
  | Fault -> "fault"
  | Core_grant -> "core-grant"
  | Core_reclaim -> "core-reclaim"
  | Inject -> "inject"
  | Watchdog_rescue -> "watchdog-rescue"
  | Failover -> "failover"
  | Deadline_drop -> "deadline-drop"
  | Alloc_degrade -> "alloc-degrade"
  | Alloc_recover -> "alloc-recover"
  | Mode_switch -> "mode-switch"
  | Broker_grant -> "broker-grant"
  | Broker_reclaim -> "broker-reclaim"
  | Broker_yield -> "broker-yield"
  | Tenant_degrade -> "tenant-degrade"
  | Tenant_recover -> "tenant-recover"
  | Quarantine -> "quarantine"
  | Release -> "release"
  | Tenant_crash -> "tenant-crash"

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us t = float_of_int t /. 1_000.0

let event_json ev =
  match ev with
  | Span { core; app; name; start; stop } ->
      Printf.sprintf
        {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}|}
        (escape name) (us start)
        (us (stop - start))
        app core
  | Instant { core; at; kind; name } ->
      Printf.sprintf
        {|{"name":"%s:%s","ph":"i","ts":%.3f,"pid":0,"tid":%d,"s":"t"}|}
        (kind_name kind) (escape name) (us at) core

let event_to_string ev =
  match ev with
  | Span { core; app; name; start; stop } ->
      Printf.sprintf "%12d ns  span     core=%-3d app=%-3d %8d ns  %s" start
        core app (stop - start) name
  | Instant { core; at; kind; name } ->
      Printf.sprintf "%12d ns  instant  core=%-3d %-15s %s" at core
        (kind_name kind) name

(* Trailing metadata event: a truncated trace says so instead of looking
   complete.  Consumers ignore "M" events; analysis passes read [dropped]. *)
let dropped_json t =
  Printf.sprintf
    {|{"name":"skyloft_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":%d,"retained":%d}}|}
    t.dropped t.count

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  iter t (fun ev ->
      Buffer.add_string buf (event_json ev);
      Buffer.add_string buf ",\n");
  Buffer.add_string buf (dropped_json t);
  Buffer.add_string buf "]";
  Buffer.contents buf

let write_chrome_json t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json t))

(* ---- binary image --------------------------------------------------------

   A self-describing flat file (the decoder CLI's interchange format):

     64-byte header: magic "SKYLFTTR", version, record_bytes, capacity,
                     count, dropped, interned-name count, reserved;
     name table:     per name, one length word + the raw bytes;
     records:        count x record_bytes, oldest first.

   Writing normalizes the ring (records come out oldest-first from slot
   0), so the image is a pure function of the retained events, the drop
   counter and the interning history — same events, same bytes. *)

let magic = "SKYLFTTR"
let binary_version = 1

let to_binary t =
  let buf = Buffer.create ((t.count * record_bytes) + 1024) in
  let word v =
    let w = Bytes.create 8 in
    set_word w 0 v;
    Buffer.add_bytes buf w
  in
  Buffer.add_string buf magic;
  word binary_version;
  word record_bytes;
  word t.capacity;
  word t.count;
  word t.dropped;
  word t.n_names;
  word 0;
  for i = 0 to t.n_names - 1 do
    word (String.length t.names.(i));
    Buffer.add_string buf t.names.(i)
  done;
  let start = if t.count = t.capacity then t.head else 0 in
  for i = 0 to t.count - 1 do
    let idx = start + i in
    let idx = if idx >= t.capacity then idx - t.capacity else idx in
    let off = idx * record_words in
    for w = 0 to record_words - 1 do
      word (Bigarray.Array1.unsafe_get t.buf (off + w))
    done
  done;
  Buffer.contents buf

let of_binary s =
  let fail fmt = Printf.ksprintf invalid_arg ("Trace.of_binary: " ^^ fmt) in
  let len = String.length s in
  if len < 64 then fail "truncated header (%d bytes)" len;
  if String.sub s 0 8 <> magic then fail "bad magic";
  let b = Bytes.unsafe_of_string s in
  let word i = get_word b (8 + (8 * i)) in
  if word 0 <> binary_version then fail "unsupported version %d" (word 0);
  if word 1 <> record_bytes then fail "unsupported record size %d" (word 1);
  let capacity = word 2 and count = word 3 and dropped = word 4 in
  let n_names = word 5 in
  if capacity <= 0 then fail "non-positive capacity";
  if count < 0 || count > capacity then fail "count out of range";
  if dropped < 0 then fail "negative drop count";
  let t = create ~capacity () in
  let pos = ref 64 in
  let take n what =
    if !pos + n > len then fail "truncated %s" what;
    let p = !pos in
    pos := !pos + n;
    p
  in
  for _ = 1 to n_names do
    let nlen = get_word b (take 8 "name length") in
    if nlen < 0 then fail "negative name length";
    let name = String.sub s (take nlen "name bytes") nlen in
    if Hashtbl.mem t.ids name then fail "duplicate interned name %S" name;
    ignore (intern t name)
  done;
  let records = take (count * record_bytes) "records" in
  for r = 0 to count - 1 do
    let src = records + (r * record_bytes) in
    let dst = r * record_words in
    for w = 0 to record_words - 1 do
      Bigarray.Array1.unsafe_set t.buf (dst + w) (get_word b (src + (8 * w)))
    done
  done;
  t.count <- count;
  t.head <- (if count = capacity then 0 else count);
  t.dropped <- dropped;
  (* validate every record decodes (tags, kind codes, name ids in range) *)
  (try
     for r = 0 to count - 1 do
       let off = r * record_words in
       let id = Bigarray.Array1.unsafe_get t.buf (off + 3) in
       if id < 0 || id >= t.n_names then fail "name id %d out of range" id;
       ignore (decode t off)
     done
   with Invalid_argument m -> fail "%s" m);
  t

let read_binary ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_binary (really_input_string ic (in_channel_length ic)))
