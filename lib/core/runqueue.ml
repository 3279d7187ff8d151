(* A ring deque: a power-of-two array of tasks, the head's index and the
   length.  A push is one array store; a pop reads its slot and stores
   [Task.nil] back, so the array never keeps a task that left it alive.
   [Task.queued] enforces one queue per task without a back pointer. *)

type t = { mutable slots : Task.t array; mutable head : int; mutable len : int }

let initial_capacity = 8
let create () = { slots = Array.make initial_capacity Task.nil; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* Slot of the [i]-th task from the head. *)
let[@inline] slot t i = (t.head + i) land (Array.length t.slots - 1)

(* Double the array, unrolling the ring so the head lands at index 0. *)
let grow t =
  let n = Array.length t.slots in
  let slots = Array.make (2 * n) Task.nil in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.(slot t i)
  done;
  t.slots <- slots;
  t.head <- 0

let make_room t = if t.len = Array.length t.slots then grow t

let claim t (task : Task.t) =
  if task.Task.queued then invalid_arg "Runqueue: task already queued";
  task.Task.queued <- true;
  make_room t

let append t task =
  t.slots.(slot t t.len) <- task;
  t.len <- t.len + 1

let push_tail t task =
  claim t task;
  append t task

let push_head t task =
  claim t task;
  t.head <- slot t (-1);
  t.slots.(t.head) <- task;
  t.len <- t.len + 1

(* Take the task out of slot [s]; the caller fixes [head]/[len]. *)
let[@inline] take t s =
  let task = t.slots.(s) in
  t.slots.(s) <- Task.nil;
  task

let pop_head t =
  if t.len = 0 then None
  else begin
    let task = take t t.head in
    t.head <- slot t 1;
    t.len <- t.len - 1;
    task.Task.queued <- false;
    Some task
  end

let pop_tail t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let task = take t (slot t t.len) in
    task.Task.queued <- false;
    Some task
  end

let steal_half ~from ~into =
  (* Under owner-head LIFO the oldest tasks sit at the tail; moving them
     tail-first and appending at [into]'s tail keeps them oldest-first at
     [into]'s head, so the thief's pop_head runs them in arrival order.
     A moved task stays queued. *)
  let want = (from.len + 1) / 2 in
  for _ = 1 to want do
    from.len <- from.len - 1;
    let task = take from (slot from from.len) in
    make_room into;
    append into task
  done;
  want

let peek_head t = if t.len = 0 then None else Some t.slots.(t.head)

(* Position of [task] from the head, or -1. *)
let rec find t task i =
  if i = t.len then -1 else if t.slots.(slot t i) == task then i else find t task (i + 1)

let remove t (task : Task.t) =
  let i = if task.Task.queued then find t task 0 else -1 in
  if i < 0 then false
  else begin
    for j = i to t.len - 2 do
      t.slots.(slot t j) <- t.slots.(slot t (j + 1))
    done;
    t.len <- t.len - 1;
    t.slots.(slot t t.len) <- Task.nil;
    task.Task.queued <- false;
    true
  end

(* [f] may remove the task it is given: its successor then moves into its
   position, which is visited next. *)
let iter f t =
  let i = ref 0 in
  while !i < t.len do
    let task = t.slots.(slot t !i) in
    f task;
    if !i < t.len && t.slots.(slot t !i) == task then incr i
  done

let to_list t = List.init t.len (fun i -> t.slots.(slot t i))
