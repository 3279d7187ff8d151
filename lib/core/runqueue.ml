(* An intrusive doubly linked list: each task carries its own links
   ([Task.rq_prev]/[rq_next], [Task.nil] at the ends) and the queue it is
   in ([Task.rq_in]), so pushes, pops and removals touch no node record
   and no index, and allocate nothing. *)

type t = Task.queue

let nil = Task.nil
let create () = { Task.head = nil; tail = nil; len = 0 }
let length (t : t) = t.len
let is_empty (t : t) = t.len = 0

let claim (t : t) (task : Task.t) =
  if task.Task.rq_in != Task.no_queue then invalid_arg "Runqueue: task already queued";
  task.Task.rq_in <- t;
  t.len <- t.len + 1

let push_tail (t : t) (task : Task.t) =
  claim t task;
  task.Task.rq_prev <- t.tail;
  if t.tail == nil then t.head <- task else t.tail.Task.rq_next <- task;
  t.tail <- task

let push_head (t : t) (task : Task.t) =
  claim t task;
  task.Task.rq_next <- t.head;
  if t.head == nil then t.tail <- task else t.head.Task.rq_prev <- task;
  t.head <- task

let unlink (t : t) (task : Task.t) =
  let prev = task.Task.rq_prev and next = task.Task.rq_next in
  if prev == nil then t.head <- next else prev.Task.rq_next <- next;
  if next == nil then t.tail <- prev else next.Task.rq_prev <- prev;
  task.Task.rq_prev <- nil;
  task.Task.rq_next <- nil;
  task.Task.rq_in <- Task.no_queue;
  t.len <- t.len - 1

let pop_head (t : t) =
  let task = t.head in
  if task == nil then None
  else begin
    unlink t task;
    Some task
  end

let pop_tail (t : t) =
  let task = t.tail in
  if task == nil then None
  else begin
    unlink t task;
    Some task
  end

let steal_half ~(from : t) ~(into : t) =
  (* Under owner-head LIFO the oldest tasks sit at the tail; moving them
     tail-first and appending at [into]'s tail keeps them oldest-first at
     [into]'s head, so the thief's pop_head runs them in arrival order. *)
  let want = (from.len + 1) / 2 in
  for _ = 1 to want do
    let task = from.tail in
    unlink from task;
    push_tail into task
  done;
  want

let peek_head (t : t) = if t.head == nil then None else Some t.head

let remove (t : t) (task : Task.t) =
  if task.Task.rq_in == t then begin
    unlink t task;
    true
  end
  else false

(* [f] may remove the task it is given: the next link is read first. *)
let iter f (t : t) =
  let cur = ref t.head in
  while !cur != nil do
    let task = !cur in
    cur := task.Task.rq_next;
    f task
  done

let to_list t =
  let acc = ref [] in
  iter (fun task -> acc := task :: !acc) t;
  List.rev !acc
