module Dist = Skyloft_sim.Dist

type t =
  | Single of Dist.t
  | Chain of Dist.t list
  | Fanout of { width : int; stage : Dist.t }
  | Mix of (float * t) list

let rec validate = function
  | Single _ -> ()
  | Chain [] -> invalid_arg "Shape: Chain needs at least one stage"
  | Chain _ -> ()
  | Fanout { width; _ } ->
      if width < 1 then invalid_arg "Shape: Fanout width must be >= 1"
  | Mix [] -> invalid_arg "Shape: Mix needs at least one branch"
  | Mix branches ->
      List.iter
        (fun (w, shape) ->
          if w <= 0.0 then invalid_arg "Shape: Mix weights must be positive";
          validate shape)
        branches

let rec mean_service = function
  | Single d -> Dist.mean d
  | Chain ds -> List.fold_left (fun acc d -> acc +. Dist.mean d) 0.0 ds
  | Fanout { width; stage } -> float_of_int width *. Dist.mean stage
  | Mix branches ->
      let weighted, total =
        List.fold_left
          (fun (acc, tw) (w, shape) -> (acc +. (w *. mean_service shape), tw +. w))
          (0.0, 0.0) branches
      in
      weighted /. total

(* One uniform draw over the summed weights; the last branch absorbs any
   rounding at the top of the range.  Both walks keep their float sums in
   local refs, which the compiler holds unboxed, and the uniform draw is
   built from [Rng.bits53] in place, so a pick allocates nothing. *)
let pick rng branches =
  let total = ref 0.0 in
  let rest = ref branches in
  while
    match !rest with
    | [] -> false
    | (w, _) :: tl ->
        total := !total +. w;
        rest := tl;
        true
  do
    ()
  done;
  let u = float_of_int (Skyloft_sim.Rng.bits53 rng) *. 0x1p-53 *. !total in
  (* stop with the picked branch at the head of [rest] *)
  let acc = ref 0.0 and rest = ref branches in
  while
    match !rest with
    | [] -> invalid_arg "Shape.pick: empty mix"
    | [ _ ] -> false
    | (w, _) :: tl ->
        if u < !acc +. w then false
        else begin
          acc := !acc +. w;
          rest := tl;
          true
        end
  do
    ()
  done;
  snd (List.hd !rest)

(* The draw order (see the .mli) is part of the seed contract. *)
let rec exec shape rng ~spawn k =
  match shape with
  | Single d | Chain [ d ] -> spawn (Dist.sample d rng) k
  | Chain [] -> invalid_arg "Shape.exec: empty chain"
  | Chain (d :: rest) ->
      spawn (Dist.sample d rng) (fun () -> exec (Chain rest) rng ~spawn k)
  | Fanout { width; stage } ->
      let remaining = ref width in
      let join () = decr remaining; if !remaining = 0 then k () in
      for _ = 1 to width do
        spawn (Dist.sample stage rng) join
      done
  | Mix branches -> exec (pick rng branches) rng ~spawn k

(* ---- stage programs ------------------------------------------------------- *)

(* A chain (one stage: a single-stage request) or a fan-out of at least
   two stages joined at the end. *)
type leaf = Stages of Dist.t array | Join of { width : int; stage : Dist.t }

(* A mix keeps its branch list, so [pick] walks it exactly as [exec]
   does, over leaf ids. *)
type node = Leaf of int | Pick of (float * node) list
type program = { root : node; leaves : leaf array }

let compile shape =
  let leaves = ref [] and n = ref 0 in
  let leaf l =
    leaves := l :: !leaves;
    incr n;
    Leaf (!n - 1)
  in
  let rec go = function
    | Single d | Fanout { width = 1; stage = d } -> leaf (Stages [| d |])
    | Chain ds -> leaf (Stages (Array.of_list ds))
    | Fanout { width; stage } -> leaf (Join { width; stage })
    | Mix branches -> Pick (List.map (fun (w, s) -> (w, go s)) branches)
  in
  let root = go shape in
  { root; leaves = Array.of_list (List.rev !leaves) }

(* The requests in flight with more than one stage, one row of ints per
   slot: its leaf, and the index of its next chain stage or the count of
   its join's stages still out.  Free slots form a stack linked through
   [step]; the arrays grow by doubling from empty. *)
type table = {
  mutable leaf : int array;
  mutable step : int array;
  mutable made : int;  (* slots ever handed out *)
  mutable free : int;  (* the free stack's top slot, -1 when empty *)
}

let table () = { leaf = [||]; step = [||]; made = 0; free = -1 }

let grow a n = Array.append a (Array.make (Int.max 8 n) 0)

let alloc tb leaf step =
  let s =
    if tb.free >= 0 then begin
      let s = tb.free in
      tb.free <- tb.step.(s);
      s
    end
    else begin
      let s = tb.made in
      if s = Array.length tb.leaf then begin
        tb.leaf <- grow tb.leaf s;
        tb.step <- grow tb.step s
      end;
      tb.made <- s + 1;
      s
    end
  in
  tb.leaf.(s) <- leaf;
  tb.step.(s) <- step;
  s

let release tb s =
  tb.step.(s) <- tb.free;
  tb.free <- s

let in_flight tb =
  let seen = Array.make tb.made false and on_stack = ref 0 in
  let s = ref tb.free in
  while !s >= 0 do
    if !s >= tb.made || seen.(!s) then failwith "Shape.in_flight: free stack corrupt";
    seen.(!s) <- true;
    incr on_stack;
    s := tb.step.(!s)
  done;
  tb.made - !on_stack

(* The draws of [exec], in its order: the mix picks down to a leaf, then
   the first stage of a chain or every stage of a fan-out. *)
let rec resolve rng = function Leaf i -> i | Pick bs -> resolve rng (pick rng bs)

let start p tb rng ~submit at =
  let id = resolve rng p.root in
  match p.leaves.(id) with
  | Stages [| d |] -> submit ~arrival:at ~service:(Dist.sample d rng) (-1)
  | Stages ds ->
      let s = alloc tb id 1 in
      submit ~arrival:at ~service:(Dist.sample ds.(0) rng) s
  | Join { width; stage } ->
      let s = alloc tb id width in
      for _ = 1 to width do
        submit ~arrival:at ~service:(Dist.sample stage rng) s
      done

(* A chain draws its next stage here, at the previous one's completion. *)
let step p tb rng ~submit ~arrival key =
  key < 0
  ||
  match p.leaves.(tb.leaf.(key)) with
  | Stages ds ->
      let i = tb.step.(key) in
      if i = Array.length ds then begin
        release tb key;
        true
      end
      else begin
        tb.step.(key) <- i + 1;
        submit ~arrival ~service:(Dist.sample ds.(i) rng) key;
        false
      end
  | Join _ ->
      let left = tb.step.(key) - 1 in
      if left = 0 then begin
        release tb key;
        true
      end
      else begin
        tb.step.(key) <- left;
        false
      end
