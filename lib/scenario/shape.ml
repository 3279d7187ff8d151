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
