module Time = Skyloft_sim.Time

(* The fair class: the CFS/EEVDF rules and the ordered runqueue under
   them, shared by the Linux models and the Skyloft ports.

   The runqueue is an augmented AVL tree ordered by [(key, seq)]: [key]
   is the class's sort key (vruntime for CFS/EEVDF, 0.0 for RR so the
   order degenerates to FIFO) and [seq] a fresh per-enqueue number, so
   among equal keys the earliest enqueue wins, as a strict-[<] left fold
   over an enqueue-ordered list would.  Every node caches its subtree's
   vruntime sum and minimum, its earliest (deadline, seq) entry and its
   earliest enqueue, so each pick is O(log n).  Neither host mutates a
   queued element's vruntime or deadline, so the snapshots taken at
   [add] stay valid for the entry's whole residence. *)

type 'a entry = {
  x : 'a;
  key : float;
  seq : int;  (* enqueue order; unique tiebreak *)
  vr : float;  (* vruntime snapshot at enqueue *)
  dl : float;  (* EEVDF deadline snapshot at enqueue *)
}

type 'a tree =
  | Leaf
  | Node of {
      l : 'a tree;
      e : 'a entry;
      r : 'a tree;
      height : int;
      size : int;
      sum_vr : float;  (* sum of vruntime over the subtree *)
      min_vr : float;  (* min vruntime over the subtree *)
      min_dl : 'a entry;  (* min (deadline, seq) over the subtree *)
      first : 'a entry;  (* min seq over the subtree *)
    }

let height = function Leaf -> 0 | Node n -> n.height
let size = function Leaf -> 0 | Node n -> n.size
let sum_vr = function Leaf -> 0.0 | Node n -> n.sum_vr
let min_vr = function Leaf -> infinity | Node n -> n.min_vr

(* min by (deadline, seq); seq is unique so the order is total. *)
let dl_lt a b = a.dl < b.dl || (a.dl = b.dl && a.seq < b.seq)
let pick_dl a = function Leaf -> a | Node n -> if dl_lt n.min_dl a then n.min_dl else a
let pick_first a = function Leaf -> a | Node n -> if n.first.seq < a.seq then n.first else a

let mk l e r =
  Node
    {
      l;
      e;
      r;
      height = 1 + Int.max (height l) (height r);
      size = 1 + size l + size r;
      sum_vr = e.vr +. sum_vr l +. sum_vr r;
      min_vr = Float.min e.vr (Float.min (min_vr l) (min_vr r));
      min_dl = pick_dl (pick_dl e l) r;
      first = pick_first (pick_first e l) r;
    }

(* Standard AVL rebalance: callable when the two sides differ by at most 2
   (the invariant after a single insert or delete below). *)
let balance l e r =
  if height l > height r + 1 then
    match l with
    | Node { l = ll; e = le; r = lr; _ } ->
        if height ll >= height lr then mk ll le (mk lr e r)
        else (
          match lr with
          | Node { l = lrl; e = lre; r = lrr; _ } ->
              mk (mk ll le lrl) lre (mk lrr e r)
          | Leaf -> assert false)
    | Leaf -> assert false
  else if height r > height l + 1 then
    match r with
    | Node { l = rl; e = re; r = rr; _ } ->
        if height rr >= height rl then mk (mk l e rl) re rr
        else (
          match rl with
          | Node { l = rll; e = rle; r = rlr; _ } ->
              mk (mk l e rll) rle (mk rlr re rr)
          | Leaf -> assert false)
    | Leaf -> assert false
  else mk l e r

let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let rec insert t e =
  match t with
  | Leaf -> mk Leaf e Leaf
  | Node n ->
      if before e n.e then balance (insert n.l e) n.e n.r
      else balance n.l n.e (insert n.r e)

let rec pop_min = function
  | Leaf -> assert false
  | Node { l = Leaf; e; r; _ } -> (e, r)
  | Node { l; e; r; _ } ->
      let m, l' = pop_min l in
      (m, balance l' e r)

let rec delete t d =
  match t with
  | Leaf -> assert false
  | Node n ->
      if before d n.e then balance (delete n.l d) n.e n.r
      else if before n.e d then balance n.l n.e (delete n.r d)
      else (
        match (n.l, n.r) with
        | l, Leaf -> l
        | l, r ->
            let m, r' = pop_min r in
            balance l m r')

let rec leftmost = function
  | Leaf -> None
  | Node { l = Leaf; e; _ } -> Some e
  | Node { l; _ } -> leftmost l

(* Min (deadline, seq) among entries with key <= bound.  Those entries
   form a prefix of the (key, seq) order, so walking down the spine and
   combining cached subtree minima is O(log n). *)
let rec min_dl_prefix t ~bound best =
  match t with
  | Leaf -> best
  | Node n ->
      if n.e.key <= bound then
        let b = match best with Some b when dl_lt b n.e -> b | _ -> n.e in
        min_dl_prefix n.r ~bound (Some (pick_dl b n.l))
      else min_dl_prefix n.l ~bound best

(* ---- one core's queue -------------------------------------------------- *)

type 'a t = {
  mutable root : 'a tree;
  mutable next_seq : int;
  mutable min_vruntime : float;
}

let create () = { root = Leaf; next_seq = 0; min_vruntime = 0.0 }
let length q = size q.root
let is_empty q = q.root == Leaf

let add q ~key ~vruntime ~deadline x =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.root <- insert q.root { x; key; seq; vr = vruntime; dl = deadline }

let take q e =
  q.root <- delete q.root e;
  Some e.x

let pop_min_key q = match leftmost q.root with Some e -> take q e | None -> None

let pop_eevdf q ~avg =
  match q.root with
  | Leaf -> None
  | Node n -> (
      match min_dl_prefix q.root ~bound:avg None with
      | Some e -> take q e
      | None -> take q n.min_dl)

let pop_earliest q = match q.root with Leaf -> None | Node n -> take q n.first

let to_list q =
  let rec go acc = function
    | Leaf -> acc
    | Node { l; e; r; _ } -> go (e.x :: go acc r) l
  in
  go [] q.root

(* ---- the rules ----------------------------------------------------------- *)

let min_vruntime q = q.min_vruntime
let leftmost_vruntime q = min_vr q.root
let advance_min q v = q.min_vruntime <- Float.max q.min_vruntime v

let update_min q ~curr =
  let v = Float.min curr (min_vr q.root) in
  if v < infinity then advance_min q v

let avg_vruntime q ~curr =
  let sum, n =
    match curr with
    | Some v -> (v +. sum_vr q.root, length q + 1)
    | None -> (sum_vr q.root, length q)
  in
  if n = 0 then q.min_vruntime else sum /. float_of_int n

let nice_0 = 1024

let charge ~weight v ran =
  v +. (float_of_int ran *. float_of_int nice_0 /. float_of_int weight)

let cfs_slice ~min_granularity ~sched_latency ~nr =
  Int.max min_granularity (sched_latency / Int.max 1 nr)

let place_sleeper q ~sched_latency v =
  Float.max v (q.min_vruntime -. (float_of_int sched_latency /. 2.0))

let deadline ~base_slice v = v +. float_of_int base_slice

let clamp_lag ~base_slice lag =
  let cap = float_of_int base_slice in
  Float.max (-.cap) (Float.min cap lag)

let migrate ~src ~dst v = v -. src.min_vruntime +. dst.min_vruntime
