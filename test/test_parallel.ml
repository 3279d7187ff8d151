(* Tests for the domain-parallel sweep driver (lib/experiments/parallel):
   the merged result must be indistinguishable from [List.map] at any
   job count and any cell claim order, a raising cell must fail the run
   cleanly with every domain joined, and [grid] must hand every row its
   results in column order, as the nested [List.map] would. *)

open Alcotest
module Parallel = Skyloft_experiments.Parallel

let qtest = QCheck_alcotest.to_alcotest
let int_list = Alcotest.(list int)

(* A cell function with some per-cell work and state local to the call,
   so a data race or mis-merged index would actually show up. *)
let cell x =
  let acc = ref 0 in
  for i = 1 to 1000 do
    acc := !acc + ((x * i) mod 97)
  done;
  (x * 1_000_000) + !acc

let test_map_matches_sequential () =
  let items = List.init 23 Fun.id in
  let expected = List.map cell items in
  List.iter
    (fun jobs ->
      check int_list
        (Printf.sprintf "jobs=%d identical to sequential" jobs)
        expected
        (Parallel.map ~jobs cell items))
    [ 1; 2; 3; 4; 8; 64 ]

let test_map_empty_and_singleton () =
  check int_list "empty" [] (Parallel.map ~jobs:4 cell []);
  check int_list "singleton" [ cell 7 ] (Parallel.map ~jobs:4 cell [ 7 ])

(* The core determinism property: for ANY item list, ANY job count and
   ANY claim-order permutation, the merged result equals [List.map]. *)
let prop_any_order_any_jobs =
  let gen =
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) small_signed_int)
        (int_range 1 8)
        (int_range 0 1000))
  in
  QCheck.Test.make ~name:"parallel: any order/jobs = sequential" ~count:60 gen
    (fun (items, jobs, order_seed) ->
      let n = List.length items in
      (* a deterministic pseudo-random permutation of 0..n-1 *)
      let order = Array.init n Fun.id in
      let st = Random.State.make [| order_seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      Parallel.map ~order ~jobs cell items = List.map cell items)

let test_bad_order_rejected () =
  let items = [ 1; 2; 3 ] in
  check_raises "wrong length"
    (Invalid_argument "Parallel.map: order must have one entry per item")
    (fun () -> ignore (Parallel.map ~order:[| 0; 1 |] ~jobs:2 cell items));
  check_raises "not a permutation"
    (Invalid_argument "Parallel.map: order must be a permutation")
    (fun () -> ignore (Parallel.map ~order:[| 0; 0; 2 |] ~jobs:2 cell items))

exception Cell_failed of int

(* A raising cell fails the whole run: the exception surfaces, no domain
   is left hanging (the call returns), and the pool is immediately
   reusable — which it would not be if a worker domain were stuck. *)
let test_raising_cell_fails_cleanly () =
  let items = List.init 16 Fun.id in
  let f x = if x = 11 then raise (Cell_failed x) else cell x in
  List.iter
    (fun jobs ->
      check bool
        (Printf.sprintf "jobs=%d raising cell surfaces" jobs)
        true
        (try
           ignore (Parallel.map ~jobs f items);
           false
         with Cell_failed 11 -> true);
      (* the pool still works after the failure *)
      check int_list
        (Printf.sprintf "jobs=%d pool reusable after failure" jobs)
        (List.map cell items)
        (Parallel.map ~jobs cell items))
    [ 1; 4 ]

let test_first_failing_index_wins () =
  (* sequential claiming makes the winner deterministic: index 2 raises
     before index 9 is reached, even when the claim order visits 9 first
     — the re-raise picks the smallest failed index among those run *)
  let f x = if x >= 2 then raise (Cell_failed x) else cell x in
  check_raises "smallest failed index re-raised" (Cell_failed 2) (fun () ->
      ignore (Parallel.map ~jobs:1 f (List.init 12 Fun.id)))

(* Nested sweeps must not multiply domains: an inner map from inside a
   worker runs sequentially but still returns the right answer. *)
let test_nested_map_is_flat () =
  let inner x = Parallel.map ~jobs:4 cell [ x; x + 1 ] in
  let expected = List.map inner [ 10; 20; 30; 40 ] in
  check
    (Alcotest.list int_list)
    "nested map correct" expected
    (Parallel.map ~jobs:4 inner [ 10; 20; 30; 40 ])

(* The reference [grid] must equal at every job count. *)
let grid_reference rows cols f = List.map (fun r -> (r, List.map (f r) cols)) rows

let test_grid () =
  let rows_t = Alcotest.(list (pair int int_list)) in
  let f r c = cell ((r * 100) + c) in
  List.iter
    (fun jobs ->
      let case name rows cols =
        check rows_t
          (Printf.sprintf "%s, jobs=%d" name jobs)
          (grid_reference rows cols f)
          (Parallel.grid ~jobs rows cols f)
      in
      case "3x2 rectangle" [ 1; 2; 3 ] [ 4; 5 ];
      case "no rows" [] [ 1; 2 ];
      case "no columns" [ 1; 2; 3 ] [];
      case "1xn" [ 7 ] (List.init 9 Fun.id))
    [ 1; 4 ];
  check rows_t "rows keep their order and results their columns"
    [ (1, [ 10; 20 ]); (2, [ 20; 40 ]); (3, [ 30; 60 ]) ]
    (Parallel.grid ~jobs:4 [ 1; 2; 3 ] [ 10; 20 ] (fun r c -> r * c))

let prop_grid_is_nested_map =
  let gen = QCheck.(triple (int_range 0 6) (int_range 0 7) (int_range 1 8)) in
  QCheck.Test.make ~name:"parallel: grid = nested List.map" ~count:100 gen
    (fun (n_rows, n_cols, jobs) ->
      let rows = List.init n_rows Fun.id and cols = List.init n_cols Fun.id in
      let f r c = cell ((r * n_cols) + c) in
      Parallel.grid ~jobs rows cols f = grid_reference rows cols f)

let suite =
  [
    test_case "map matches sequential at every job count" `Quick
      test_map_matches_sequential;
    test_case "map: empty and singleton" `Quick test_map_empty_and_singleton;
    qtest prop_any_order_any_jobs;
    test_case "map rejects bad claim orders" `Quick test_bad_order_rejected;
    test_case "raising cell fails cleanly, pool reusable" `Quick
      test_raising_cell_fails_cleanly;
    test_case "smallest failed index wins" `Quick test_first_failing_index_wins;
    test_case "nested map stays flat and correct" `Quick test_nested_map_is_flat;
    test_case "grid matches List.map, jobs 1/4" `Quick test_grid;
    qtest prop_grid_is_nested_map;
  ]
