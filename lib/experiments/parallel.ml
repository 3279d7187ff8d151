(* Domain-based work pool for the experiment suite.

   Every data point in the §5 suite (fig5–fig8, ablations, fault-sweep,
   obs-report, goldens) is an independent deterministic simulation — one
   (experiment, config point, seed) cell — so the suite is embarrassingly
   parallel.  This driver fans cells across [jobs] domains and merges
   results by cell index, so the merged output is byte-identical to the
   sequential run at any [-j]: parallelism only reorders wall-clock
   execution, never results.  The per-run ID state in [Runtime_core]
   (no process-wide App/Task/tid counters) is what makes two simulations
   safe to run in different domains at all.

   Failure: the first raising cell aborts the run.  Workers observe the
   failure flag and stop claiming new cells, every domain is joined (no
   domain is ever left hanging), and the recorded exception with the
   smallest cell index is re-raised with its backtrace. *)

(* Nested [map] calls (an experiment parallelised from an already-parallel
   caller) fall back to sequential execution instead of multiplying
   domains. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

type 'b cell_result = Ok_cell of 'b | Error_cell of exn * Printexc.raw_backtrace

let validate_order ~n order =
  if Array.length order <> n then
    invalid_arg "Parallel.map: order must have one entry per item";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Parallel.map: order must be a permutation";
      seen.(i) <- true)
    order

let map ?order ~jobs f items =
  let n = List.length items in
  let jobs = if Domain.DLS.get inside_pool then 1 else jobs in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let order =
      match order with
      | Some o ->
          validate_order ~n o;
          o
      | None -> Array.init n Fun.id
    in
    (* Disjoint per-index writes; Domain.join gives the happens-before
       edge that makes them visible to the merging domain. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let worker () =
      Domain.DLS.set inside_pool true;
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n && not (Atomic.get failed) then begin
          let i = order.(k) in
          (match f arr.(i) with
          | v -> results.(i) <- Some (Ok_cell v)
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              results.(i) <- Some (Error_cell (e, bt));
              Atomic.set failed true);
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (min jobs n) (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    Array.iter
      (function
        | Some (Error_cell (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok_cell _) | None -> ())
      results;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok_cell v) -> v
        | Some (Error_cell _) | None -> assert false)
  end

(* One cell per (row, column), rows outer: the whole grid fans across
   domains at once, and each row gets its results back in column order. *)
let grid ~jobs rows cols f =
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows in
  let results = Array.of_list (map ~jobs (fun (r, c) -> f r c) cells) in
  let n = List.length cols in
  List.mapi (fun i r -> (r, List.init n (fun j -> results.((i * n) + j)))) rows
