module Time = Skyloft_sim.Time

(** Plain-text rendering of experiment results: one section per table or
    figure, printing the series the paper plots so the shape comparison is
    immediate. *)

let rule = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" rule title rule

let subsection title = Printf.printf "\n-- %s --\n" title

let row_of_cells widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%*s" w c) widths cells)

let table ~header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  print_endline (row_of_cells widths header);
  print_endline
    (row_of_cells widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> print_endline (row_of_cells widths row)) rows

let us t = Printf.sprintf "%.1f" (Time.to_us_float t)
let ns t = Printf.sprintf "%d" t
let cycles c = Printf.sprintf "%d" c
let krps v = Printf.sprintf "%.1f" (v /. 1_000.0)
let pct v = Printf.sprintf "%.1f%%" (v *. 100.0)
let f1 v = Printf.sprintf "%.1f" v
let opt_cycles = function Some c -> cycles c | None -> "-"

let note fmt = Printf.printf ("note: " ^^ fmt ^^ "\n")

(* The load-fraction column header: 0.95 -> "95%". *)
let loads fracs = List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) fracs

(* One row per series: its name, then one [cell] per point. *)
let series label cols cell results =
  table ~header:(label :: cols)
    (List.map (fun (name, points) -> name :: List.map cell points) results)
