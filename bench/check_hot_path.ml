(* Hot-path primitive lint over OCaml sources.

   The compiler has no flambda, so on the per-event path a bare
   [max]/[min]/[compare] is an out-of-line call to the polymorphic
   [Stdlib] primitive (through [caml_greaterequal]/[compare_val] even on
   ints) under either profile: the default build's [-inline] does not
   inline [Stdlib.max] into its caller, and [--profile dev] compiles
   every library [-opaque].  A [Hashtbl] lookup hashes its key with
   [caml_hash].  Each file named on the command line may use none of
   them: int comparisons write [Int.max]/[Int.min]/[Int.compare], and a
   deliberate polymorphic or float use writes [Stdlib.max] (or
   [Stdlib.min]/[Stdlib.compare]) in full — [Float.max] would change the
   NaN and -0 semantics.

   The files are read with the compiler's own lexer, so comments, string
   literals and labels ([~max], [?min]) never match; a lowercase [max],
   [min] or [compare] counts as bare unless a [.] precedes it, and any
   [Hashtbl] module name counts.

   Usage: check_hot_path.exe FILE...
   Prints one line per violation and exits 1 if there is any. *)

let banned_values = [ "max"; "min"; "compare" ]

let scan file =
  let ic = open_in_bin file in
  let lexbuf = Lexing.from_channel ic in
  Lexing.set_filename lexbuf file;
  Lexer.init ();
  let found = ref 0 in
  let report what =
    incr found;
    Printf.printf "%s:%d: %s\n" file lexbuf.Lexing.lex_start_p.pos_lnum what
  in
  let rec go ~after_dot =
    match Lexer.token lexbuf with
    | Parser.EOF -> ()
    | Parser.LIDENT s when (not after_dot) && List.mem s banned_values ->
        report (Printf.sprintf "bare %s (write Int.%s, or Stdlib.%s for a deliberate non-int use)" s s s);
        go ~after_dot:false
    | Parser.UIDENT "Hashtbl" ->
        report "Hashtbl (index a dense id, or scan a short int array)";
        go ~after_dot:false
    | Parser.DOT -> go ~after_dot:true
    | _ -> go ~after_dot:false
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go ~after_dot:false);
  !found

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: check_hot_path.exe FILE...";
    exit 2
  end;
  let found = List.fold_left (fun acc f -> acc + scan f) 0 files in
  Printf.printf "%d hot-path violation(s) in %d file(s)\n" found (List.length files);
  if found > 0 then exit 1
