(* Dead-export scan over the typed trees dune leaves in _build.

   Every [val] declared in a lib/**/*.mli (including those of submodules
   declared there, but not those inside a [module type], which state a
   requirement rather than an export) must be referenced by some other
   compilation unit: another library module, a test, bench/, perfbench/,
   bin/ or examples/.  References are read from the .cmt files, where the
   type checker has already resolved [M.x], module aliases, [M.Sub.x],
   local opens [M.( ... )] and [open M]: each identifier carries the unique
   id of the declaration it names, so two modules exporting the same name
   never mask each other.

   Usage: check_exports.exe BUILD_DIR (after [dune build @check]).
   Prints one line per unreferenced [val] and exits 1 if there is any. *)

open Typedtree
module Uid = Shape.Uid

let rec files_with_ext dir ext acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files_with_ext path ext acc
      else if Filename.check_suffix name ext then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* The directories whose compiled units count as callers. *)
let caller_dirs = [ "lib"; "test"; "bench"; "perfbench"; "bin"; "examples" ]

type export = { qualified : string; file : string; line : int }

let exports : export Uid.Tbl.t = Uid.Tbl.create 1024

let rec collect_sig prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let pos = vd.val_loc.Location.loc_start in
          Uid.Tbl.replace exports vd.val_val.Types.val_uid
            {
              qualified = prefix ^ "." ^ vd.val_name.txt;
              file = pos.Lexing.pos_fname;
              line = pos.Lexing.pos_lnum;
            }
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> collect_sig (prefix ^ "." ^ name) sg.sig_items
          | _ -> ())
      | _ -> ())
    items

(* "lib/sim/engine.mli" -> "Engine" *)
let module_name (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some file -> String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  | None -> cmt.cmt_modname

let referenced = Uid.Tbl.create 4096

let mark_references (cmt : Cmt_format.cmt_infos) str =
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match vd.Types.val_uid with
        | Uid.Item { comp_unit; _ } when comp_unit <> cmt.cmt_modname ->
            Uid.Tbl.replace referenced vd.val_uid ()
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

let () =
  let build =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: check_exports.exe BUILD_DIR";
        exit 2
  in
  let in_build d = Filename.concat build d in
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match cmt.cmt_annots with
      | Interface sg -> collect_sig (module_name cmt) sg.sig_items
      | _ -> ())
    (files_with_ext (in_build "lib") ".cmti" []);
  List.iter
    (fun d ->
      if Sys.file_exists (in_build d) then
        List.iter
          (fun path ->
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Implementation str -> mark_references cmt str
            | _ -> ())
          (files_with_ext (in_build d) ".cmt" []))
    caller_dirs;
  let dead =
    Uid.Tbl.fold
      (fun uid e acc -> if Uid.Tbl.mem referenced uid then acc else e :: acc)
      exports []
    |> List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line))
  in
  List.iter (fun e -> Printf.printf "%s:%d: %s\n" e.file e.line e.qualified) dead;
  Printf.printf "%d of %d exported vals have no caller outside their module\n"
    (List.length dead) (Uid.Tbl.length exports);
  if dead <> [] then exit 1
