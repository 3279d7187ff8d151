(* Dead-export scan over the typed trees dune leaves in _build.

   Every [val] declared in a lib/**/*.mli (including those of submodules
   declared there, but not those inside a [module type], which state a
   requirement rather than an export) must be referenced by some other
   compilation unit: another library module, a test, bench/, perfbench/,
   bin/ or examples/.  A lib/ module with no .mli exports every top-level
   value of its .ml; each of those must be referenced by some compilation
   unit, its own included (a helper its own module calls is not dead).
   References are read from the .cmt files, where the type checker has
   already resolved [M.x], module aliases, [M.Sub.x], local opens
   [M.( ... )] and [open M]: each identifier carries the unique id of the
   declaration it names, so two modules exporting the same name never
   mask each other.

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

(* [.mli] exports need a caller in another unit; the top-level values of
   an [.mli]-less module need a caller anywhere. *)
let exports : export Uid.Tbl.t = Uid.Tbl.create 1024
let implicit_exports : export Uid.Tbl.t = Uid.Tbl.create 256

let export_of prefix name (loc : Location.t) =
  let pos = loc.loc_start in
  { qualified = prefix ^ "." ^ name; file = pos.pos_fname; line = pos.pos_lnum }

let rec collect_sig prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          Uid.Tbl.replace exports vd.val_val.Types.val_uid
            (export_of prefix vd.val_name.txt vd.val_loc)
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
          match md_type.mty_desc with
          | Tmty_signature sg -> collect_sig (prefix ^ "." ^ name) sg.sig_items
          | _ -> ())
      | _ -> ())
    items

let collect_implicit prefix str =
  List.iter
    (function
      | Types.Sig_value (id, vd, _) ->
          let name = Ident.name id in
          if name.[0] <> '_' then
            Uid.Tbl.replace implicit_exports vd.Types.val_uid
              (export_of prefix name vd.val_loc)
      | _ -> ())
    str.str_type

(* "lib/sim/engine.mli" -> "Engine" *)
let module_name (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some file -> String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  | None -> cmt.cmt_modname

(* An interface's ids and its own implementation's ids share one unit
   name, so a unit's references to itself are kept apart: they count
   only for the [.mli]-less exports, whose ids they name exactly. *)
let referenced = Uid.Tbl.create 4096
let self_referenced = Uid.Tbl.create 4096

let mark_references (cmt : Cmt_format.cmt_infos) str =
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match vd.Types.val_uid with
        | Uid.Item { comp_unit; _ } ->
            Uid.Tbl.replace
              (if comp_unit = cmt.cmt_modname then self_referenced else referenced)
              vd.val_uid ()
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
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation str, Some src
        when Filename.check_suffix src ".ml"
             && not (Sys.file_exists (in_build (src ^ "i"))) ->
          collect_implicit (module_name cmt) str
      | _ -> ())
    (files_with_ext (in_build "lib") ".cmt" []);
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
  let unreferenced ~self tbl acc =
    Uid.Tbl.fold
      (fun uid e acc ->
        if Uid.Tbl.mem referenced uid || (self && Uid.Tbl.mem self_referenced uid)
        then acc
        else e :: acc)
      tbl acc
  in
  let dead =
    unreferenced ~self:false exports []
    |> unreferenced ~self:true implicit_exports
    |> List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line))
  in
  List.iter (fun e -> Printf.printf "%s:%d: %s\n" e.file e.line e.qualified) dead;
  Printf.printf
    "%d of %d exported vals (%d from .mli, %d top-level in .mli-less modules) \
     have no caller\n"
    (List.length dead)
    (Uid.Tbl.length exports + Uid.Tbl.length implicit_exports)
    (Uid.Tbl.length exports) (Uid.Tbl.length implicit_exports);
  if dead <> [] then exit 1
