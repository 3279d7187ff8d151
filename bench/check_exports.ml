(* Dead-export scan over the typed trees dune leaves in _build.

   Every [val] declared in a lib/**/*.mli (including those of submodules
   declared there, but not those inside a [module type], which state a
   requirement rather than an export) must be referenced by some other
   compilation unit of the program: another library module, bench/,
   perfbench/, bin/ or examples/.  A lib/ module with no .mli exports
   every top-level value of its .ml; each of those must be referenced by
   some program unit, its own included (a helper its own module calls is
   not dead).  Tests do not count as callers.  A value only tests call
   passes if the allowlist names it with a reason: an accessor that lets
   a test observe state, a builder for a test's input, or a hook that
   lets a test drive a program step by hand.  An allowlist entry no test
   calls, or that now has a program caller, is stale and fails too.
   References are read from the .cmt files, where the type checker has
   already resolved [M.x], module aliases, [M.Sub.x], local opens
   [M.( ... )] and [open M]: each identifier carries the unique id of the
   declaration it names, so two modules exporting the same name never
   mask each other.

   A top-level module alias [module X = M] in a lib/ .ml or .mli must be
   used too: by a path through [X] anywhere in its own unit, interface
   included ([X.x], [X.t], [X.C], [open X], ...), or by one through [U.X]
   from another unit, where [U] is the unit declaring the alias.  An .ml
   alias its .mli also declares is checked once, as the .mli's.  Uses
   are read from the paths and long identifiers in the typed trees and
   matched by name, since an alias's uses name it before the type
   checker resolves it away.

   Every optional argument [?x] of an exported value must be passed by
   some program call site: an application of the value, resolved to its
   unique id as above, that carries [~x:v] or [?x:v].  The type checker
   fills an omitted optional argument with a location-less [None], which
   is not a pass.  A knob no program sets is a constant in disguise.  The
   test-caller rule and the allowlist are the same as for values: a knob
   only tests pass needs a [Module.value ?x reason...] line.

   Usage: check_exports.exe BUILD_DIR ALLOWLIST (after [dune build
   @check]).  The allowlist has one [Module.value reason...] line per
   test-only value and one [Module.value ?x reason...] line per test-only
   knob; blank lines and [#] comments are skipped.  Prints one line per
   unreferenced [val], unset knob or alias, and per bad allowlist entry,
   and exits 1 if there is any. *)

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

(* The directories whose compiled units count as callers, and the one
   whose references only an allowlist entry can use. *)
let caller_dirs = [ "lib"; "bench"; "perfbench"; "bin"; "examples" ]
let test_dir = "test"

type export = { qualified : string; file : string; line : int }

(* [.mli] exports need a caller in another unit; the top-level values of
   an [.mli]-less module need a caller anywhere. *)
let exports : export Uid.Tbl.t = Uid.Tbl.create 1024
let implicit_exports : export Uid.Tbl.t = Uid.Tbl.create 256

let export_of prefix name (loc : Location.t) =
  let pos = loc.loc_start in
  { qualified = prefix ^ "." ^ name; file = pos.pos_fname; line = pos.pos_lnum }

(* (val uid, label) -> the knob, for the optional arguments of both kinds
   of export *)
let knobs : (Uid.t * string, export) Hashtbl.t = Hashtbl.create 256

(* (val uid, label) pairs some program or test call site passes.  A
   knob the module itself passes counts: its own calls name the
   implementation's id, which [impl_to_intf] maps to the interface's (the
   two number their ids apart, so only a unit's own calls are mapped). *)
let passed = Hashtbl.create 256
let test_passed = Hashtbl.create 256
let impl_to_intf = Uid.Tbl.create 1024
let intf_uid : (string, Uid.t) Hashtbl.t = Hashtbl.create 1024

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let collect_knobs (e : export) (vd : Types.value_description) =
  List.iter
    (fun l -> Hashtbl.replace knobs (vd.val_uid, l) { e with qualified = e.qualified ^ " ?" ^ l })
    (optional_labels vd.val_type)

let rec collect_sig prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let e = export_of prefix vd.val_name.txt vd.val_loc in
          Uid.Tbl.replace exports vd.val_val.Types.val_uid e;
          Hashtbl.replace intf_uid e.qualified vd.val_val.Types.val_uid;
          collect_knobs e vd.val_val
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
          if name.[0] <> '_' then begin
            let e = export_of prefix name vd.val_loc in
            Uid.Tbl.replace implicit_exports vd.Types.val_uid e;
            collect_knobs e vd
          end
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
let test_referenced = Uid.Tbl.create 4096

(* ---- module aliases ------------------------------------------------------ *)

(* (unit, alias) -> where the alias is bound *)
let aliases : (string * string, export) Hashtbl.t = Hashtbl.create 64

(* (unit, alias) pairs some path or long identifier goes through *)
let alias_uses : (string * string, unit) Hashtbl.t = Hashtbl.create 1024

let rec is_alias (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident _ -> true
  | Tmod_constraint (me, _, _, _) -> is_alias me
  | _ -> false

(* [declared]: the module names the unit's interface declares *)
let collect_aliases ~declared unit str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; mb_loc; _ }
        when is_alias mb_expr && not (List.mem name declared) ->
          Hashtbl.replace aliases (unit, name) (export_of unit name mb_loc)
      | _ -> ())
    str.str_items

let sig_modules sg =
  List.filter_map
    (fun item ->
      match item.sig_desc with
      | Tsig_module { md_name = { txt = Some name; _ }; md_type; md_loc; _ } ->
          Some (name, md_type, md_loc)
      | _ -> None)
    sg.sig_items

let collect_sig_aliases unit sg =
  List.iter
    (fun (name, md_type, loc) ->
      match md_type.mty_desc with
      | Tmty_alias _ -> Hashtbl.replace aliases (unit, name) (export_of unit name loc)
      | _ -> ())
    (sig_modules sg)

(* "Skyloft_experiments__Fig8" -> "Fig8": dune's wrapped-library names *)
let strip_wrapper name =
  match String.rindex_opt name '_' with
  | Some i when i > 0 && name.[i - 1] = '_' ->
      String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

(* Record a use for the leading component (an alias of [unit] itself) and
   for every [U.X] step along the components. *)
let mark_components unit comps =
  (match comps with
  | first :: _ -> Hashtbl.replace alias_uses (unit, first) ()
  | [] -> ());
  let rec steps = function
    | a :: (b :: _ as rest) ->
        Hashtbl.replace alias_uses (strip_wrapper a, b) ();
        steps rest
    | _ -> ()
  in
  steps comps

let rec path_components acc = function
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components (s :: acc) p
  | Path.Papply (f, a) -> path_components (path_components acc a) f
  | Path.Pextra_ty (p, _) -> path_components acc p

(* Marks every alias use in one unit's tree.  An alias's own binding
   [module X = M] goes through [M], not [X], so it is no use of [X]. *)
let alias_use_iterator unit =
  let path p = mark_components unit (path_components [] p) in
  let lid (l : Longident.t Location.loc) =
    match l.txt with
    | Longident.Lident _ -> ()
    | txt -> mark_components unit (Longident.flatten txt)
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> path p
    | Texp_construct (l, _, _) -> lid l
    | Texp_field (_, l, _) | Texp_setfield (_, l, _, _) -> lid l
    | Texp_record { fields; _ } ->
        Array.iter (function _, Overridden (l, _) -> lid l | _, Kept _ -> ()) fields
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_construct (l, _, _, _) -> lid l
    | Tpat_record (fields, _) -> List.iter (fun (l, _, _) -> lid l) fields
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let typ sub t =
    (match t.ctyp_desc with
    | Ttyp_constr (p, _, _) -> path p
    | Ttyp_package { pack_path; _ } -> path pack_path
    | _ -> ());
    Tast_iterator.default_iterator.typ sub t
  in
  let module_expr sub me =
    (match me.mod_desc with Tmod_ident (p, _) -> path p | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let module_type sub mt =
    (match mt.mty_desc with
    | Tmty_ident (p, _) | Tmty_alias (p, _) -> path p
    | _ -> ());
    Tast_iterator.default_iterator.module_type sub mt
  in
  { Tast_iterator.default_iterator with expr; pat; typ; module_expr; module_type }

(* An optional argument the call site left out: the type checker's
   location-less [None]. *)
let omitted (e : expression) =
  e.exp_loc.loc_ghost
  && match e.exp_desc with
     | Texp_construct (_, { cstr_name = "None"; _ }, []) -> true
     | _ -> false

let mark_references ~test (cmt : Cmt_format.cmt_infos) str =
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match vd.Types.val_uid with
        | Uid.Item { comp_unit; _ } ->
            Uid.Tbl.replace
              (if test then test_referenced
               else if comp_unit = cmt.cmt_modname then self_referenced
               else referenced)
              vd.val_uid ()
        | _ -> ())
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        let uid =
          match vd.Types.val_uid with
          | Uid.Item { comp_unit; _ } when comp_unit = cmt.cmt_modname ->
              Option.value ~default:vd.val_uid
                (Uid.Tbl.find_opt impl_to_intf vd.val_uid)
          | uid -> uid
        in
        List.iter
          (function
            | Asttypes.Optional l, Some a when not (omitted a) ->
                Hashtbl.replace (if test then test_passed else passed) (uid, l) ()
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

(* (name, line number, has a reason) per "Module.value reason..." or
   "Module.value ?x reason..." line; a knob's name keeps its "?x". *)
let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (String.trim line, i + 1))
  |> List.filter_map (fun (line, lineno) ->
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | name :: knob :: rest when knob.[0] = '?' ->
               Some (name ^ " " ^ knob, lineno, rest <> [])
           | name :: rest -> Some (name, lineno, rest <> [])
           | [] -> None)

let () =
  let build, allowlist_path =
    match Sys.argv with
    | [| _; dir; allowlist |] -> (dir, allowlist)
    | _ ->
        prerr_endline "usage: check_exports.exe BUILD_DIR ALLOWLIST";
        exit 2
  in
  let allowlist = read_allowlist allowlist_path in
  let in_build d = Filename.concat build d in
  (* unit -> the module names its interface declares *)
  let declared = Hashtbl.create 128 in
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match cmt.cmt_annots with
      | Interface sg ->
          collect_sig (module_name cmt) sg.sig_items;
          collect_sig_aliases (module_name cmt) sg;
          Hashtbl.replace declared (module_name cmt)
            (List.map (fun (name, _, _) -> name) (sig_modules sg))
      | _ -> ())
    (files_with_ext (in_build "lib") ".cmti" []);
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation str, Some src when Filename.check_suffix src ".ml" ->
          collect_aliases
            ~declared:(Option.value ~default:[] (Hashtbl.find_opt declared (module_name cmt)))
            (module_name cmt) str;
          if not (Sys.file_exists (in_build (src ^ "i"))) then
            collect_implicit (module_name cmt) str
          else
            List.iter
              (function
                | Types.Sig_value (id, vd, _) ->
                    Option.iter
                      (Uid.Tbl.replace impl_to_intf vd.Types.val_uid)
                      (Hashtbl.find_opt intf_uid
                         (module_name cmt ^ "." ^ Ident.name id))
                | _ -> ())
              str.str_type
      | _ -> ())
    (files_with_ext (in_build "lib") ".cmt" []);
  List.iter
    (fun d ->
      if Sys.file_exists (in_build d) then
        List.iter
          (fun path ->
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Implementation str ->
                mark_references ~test:false cmt str;
                let it = alias_use_iterator (module_name cmt) in
                it.structure it str
            | _ -> ())
          (files_with_ext (in_build d) ".cmt" []);
        List.iter
          (fun path ->
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Interface sg ->
                let it = alias_use_iterator (module_name cmt) in
                it.signature it sg
            | _ -> ())
          (files_with_ext (in_build d) ".cmti" []))
    caller_dirs;
  if Sys.file_exists (in_build test_dir) then
    List.iter
      (fun path ->
        let cmt = Cmt_format.read_cmt path in
        match cmt.cmt_annots with
        | Implementation str -> mark_references ~test:true cmt str
        | _ -> ())
      (files_with_ext (in_build test_dir) ".cmt" []);
  (* Allowlisted names some test calls; only these may lack a program caller. *)
  let test_only = Hashtbl.create 128 in
  let allowed e = List.exists (fun (name, _, _) -> name = e.qualified) allowlist in
  let dead_uids = Uid.Tbl.create 16 in
  let unreferenced ~self tbl acc =
    Uid.Tbl.fold
      (fun uid e acc ->
        if Uid.Tbl.mem referenced uid || (self && Uid.Tbl.mem self_referenced uid)
        then acc
        else if Uid.Tbl.mem test_referenced uid && allowed e then (
          Hashtbl.replace test_only e.qualified ();
          acc)
        else (
          Uid.Tbl.replace dead_uids uid ();
          e :: acc))
      tbl acc
  in
  (* A dead value's knobs are not listed again. *)
  let unset acc =
    Hashtbl.fold
      (fun ((uid, _) as key) e acc ->
        if Uid.Tbl.mem dead_uids uid || Hashtbl.mem passed key then acc
        else if Hashtbl.mem test_passed key && allowed e then (
          Hashtbl.replace test_only e.qualified ();
          acc)
        else e :: acc)
      knobs acc
  in
  let dead_aliases =
    Hashtbl.fold
      (fun key e acc -> if Hashtbl.mem alias_uses key then acc else e :: acc)
      aliases []
  in
  let dead =
    unreferenced ~self:false exports dead_aliases
    |> unreferenced ~self:true implicit_exports
    |> unset
    |> List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line))
  in
  List.iter (fun e -> Printf.printf "%s:%d: %s\n" e.file e.line e.qualified) dead;
  let bad_entries =
    List.filter_map
      (fun (name, lineno, has_reason) ->
        let where = Printf.sprintf "%s:%d: %s" allowlist_path lineno name in
        if not has_reason then Some (where ^ ": no reason given")
        else if not (Hashtbl.mem test_only name) then
          Some
            (where
           ^ ": stale (a program caller, no test caller, or no such val or knob)")
        else None)
      allowlist
  in
  List.iter print_endline bad_entries;
  Printf.printf
    "%d of %d exported vals (%d from .mli, %d top-level in .mli-less modules), \
     their optional arguments (%d) and top-level module aliases (%d) have no \
     program caller or setter; %d are allowlisted test-only vals and knobs, \
     %d allowlist entries are bad\n"
    (List.length dead)
    (Uid.Tbl.length exports + Uid.Tbl.length implicit_exports + Hashtbl.length knobs
    + Hashtbl.length aliases)
    (Uid.Tbl.length exports) (Uid.Tbl.length implicit_exports) (Hashtbl.length knobs)
    (Hashtbl.length aliases) (Hashtbl.length test_only) (List.length bad_entries);
  if dead <> [] || bad_entries <> [] then exit 1
