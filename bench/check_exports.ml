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

   Four rules cover the types a lib/ .mli declares (outside [module
   type]s), each over the label and constructor ids the type checker
   resolved, so two records sharing a field name never mask each other:
   - fields: every field of a record exported with its fields, private
     or not, must be read, written, built or matched by some program unit
     outside its module;
   - read fields: every such field must be read ([r.x]) or matched
     ([{ x; _ }]) by some program unit, its own module included; building
     or writing it reads nothing, so a field only ever written is dead
     however many units build it;
   - config fields: every field of a record the same interface exports a
     [default_config] for must be set by some program build outside the
     module ([{ r with x = v }] or a full record), the default's own
     build not included: a config field no program sets is a constant;
   - constructors: every constructor of an exported variant must be
     built by some program unit, the module's own included (matching
     takes a value apart; it builds none).
   A unit's own ids collide with its interface's (both number from zero
   under one unit name), so its own field uses and builds are mapped to
   the interface's ids by qualified name.  A field or constructor only
   tests use, or a field only tests read, needs a [Module.type.field
   reason...] (or [Module.type.Constructor reason...]) line.  So does a
   field only its own module reads, when some other field of its record
   has a program use outside the module: such a record cannot become
   abstract without taking that use away (a frozen consumer like
   perfbench/, say).

   Usage: check_exports.exe BUILD_DIR ALLOWLIST (after [dune build
   @check]).  The allowlist has one [Module.value reason...] line per
   test-only value, one [Module.value ?x reason...] line per test-only
   knob and one [Module.type.member reason...] line per allowlisted field
   or constructor; blank lines and [#] comments are skipped.  Prints one
   line per unreferenced [val], unset knob, unused alias, field or
   constructor, and per bad allowlist entry, then a summary counting each
   kind, and exits 1 if there is any. *)

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

(* ---- record fields, config fields and constructors ------------------- *)

(* Label and constructor ids of the interfaces' records and variants.  A
   field is used by a read, a write, a build or a match; a constructor by
   a build (a match takes a value apart, it makes none). *)
let fields : export Uid.Tbl.t = Uid.Tbl.create 512
let constructors : export Uid.Tbl.t = Uid.Tbl.create 256

(* The fields of a record the interface exports a [default_config] for:
   a program must override each in some build of its own. *)
let config_fields : export Uid.Tbl.t = Uid.Tbl.create 32
let field_used = Uid.Tbl.create 1024
let test_field_used = Uid.Tbl.create 1024
let field_set = Uid.Tbl.create 256
let test_field_set = Uid.Tbl.create 256
let built = Uid.Tbl.create 512
let test_built = Uid.Tbl.create 512

(* A module's own builds and field uses name its implementation's ids;
   a build counts, and a field its own module reads may be kept (see
   [kept] below), so each id is mapped to the interface's by qualified
   name. *)
let member_impl_to_intf = Uid.Tbl.create 512
let intf_member : (string, Uid.t) Hashtbl.t = Hashtbl.create 512
let field_self_used = Uid.Tbl.create 512

(* Fields some program unit, their own module's included, reads
   ([r.x]) or matches ([{ x; _ }]); a build or a write reads nothing. *)
let field_read = Uid.Tbl.create 1024
let test_field_read = Uid.Tbl.create 1024

(* (unit-qualified record type name) -> its fields, and back *)
let record_fields : (string, (Uid.t * export) list) Hashtbl.t = Hashtbl.create 128
let record_of_field : string Uid.Tbl.t = Uid.Tbl.create 512

let collect_type prefix (td : type_declaration) =
  let tprefix = prefix ^ "." ^ td.typ_name.txt in
  match td.typ_type.Types.type_kind with
  | Types.Type_record (lds, _) ->
      let fs =
        List.map
          (fun (ld : Types.label_declaration) ->
            let e = export_of tprefix (Ident.name ld.ld_id) ld.ld_loc in
            Uid.Tbl.replace fields ld.ld_uid e;
            Uid.Tbl.replace record_of_field ld.ld_uid tprefix;
            Hashtbl.replace intf_member e.qualified ld.ld_uid;
            (ld.ld_uid, e))
          lds
      in
      Hashtbl.replace record_fields tprefix fs
  | Types.Type_variant (cds, _) ->
      List.iter
        (fun (cd : Types.constructor_declaration) ->
          let e = export_of tprefix (Ident.name cd.cd_id) cd.cd_loc in
          Uid.Tbl.replace constructors cd.cd_uid e;
          Hashtbl.replace intf_member e.qualified cd.cd_uid)
        cds
  | Types.Type_abstract | Types.Type_open -> ()

let rec result_type ty =
  match Types.get_desc ty with Types.Tarrow (_, _, ret, _) -> result_type ret | _ -> ty

(* [val default_config : ... -> r] marks the fields of [r], a record of
   the same interface, as config fields. *)
let collect_default prefix (vd : Types.value_description) =
  match Types.get_desc (result_type vd.val_type) with
  | Types.Tconstr (Path.Pident id, _, _) ->
      Option.iter
        (List.iter (fun (uid, e) -> Uid.Tbl.replace config_fields uid e))
        (Hashtbl.find_opt record_fields (prefix ^ "." ^ Ident.name id))
  | _ -> ()

(* The implementation's field and constructor ids, mapped to the
   interface's. *)
let rec map_impl_members prefix items =
  let map tprefix uid name =
    Option.iter
      (Uid.Tbl.replace member_impl_to_intf uid)
      (Hashtbl.find_opt intf_member (tprefix ^ "." ^ name))
  in
  List.iter
    (function
      | Types.Sig_type (id, { type_kind = Types.Type_variant (cds, _); _ }, _, _) ->
          List.iter
            (fun (cd : Types.constructor_declaration) ->
              map (prefix ^ "." ^ Ident.name id) cd.cd_uid (Ident.name cd.cd_id))
            cds
      | Types.Sig_type (id, { type_kind = Types.Type_record (lds, _); _ }, _, _) ->
          List.iter
            (fun (ld : Types.label_declaration) ->
              map (prefix ^ "." ^ Ident.name id) ld.ld_uid (Ident.name ld.ld_id))
            lds
      | Types.Sig_module (id, _, { md_type = Types.Mty_signature sg; _ }, _, _) ->
          map_impl_members (prefix ^ "." ^ Ident.name id) sg
      | _ -> ())
    items

let rec collect_sig prefix items =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let e = export_of prefix vd.val_name.txt vd.val_loc in
          Uid.Tbl.replace exports vd.val_val.Types.val_uid e;
          Hashtbl.replace intf_uid e.qualified vd.val_val.Types.val_uid;
          collect_knobs e vd.val_val;
          if vd.val_name.txt = "default_config" then collect_default prefix vd.val_val
      | Tsig_type (_, tds) -> List.iter (collect_type prefix) tds
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
  (* A unit's own ids collide with its interface's, so its own field uses
     and constructor builds count only through [member_impl_to_intf]: a
     field use as the module's own, a build as any program's. *)
  let own = function
    | Uid.Item { comp_unit; _ } -> comp_unit = cmt.cmt_modname
    | _ -> false
  in
  let use_field (lbl : Types.label_description) =
    if not (own lbl.lbl_uid) then
      Uid.Tbl.replace (if test then test_field_used else field_used) lbl.lbl_uid ()
    else
      Option.iter
        (fun uid -> Uid.Tbl.replace field_self_used uid ())
        (Uid.Tbl.find_opt member_impl_to_intf lbl.lbl_uid)
  in
  let read_field (lbl : Types.label_description) =
    use_field lbl;
    let uid =
      if own lbl.lbl_uid then Uid.Tbl.find_opt member_impl_to_intf lbl.lbl_uid
      else Some lbl.lbl_uid
    in
    Option.iter
      (fun uid -> Uid.Tbl.replace (if test then test_field_read else field_read) uid ())
      uid
  in
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
    (match e.exp_desc with
    | Texp_field (_, _, lbl) -> read_field lbl
    | Texp_setfield (_, _, lbl, _) -> use_field lbl
    | Texp_record { fields = fs; _ } ->
        Array.iter
          (function
            | (lbl : Types.label_description), Overridden _ ->
                use_field lbl;
                if not (own lbl.lbl_uid) then
                  Uid.Tbl.replace
                    (if test then test_field_set else field_set)
                    lbl.lbl_uid ()
            | _, Kept _ -> ())
          fs
    | Texp_construct (_, cstr, _) ->
        let uid =
          if own cstr.cstr_uid then Uid.Tbl.find_opt member_impl_to_intf cstr.cstr_uid
          else Some cstr.cstr_uid
        in
        Option.iter
          (fun uid -> Uid.Tbl.replace (if test then test_built else built) uid ())
          uid
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (fs, _) -> List.iter (fun (_, lbl, _) -> read_field lbl) fs
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
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
          map_impl_members (module_name cmt) str.str_type;
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
  (* Fields no program outside their module names; then the config
     fields (not listed twice) no program build overrides; then the
     fields (not listed twice) no program unit reads or matches; then the
     constructors no program builds.  A field only its own module reads
     may be kept by an allowlist line when some other field of its record
     has a program use outside the module: the record cannot become
     abstract without taking that use away. *)
  let kept uid =
    Uid.Tbl.mem field_self_used uid
    && List.exists
         (fun (other, _) -> other <> uid && Uid.Tbl.mem field_used other)
         (Hashtbl.find record_fields (Uid.Tbl.find record_of_field uid))
  in
  let unused ?(kept = fun _ -> false) ~used ~test_used ~skip tbl acc =
    Uid.Tbl.fold
      (fun uid e acc ->
        if Uid.Tbl.mem used uid || Uid.Tbl.mem skip uid then acc
        else if (Uid.Tbl.mem test_used uid || kept uid) && allowed e then (
          Hashtbl.replace test_only e.qualified ();
          acc)
        else (
          Uid.Tbl.replace dead_uids uid ();
          e :: acc))
      tbl acc
  in
  let no_skip = Uid.Tbl.create 1 in
  let dead_fields =
    unused ~kept ~used:field_used ~test_used:test_field_used ~skip:no_skip fields []
  in
  let dead_members =
    unused ~used:field_set ~test_used:test_field_set ~skip:dead_uids config_fields
      dead_fields
    |> unused ~used:field_read ~test_used:test_field_read ~skip:dead_uids fields
    |> unused ~used:built ~test_used:test_built ~skip:no_skip constructors
  in
  let dead_aliases =
    Hashtbl.fold
      (fun key e acc -> if Hashtbl.mem alias_uses key then acc else e :: acc)
      aliases []
  in
  let dead =
    unreferenced ~self:false exports (dead_aliases @ dead_members)
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
           ^ ": stale (a program use, no test use, or no such val, knob, field \
              or constructor)")
        else None)
      allowlist
  in
  List.iter print_endline bad_entries;
  Printf.printf
    "%d of %d exported vals (%d from .mli, %d top-level in .mli-less modules), \
     their optional arguments (%d), top-level module aliases (%d), record \
     fields (%d, %d of them config fields) and constructors (%d) have no \
     program use; %d are allowlisted, %d allowlist entries are bad\n"
    (List.length dead)
    (Uid.Tbl.length exports + Uid.Tbl.length implicit_exports + Hashtbl.length knobs
    + Hashtbl.length aliases + Uid.Tbl.length fields + Uid.Tbl.length constructors)
    (Uid.Tbl.length exports) (Uid.Tbl.length implicit_exports) (Hashtbl.length knobs)
    (Hashtbl.length aliases) (Uid.Tbl.length fields) (Uid.Tbl.length config_fields)
    (Uid.Tbl.length constructors) (Hashtbl.length test_only) (List.length bad_entries);
  if dead <> [] || bad_entries <> [] then exit 1
