exception Protection_fault of string

type pkey = int

type perm = { mutable ad : bool; mutable wd : bool }  (* access/write disable *)

type t = {
  pkru : perm array array;  (* core -> pkey -> bits *)
  mutable next_key : int;
}

type region = { name : string; key : pkey }

let n_keys = 16

let create ~cores =
  if cores <= 0 then invalid_arg "Mpk.create: cores must be positive";
  {
    pkru = Array.init cores (fun _ -> Array.init n_keys (fun _ -> { ad = false; wd = false }));
    next_key = 1;
  }

let fresh_pkey t =
  if t.next_key >= n_keys then invalid_arg "Mpk.fresh_pkey: out of protection keys";
  let key = t.next_key in
  t.next_key <- t.next_key + 1;
  key

let check_key t key =
  if key < 0 || key >= n_keys then invalid_arg "Mpk: pkey out of range";
  ignore t

let tag_region t ~name key =
  check_key t key;
  { name; key }

let perm t ~core key =
  if core < 0 || core >= Array.length t.pkru then invalid_arg "Mpk: bad core";
  t.pkru.(core).(key)

let wrpkru t ~core key ~allow_read ~allow_write =
  check_key t key;
  let p = perm t ~core key in
  p.ad <- not allow_read;
  p.wd <- not allow_write

let read t ~core region =
  let p = perm t ~core region.key in
  if p.ad then
    raise
      (Protection_fault
         (Printf.sprintf "read of %s (pkey %d) with access disabled on core %d"
            region.name region.key core))

let write t ~core region =
  let p = perm t ~core region.key in
  if p.ad || p.wd then
    raise
      (Protection_fault
         (Printf.sprintf "write to %s (pkey %d) with %s disabled on core %d" region.name
            region.key
            (if p.ad then "access" else "write")
            core))

let with_guardian t ~core key f =
  let p = perm t ~core key in
  let saved_ad = p.ad and saved_wd = p.wd in
  p.ad <- false;
  p.wd <- false;
  Fun.protect
    ~finally:(fun () ->
      p.ad <- saved_ad;
      p.wd <- saved_wd)
    f
