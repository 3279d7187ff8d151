module Time = Skyloft_sim.Time
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries

type labels = (string * string) list

type source =
  | Src_counter of (unit -> int)
  | Src_gauge of (unit -> float)
  | Src_histogram of Histogram.t
  | Src_series of Timeseries.t

type instrument = { name : string; help : string; labels : labels; source : source }

type t = {
  mutable instruments : instrument list;  (* newest first *)
  keys : (string * labels, unit) Hashtbl.t;  (* uniqueness: (name, sorted labels) *)
}

let core c = ("core", string_of_int c)
let app name = ("app", name)

let create () = { instruments = []; keys = Hashtbl.create 64 }

let size t = List.length t.instruments

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let valid_label_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let canonical labels = List.sort compare labels

let register t ~name ~help ~labels source =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Registry: invalid label name %S" k))
    labels;
  let key = (name, canonical labels) in
  if Hashtbl.mem t.keys key then
    invalid_arg
      (Printf.sprintf "Registry: duplicate metric %s{%s}" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)));
  Hashtbl.replace t.keys key ();
  t.instruments <- { name; help; labels; source } :: t.instruments

let counter t ?(help = "") ?(labels = []) name read =
  register t ~name ~help ~labels (Src_counter read)

let gauge t ?(help = "") ?(labels = []) name read =
  register t ~name ~help ~labels (Src_gauge read)

let histogram t ?(help = "") ?(labels = []) name h =
  register t ~name ~help ~labels (Src_histogram h)

let series t ?(help = "") ?(labels = []) name s =
  register t ~name ~help ~labels (Src_series s)

(* ---- snapshots ----------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Summary of {
      count : int;
      mean : float;
      p50 : int;
      p90 : int;
      p99 : int;
      p999 : int;
      max : int;
    }
  | Level of { last : int; mean : float; min : int; max : int }

type sample = { name : string; help : string; labels : labels; value : value }

let sample_name (s : sample) = s.name
let sample_labels (s : sample) = s.labels

let materialise ~until (i : instrument) =
  let value =
    match i.source with
    | Src_counter read -> Counter (read ())
    | Src_gauge read -> Gauge (read ())
    | Src_histogram h ->
        Summary
          {
            count = Histogram.count h;
            mean = Histogram.mean h;
            p50 = Histogram.percentile h 50.0;
            p90 = Histogram.percentile h 90.0;
            p99 = Histogram.percentile h 99.0;
            p999 = Histogram.percentile h 99.9;
            max = Histogram.max_value h;
          }
    | Src_series s ->
        Level
          {
            last = (match Timeseries.last s with Some (_, v) -> v | None -> 0);
            mean = Timeseries.mean s ~until;
            min = Timeseries.min_value s;
            max = Timeseries.max_value s;
          }
  in
  { name = i.name; help = i.help; labels = i.labels; value }

(* Registration order, grouped by first occurrence of each name so the
   Prometheus rendering emits one HELP/TYPE block per metric. *)
let snapshot ?(until = 0) t =
  let in_order = List.rev t.instruments in
  let seen = Hashtbl.create 16 in
  let names =
    List.filter_map
      (fun (i : instrument) ->
        if Hashtbl.mem seen i.name then None
        else begin
          Hashtbl.replace seen i.name ();
          Some i.name
        end)
      in_order
  in
  List.concat_map
    (fun name ->
      List.filter_map
        (fun (i : instrument) ->
          if i.name = name then Some (materialise ~until i) else None)
        in_order)
    names

let find samples ?(labels = []) name =
  let want = canonical labels in
  List.find_map
    (fun s ->
      if s.name = name && canonical s.labels = want then Some s.value else None)
    samples

(* ---- Prometheus text format ---------------------------------------------- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let prom_type = function
  | Counter _ -> "counter"
  | Gauge _ | Level _ -> "gauge"
  | Summary _ -> "summary"

let to_prometheus samples =
  let buf = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      if s.name <> !last_name then begin
        last_name := s.name;
        if s.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.name s.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name (prom_type s.value))
      end;
      match s.value with
      | Counter v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) v)
      | Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %.6g\n" s.name (render_labels s.labels) v)
      | Level { last; _ } ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) last)
      | Summary { count; mean; p50; p90; p99; p999; max } ->
          List.iter
            (fun (q, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" s.name
                   (render_labels (s.labels @ [ ("quantile", q) ]))
                   v))
            [ ("0.5", p50); ("0.9", p90); ("0.99", p99); ("0.999", p999); ("1", max) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %.6g\n" s.name (render_labels s.labels)
               (mean *. float_of_int count));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels) count))
    samples;
  Buffer.contents buf
