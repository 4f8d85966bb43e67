(* Snapshot exporters. The machine "dump" line format is the single
   source of truth — `dpkit serve --metrics` and the protocol `metrics`
   command emit it, `dpkit stats` parses it back and renders text or
   JSON. Format (v1), one record per line, space-separated, scope "-"
   means the global scope:

     dpkit-metrics v1
     counter <scope> <name> <int>
     gauge <scope> <name> <float %.17g>
     histo <scope> <name> <count> <sum> <min> <max> [<bucket>:<n> ...]
     span <scope> <name> <start_ns> <dur_ns> <depth> [<tag>=<float> ...]

   Every <name> and <tag> is a Name catalogue entry; <scope> is "-" or a
   dataset id. Nothing else ever appears, which is the whole point. *)

let header = "dpkit-metrics v1"

type entry =
  | Counter of { scope : string; name : string; value : int }
  | Gauge of { scope : string; name : string; value : float }
  | Latency of {
      scope : string;
      name : string;
      count : int;
      sum : int;
      min_v : int;
      max_v : int;
      buckets : (int * int) list;
    }
  | Span of {
      scope : string;
      name : string;
      start_ns : int;
      dur_ns : int;
      depth : int;
      tags : (string * float) list;
    }

let enc_scope label = if label = "" then "-" else label
let dec_scope s = if s = "-" then "" else s

let dump_scope s =
  let label = enc_scope (Metrics.label s) in
  let counters =
    Array.to_list
      (Array.map
         (fun c ->
           Printf.sprintf "counter %s %s %d" label (Name.counter_name c)
             (Metrics.count s c))
         Name.all_counters)
  in
  let gauges =
    Array.to_list
      (Array.map
         (fun g ->
           Printf.sprintf "gauge %s %s %.17g" label (Name.gauge_name g)
             (Metrics.gauge s g))
         Name.all_gauges)
  in
  let histos =
    Array.to_list Name.all_latencies
    |> List.filter_map (fun l ->
           let h = Metrics.latency s l in
           if Histo.count h = 0 then None
           else
             let cells =
               Histo.nonzero h
               |> List.map (fun (b, n) -> Printf.sprintf " %d:%d" b n)
               |> String.concat ""
             in
             Some
               (Printf.sprintf "histo %s %s %d %d %d %d%s" label
                  (Name.latency_name l) (Histo.count h) (Histo.sum h)
                  (Histo.min_value h) (Histo.max_value h) cells))
  in
  counters @ gauges @ histos

let dump_span (s : Span.span) =
  let tags =
    s.Span.tags
    |> List.map (fun (k, v) -> Printf.sprintf " %s=%.17g" (Name.tag_name k) v)
    |> String.concat ""
  in
  Printf.sprintf "span %s %s %d %d %d%s"
    (enc_scope s.Span.dataset)
    (Name.span_name s.Span.name)
    s.Span.start_ns s.Span.dur_ns s.Span.depth tags

let dump ?trace metrics =
  let scopes = List.concat_map dump_scope (Metrics.scopes metrics) in
  let spans =
    match trace with
    | None -> []
    | Some t -> List.map dump_span (Span.spans t)
  in
  header :: (scopes @ spans)

let write path lines =
  match open_out path with
  | oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      Ok ()
  | exception Sys_error msg -> Error msg

(* --- parsing ---------------------------------------------------------- *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let int_tok name t =
  match int_of_string_opt t with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s field %S" name t)

let float_tok name t =
  match float_of_string_opt t with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s field %S" name t)

let ( let* ) = Result.bind

let parse_cell cell =
  match String.index_opt cell ':' with
  | None -> Error (Printf.sprintf "bad histo cell %S" cell)
  | Some i ->
      let* b = int_tok "bucket" (String.sub cell 0 i) in
      let* n =
        int_tok "bucket count"
          (String.sub cell (i + 1) (String.length cell - i - 1))
      in
      Ok (b, n)

let parse_tag tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "bad span tag %S" tok)
  | Some i ->
      let* v =
        float_tok "tag value" (String.sub tok (i + 1) (String.length tok - i - 1))
      in
      Ok (String.sub tok 0 i, v)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let parse_line line =
  match split_ws line with
  | [ "counter"; scope; name; v ] ->
      let* value = int_tok "counter" v in
      Ok (Counter { scope = dec_scope scope; name; value })
  | [ "gauge"; scope; name; v ] ->
      let* value = float_tok "gauge" v in
      Ok (Gauge { scope = dec_scope scope; name; value })
  | "histo" :: scope :: name :: count :: sum :: min_v :: max_v :: cells ->
      let* count = int_tok "count" count in
      let* sum = int_tok "sum" sum in
      let* min_v = int_tok "min" min_v in
      let* max_v = int_tok "max" max_v in
      let* buckets = map_result parse_cell cells in
      Ok (Latency { scope = dec_scope scope; name; count; sum; min_v; max_v; buckets })
  | "span" :: scope :: name :: start_ns :: dur_ns :: depth :: tags ->
      let* start_ns = int_tok "start_ns" start_ns in
      let* dur_ns = int_tok "dur_ns" dur_ns in
      let* depth = int_tok "depth" depth in
      let* tags = map_result parse_tag tags in
      Ok (Span { scope = dec_scope scope; name; start_ns; dur_ns; depth; tags })
  | kind :: _ -> Error (Printf.sprintf "unknown record kind %S" kind)
  | [] -> Error "empty record"

let parse lines =
  let lines = List.map String.trim lines |> List.filter (fun l -> l <> "") in
  match lines with
  | [] -> Error "empty metrics dump"
  | h :: rest ->
      if h <> header then Error (Printf.sprintf "bad header %S (want %S)" h header)
      else map_result parse_line rest

(* --- human-readable rendering ----------------------------------------- *)

let entry_scope = function
  | Counter { scope; _ } | Gauge { scope; _ } | Latency { scope; _ }
  | Span { scope; _ } ->
      scope

let histo_of_entry = function
  | Latency { count; sum; min_v; max_v; buckets; _ } ->
      Histo.of_buckets ~count ~sum ~min_v ~max_v buckets
  | _ -> Histo.create ()

let fmt_ns ns =
  if ns >= 1_000_000_000. then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1_000_000. then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1_000. then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let pretty entries =
  let scopes =
    List.fold_left
      (fun acc e ->
        let s = entry_scope e in
        if List.mem s acc then acc else acc @ [ s ])
      [] entries
  in
  let spans = List.filter (function Span _ -> true | _ -> false) entries in
  let lines = ref [] in
  let out l = lines := l :: !lines in
  List.iter
    (fun sc ->
      let mine =
        List.filter (fun e -> entry_scope e = sc) entries
        |> List.filter (function Span _ -> false | _ -> true)
      in
      if mine <> [] then begin
        out (Printf.sprintf "scope %s" (if sc = "" then "<global>" else sc));
        let cs =
          List.filter_map
            (function
              | Counter { name; value; _ } when value <> 0 ->
                  Some (Printf.sprintf "%s=%d" name value)
              | _ -> None)
            mine
        in
        if cs <> [] then out ("  counters: " ^ String.concat " " cs);
        let gs =
          List.filter_map
            (function
              | Gauge { name; value; _ } when value <> 0. ->
                  Some (Printf.sprintf "%s=%.6g" name value)
              | _ -> None)
            mine
        in
        if gs <> [] then out ("  gauges:   " ^ String.concat " " gs);
        List.iter
          (function
            | Latency { name; count; _ } as e ->
                let h = histo_of_entry e in
                out
                  (Printf.sprintf
                     "  %-18s count=%d mean=%s p50=%s p90=%s p99=%s max=%s" name
                     count
                     (fmt_ns (Histo.mean h))
                     (fmt_ns (Histo.quantile h 0.5))
                     (fmt_ns (Histo.quantile h 0.9))
                     (fmt_ns (Histo.quantile h 0.99))
                     (fmt_ns (float_of_int (Histo.max_value h))))
            | _ -> ())
          mine
      end)
    scopes;
  if spans <> [] then begin
    out (Printf.sprintf "spans (%d in ring, oldest first)" (List.length spans));
    List.iter
      (function
        | Span { scope; name; dur_ns; depth; tags; _ } ->
            let indent = String.make (2 * (depth + 1)) ' ' in
            let tags =
              tags
              |> List.map (fun (k, v) -> Printf.sprintf " %s=%.6g" k v)
              |> String.concat ""
            in
            out
              (Printf.sprintf "%s%s%s dur=%s%s" indent name
                 (if scope = "" then "" else " dataset=" ^ scope)
                 (fmt_ns (float_of_int dur_ns))
                 tags)
        | _ -> ())
      spans
  end;
  List.rev !lines

(* --- JSON rendering ---------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let to_json entries =
  let buf = Buffer.create 4096 in
  let scopes =
    List.fold_left
      (fun acc e ->
        match e with
        | Span _ -> acc
        | _ -> if List.mem (entry_scope e) acc then acc else acc @ [ entry_scope e ])
      [] entries
  in
  Buffer.add_string buf "{\"version\":1,\"scopes\":[";
  List.iteri
    (fun i sc ->
      if i > 0 then Buffer.add_char buf ',';
      let mine = List.filter (fun e -> entry_scope e = sc) entries in
      Buffer.add_string buf (Printf.sprintf "{\"scope\":\"%s\"" (json_escape sc));
      Buffer.add_string buf ",\"counters\":{";
      let first = ref true in
      List.iter
        (function
          | Counter { name; value; _ } ->
              if not !first then Buffer.add_char buf ',';
              first := false;
              Buffer.add_string buf
                (Printf.sprintf "\"%s\":%d" (json_escape name) value)
          | _ -> ())
        mine;
      Buffer.add_string buf "},\"gauges\":{";
      first := true;
      List.iter
        (function
          | Gauge { name; value; _ } ->
              if not !first then Buffer.add_char buf ',';
              first := false;
              Buffer.add_string buf
                (Printf.sprintf "\"%s\":%s" (json_escape name) (json_float value))
          | _ -> ())
        mine;
      Buffer.add_string buf "},\"latencies\":[";
      first := true;
      List.iter
        (function
          | Latency { name; count; sum; min_v; max_v; buckets; _ } as e ->
              if not !first then Buffer.add_char buf ',';
              first := false;
              let h = histo_of_entry e in
              Buffer.add_string buf
                (Printf.sprintf
                   "{\"name\":\"%s\",\"count\":%d,\"sum_ns\":%d,\"min_ns\":%d,\
                    \"max_ns\":%d,\"mean_ns\":%s,\"p50_ns\":%s,\"p90_ns\":%s,\
                    \"p99_ns\":%s,\"buckets\":[%s]}"
                   (json_escape name) count sum min_v max_v
                   (json_float (Histo.mean h))
                   (json_float (Histo.quantile h 0.5))
                   (json_float (Histo.quantile h 0.9))
                   (json_float (Histo.quantile h 0.99))
                   (buckets
                   |> List.map (fun (b, n) -> Printf.sprintf "[%d,%d]" b n)
                   |> String.concat ","))
          | _ -> ())
        mine;
      Buffer.add_string buf "]}")
    scopes;
  Buffer.add_string buf "],\"spans\":[";
  let first = ref true in
  List.iter
    (function
      | Span { scope; name; start_ns; dur_ns; depth; tags } ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"dataset\":\"%s\",\"start_ns\":%d,\
                \"dur_ns\":%d,\"depth\":%d,\"tags\":{%s}}"
               (json_escape name) (json_escape scope) start_ns dur_ns depth
               (tags
               |> List.map (fun (k, v) ->
                      Printf.sprintf "\"%s\":%s" (json_escape k) (json_float v))
               |> String.concat ","))
      | _ -> ())
    entries;
  Buffer.add_string buf "]}";
  Buffer.contents buf
