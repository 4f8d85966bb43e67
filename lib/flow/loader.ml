(* File discovery and parsing for the flow analyzer.

   Every .ml under the requested paths is parsed with the compiler's
   own frontend (compiler-libs), so the analyses downstream see the
   real AST — a helper function, a record field, or a rename that
   defeats the token linter's window heuristics is just another node
   here. .mli files are skipped: flow analyzes implementations. *)

type file = {
  path : string;  (** as reported in findings ('/'-separated) *)
  modname : string;  (** capitalized basename: foo_bar.ml -> Foo_bar *)
  segs : string list;  (** path segments, for subsystem scoping *)
  structure : Parsetree.structure;
  allows : (int * string) list;
      (** [flow:allow RULE] comment directives harvested by the lint
          lexer: (line, rule) suppressions *)
}

type t = {
  files : file list;
  errors : string list;  (** unparseable files, reported not analyzed *)
}

let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let modname_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Enumerate .ml files under a root (or accept a single .ml file),
   sorted for deterministic analysis and report order. *)
let scan_path root =
  let rec walk abs acc =
    match Sys.is_directory abs with
    | exception Sys_error _ -> acc
    | false -> if Filename.check_suffix abs ".ml" then abs :: acc else acc
    | true ->
        if List.mem (Filename.basename abs) skip_dirs then acc
        else
          Array.fold_left
            (fun acc entry -> walk (Filename.concat abs entry) acc)
            acc (Sys.readdir abs)
  in
  List.sort compare (walk root [])

let parse_file path =
  match Pparse.parse_implementation ~tool_name:"dpkit-flow" path with
  | structure ->
      let src = try Dp_lint.Driver.read_file path with Sys_error _ -> "" in
      let allows = (Dp_lint.Lexer.scan src).Dp_lint.Lexer.allows in
      Ok
        {
          path;
          modname = modname_of_path path;
          segs = String.split_on_char '/' path;
          structure;
          allows;
        }
  | exception e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
        | _ -> Printexc.to_string e
      in
      Error (Printf.sprintf "%s: parse error: %s" path (String.trim msg))

(* "./lib/x.ml" and "lib/x.ml" are the same finding site; keep
   reported paths in the latter, exemption-fragment-friendly form *)
let normalize path =
  let rec strip p =
    if String.length p > 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip path

let load paths =
  let mls = List.map normalize (List.concat_map scan_path paths) in
  let files, errors =
    List.fold_left
      (fun (fs, es) path ->
        match parse_file path with
        | Ok f -> (f :: fs, es)
        | Error msg -> (fs, msg :: es))
      ([], []) mls
  in
  { files = List.rev files; errors = List.rev errors }

let has_seg file s = List.mem s file.segs
