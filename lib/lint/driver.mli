(** Walking, lexing and rule dispatch — the engine of [dpkit lint]. *)

val read_file : string -> string
(** The whole file. The channel is closed on every path, also when the
    read raises. @raise Sys_error when it cannot be opened or read. *)

val scan_dir : string -> string list
(** All [.ml]/[.mli] files under a directory (skipping [_build],
    [.git], …), as sorted '/'-separated paths relative to it. *)

val lint :
  ?exempt:Config.t -> root:string -> string list -> Report.finding list
(** Lint the given root-relative files: token rules per file (with
    [lint:allow] comment suppressions applied), R3 over the whole set,
    then {!Config} exemptions, sorted by file/line/rule. *)

val lint_dir : ?exempt:Config.t -> string -> Report.finding list
(** [lint ~root (scan_dir root)]. *)
