(** The named privacy-invariant rules.

    Token-level rules (R1, R4, R5, R6, R7, R9) run per file via {!run};
    the interface-coverage rule (R3) runs once over the scanned file set
    via {!r3}. Scoping is by path segment — e.g. R5/R6 only fire in
    [lib/engine], R7 in [lib/engine] and [lib/mechanism], R9 in
    [lib/certify] — see {!all} for the catalogue. Charge-before-release
    and gate-before-release are path properties, checked by flow's F2,
    which [dpkit lint] merges with these findings. *)

type ctx = {
  file : string;  (** path as reported, '/'-separated *)
  segs : string list;  (** [file] split on '/' *)
  tokens : Lexer.token array;
}

val all : (string * string) list
(** [(id, summary)] for every rule, in id order. *)

val run : ctx -> Report.finding list
(** All token-level rules on one file, in source order per rule. *)

val r3 : files:string list -> string list -> Report.finding list
(** [r3 ~files scanned]: findings for every [lib/**/*.ml] in [scanned]
    with no matching [.mli] in [files] (the full scanned set). *)
