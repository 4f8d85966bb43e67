(** Request options: the one [key=value] reader.

    The serve protocol's commands ([register], [query], [train],
    [stream new], [stream window]) and the analyzer's schema and
    workload files all read their options here, so a line means the
    same thing on the wire and in a file. Errors are plain messages;
    the protocol prefixes [err bad-argument] at its reply boundary. *)

type t = (string * string option) list
(** Parsed options in input order; a bare word is a flag ([None]). *)

val parse : known:string list -> string list -> (t, string) result
(** Strict: an unknown or repeated key is an error, so a garbage line
    is never half-parsed into a valid request. *)

val find : string -> t -> string option
(** The value of [key=value]; [None] when absent or a bare flag. *)

val flag : string -> t -> bool
(** Whether the bare word is present. *)

val float_opt : string -> t -> (float option, string) result
(** A finite float; [None] when absent. *)

val float : string -> default:float -> t -> (float, string) result

val int : string -> default:int -> t -> (int, string) result
