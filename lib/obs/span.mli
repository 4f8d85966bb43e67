(** Lightweight span tracing with a ring-buffer trace store.

    [begin_] starts a span at the current nesting depth; [end_] stamps
    its duration ({!Clock} nanoseconds) and pushes it into a fixed-size
    ring, overwriting the oldest finished span. Tags are
    [Name.tag -> float] pairs, at most {!tag_budget} per span — keys are
    a closed enum and values are numeric, so spans cannot carry query
    payloads or released values. The [dataset] label must be a dataset
    id (lint rule R7). *)

type t
type handle

type span = {
  name : Name.span;
  dataset : string;
  start_ns : int;
  dur_ns : int;
  depth : int; (* nesting depth at begin_ time; 0 = top level *)
  tags : (Name.tag * float) list;
}

val default_capacity : int
val tag_budget : int

val create : ?capacity:int -> ?enabled:bool -> unit -> t

val begin_ : t -> ?dataset:string -> Name.span -> handle
(** Start a span. On a disabled tracer returns a dead handle; [tag] and
    [end_] on it are no-ops. *)

val tag : t -> handle -> Name.tag -> float -> unit
(** Attach a numeric tag; beyond the per-span budget the tag is dropped
    and counted in [dropped_tags]. *)

val end_ : t -> handle -> unit
(** Finish the span and store it in the ring. Calling [end_] twice on
    the same handle stores the span twice — don't. *)

val with_ : t -> ?dataset:string -> Name.span -> (unit -> 'a) -> 'a
(** [with_ t name f] wraps [f] in a span; the span is ended even if [f]
    raises. *)

val spans : t -> span list
(** Finished spans still in the ring, oldest first. *)

val total : t -> int
(** Spans ever finished (including overwritten ones). *)

val dropped : t -> int
(** Finished spans evicted by ring overwrite. *)

val dropped_tags : t -> int
val capacity : t -> int
val current_depth : t -> int

val set_depth : t -> int -> unit
(** Restore the nesting depth a suspended request had (see
    [Dp_engine.Wal.group]): requests that interleave keep their own
    depth. *)

val reset : t -> unit
