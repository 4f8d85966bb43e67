(** The suspension points of group commit ({!Wal.group}): the one part
    of it that needs OCaml 5 effects. The build picks the implementation
    by compiler version. On OCaml 5 ([park_effects.ml.in]) a durable
    append parks its job until one fsync per log covers every parked
    frame. On OCaml 4.14 ([park_sequential.ml.in]) nothing parks: jobs
    run to completion in order and each durable append fsyncs inline,
    so there only loss-safe frames save fsyncs. *)

val durable :
  id:int -> sync:(unit -> (unit, string) result) -> (unit, string) result
(** Called by a durable append once its frame is written. Inside {!run}
    the job parks, and gets back the outcome of the round's one [sync]
    of log [id]. Outside {!run} it is [sync ()]. *)

val await : unit -> unit
(** Inside {!run}: park until the current round's syncs are done.
    Outside {!run} nothing can be parked, so there is nothing to wait
    for, and it raises [Invalid_argument]. *)

val run :
  depth:(unit -> int) ->
  set_depth:(int -> unit) ->
  more:(unit -> (unit -> unit) list) ->
  (unit -> unit) list ->
  unit
(** Run the jobs as {!Wal.group} describes. [depth]/[set_depth] read
    and restore the caller's span depth, which each job keeps across a
    park. *)
