(** Metric registry: counters, gauges, and latency histograms, grouped
    into scopes.

    Scope [""] is the process/engine-global scope; every other scope
    label must be a dataset id from the registry. Metric names are the
    closed enums of {!Name} — there is no way to export a name that is
    not in the catalogue. Record operations ([incr]/[add]/[observe]/
    [set_gauge]) are allocation-free and no-ops on a disabled registry. *)

type t
type scope

val create : ?enabled:bool -> unit -> t
(** New registry; [~enabled:false] makes every scope it hands out a
    no-op sink (for overhead-gate baselines). Default enabled. *)

val enabled : t -> bool

val global : t -> scope
(** The ["" ] scope. *)

val dataset : t -> string -> scope
(** Get-or-create the scope for a dataset id. Call once per dataset at
    registration time, not on the hot path. The label MUST be a dataset
    id — never a string derived from a query payload or a released
    value (lint rule R7). *)

val scope : t -> string -> scope
(** Alias of {!dataset}; same labelling contract. *)

val null : scope
(** A permanently-disabled sink scope for instrumented code with no
    registry attached; all records are dropped. *)

val scopes : t -> scope list
(** Global scope first, then dataset scopes in creation order. *)

val label : scope -> string
val live : scope -> bool

val incr : scope -> Name.counter -> unit
val add : scope -> Name.counter -> int -> unit
val set_counter : scope -> Name.counter -> int -> unit
(** [set_counter] overwrites; used to mirror authoritative engine state
    (e.g. answered counts restored by journal recovery) into the
    exported snapshot. *)

val count : scope -> Name.counter -> int
val set_gauge : scope -> Name.gauge -> float -> unit
val gauge : scope -> Name.gauge -> float
val observe : scope -> Name.latency -> int -> unit
(** [observe s l ns] records a latency observation in nanoseconds.
    Allocation-free. *)

val latency : scope -> Name.latency -> Histo.t

val set_latency : scope -> Name.latency -> Histo.t -> unit
(** Overwrites, like [set_counter]; used to mirror a merged snapshot. *)

val reset : t -> unit
