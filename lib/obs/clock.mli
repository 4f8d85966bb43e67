(** Monotonic clock: [clock_gettime(CLOCK_MONOTONIC)] through a C stub.

    A wall-clock step (NTP slew, manual reset) never moves it, so span
    durations, histogram observations and request deadlines are always
    [>= 0] and keep their length across a step. Readings are
    comparable only within one boot of one machine; never journal
    them. *)

val now_ns : unit -> int
(** Current monotonic time in nanoseconds. *)

val now_s : unit -> float
(** [now_ns] in seconds: for deadlines and waits. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0] clamped to [>= 0]. *)
