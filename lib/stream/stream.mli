(** Streaming parameters and the shared static pricing spec.

    {!spec} prices a stream from its declared parameters alone — the
    live engine charges [spec.face] once when the stream opens, and
    [dpkit analyze] prices a [stream N=.. window=..] workload line
    through the same function, so static and live totals agree to the
    float bit. *)

open Dp_mechanism

type params = {
  epsilon : float;  (** per-level budget *)
  horizon : int;  (** N: declared maximum stream length *)
  window : int;  (** default sliding window; 0 = none declared *)
}

val keys : string list
(** Accepted option keys: [eps], [N], [window]. *)

val params_of_opts :
  default_epsilon:float ->
  Opts.t ->
  (params, string) result

val normalize : params -> string
(** Canonical query string, used as the journal/audit label. *)

val mechanism_name : string

type spec = {
  params : params;
  levels : int;  (** [Counter.levels ~horizon] *)
  sensitivity : float;  (** one node per level per record *)
  face : Privacy.budget;
      (** [epsilon * levels]: the whole-lifetime charge — appends and
          reads are then free *)
}

val spec : params -> (spec, string) result
