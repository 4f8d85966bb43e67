(** Snapshot exporters: machine dump lines, parser, pretty text, JSON.

    The line-oriented dump format (version header ["dpkit-metrics v1"])
    is the single wire format: the serving engine emits it and [dpkit
    stats] parses it back for rendering. Every name/tag token in a dump
    comes from the {!Name} catalogue; scopes are ["-"] (global) or
    dataset ids — the format has no field that could carry a query
    argument or a released value. *)

val header : string

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

val dump : ?trace:Span.t -> Metrics.t -> string list
(** Header line followed by one line per counter/gauge, per non-empty
    latency histogram, and (when [trace] is given) per ring-buffered
    span, oldest first. *)

val write : string -> string list -> (unit, string) result
(** Write a dump to a file, one line each; [Error] on an I/O failure. *)

val parse_line : string -> (entry, string) result

val parse : string list -> (entry list, string) result
(** Inverse of [dump]: checks the header, skips blank lines. *)

val histo_of_entry : entry -> Histo.t
(** The histogram a [Latency] entry records; empty for any other entry. *)

val pretty : entry list -> string list
(** Human-readable rendering grouped by scope, with quantile summaries
    (p50/p90/p99 via {!Histo.quantile}) for latency entries and an
    indented span listing. *)

val to_json : entry list -> string
(** Single-line JSON document:
    [{"version":1,"scopes":[{"scope":...,"counters":{...},
    "gauges":{...},"latencies":[...]}],"spans":[...]}]. *)
