(** The dataset registry: named datasets, each with bounded numeric
    columns and a per-dataset privacy policy.

    Column bounds are declared at registration and values are clamped
    into them, so every planner sensitivity derived from [lo, hi] is a
    true global sensitivity (the clamping is the standard bounded-range
    preprocessing, as in [Dp_dataset.Dataset.clip_rows_l2]). The row
    count and the policy are treated as public metadata. *)

open Dp_mechanism

type column = { name : string; values : float array; lo : float; hi : float }

type policy = {
  total : Privacy.budget;  (** lifetime (ε, δ) budget of the dataset *)
  backend : Ledger.backend;
  default_epsilon : float;  (** per-query ε when the query names none *)
  analyst_epsilon : float option;  (** per-analyst sub-budget cap *)
  universe : int;
      (** distinguishable values per record, for the Alvim et al.
          min-entropy leakage bound reported by the meter *)
  cache : bool;  (** answer identical repeated queries from cache *)
  low_water : float;
      (** graceful-degradation threshold: when remaining global ε drops
          below it, the engine serves cache hits only instead of
          hard-failing mid-analysis; [0.] disables *)
}

val default_policy : total:Privacy.budget -> policy
(** Basic composition, default ε = 0.1 per query, no analyst caps,
    universe 64, cache on, no low-water mark. *)

type dataset = {
  name : string;
  columns : column array;
  rows : int;
  policy : policy;
}

val dataset :
  name:string -> policy:policy -> columns:column list -> dataset
(** Validates and clamps. @raise Invalid_argument on an empty name or
    column set, empty/ragged columns, duplicate column names,
    [lo >= hi], or a non-positive [default_epsilon]. *)

val column : dataset -> string -> column option

(** {2 Schemas}

    A schema is the data-independent skeleton of a dataset: column
    names and bounds, the public row count, and the policy — but no
    values. Everything the planner needs to select a mechanism and
    price a query lives here, which is what makes the static workload
    analyzer ({!Dp_engine.Analyzer}) possible: privacy cost is a
    property of the plans, not of any execution. *)

type col_schema = { col : string; lo : float; hi : float }

type schema = {
  name : string;
  cols : col_schema array;
  rows : int;
  policy : policy;
}

val schema :
  name:string -> rows:int -> policy:policy -> col_schema list ->
  (schema, string) result
(** Validates without clamping anything (there is no data): non-empty
    name and column set, positive rows, unique column names, [lo < hi],
    positive [default_epsilon]. *)

val schema_of : dataset -> schema
(** Project a registered dataset onto its schema, dropping the values.
    Planning against [schema_of ds] charges exactly what planning
    against [ds] charges. *)

val schema_column : schema -> string -> col_schema option

val neighbor_flip : string -> (string * int) option
(** Parse the neighbour-naming convention: ["BASE~flipN"] is [Some
    ("BASE", N)], anything else [None]. A dataset registered under such
    a name is the canonical neighbour of [BASE] — see {!synthetic}. *)

val synthetic :
  name:string -> rows:int -> policy:policy -> Dp_rng.Prng.t -> dataset
(** A deterministic (given the generator) demo dataset with columns
    [age] ∈ [18,80], [income] ∈ [0,200000] (bimodal), and [score]
    ∈ [−4,4] (standard normal, clamped).

    When [name] matches the ["BASE~flipN"] convention the generator
    stream is used exactly as for [BASE] and row [N] is then pushed to
    the opposite column bound in every column, producing a dataset that
    differs from [BASE] (generated from the same stream) in exactly one
    record. The certification harness registers such pairs on a live
    server; because the flip is a pure function of the (name, seed)
    pair, journal recovery regenerates the neighbour byte-for-byte with
    no journal format change.
    @raise Invalid_argument when [rows <= 0] or the flip row is out of
    range. *)

type t

val create : unit -> t
val register : t -> dataset -> (unit, string) result
val find : t -> string -> dataset option

val names : t -> string list
