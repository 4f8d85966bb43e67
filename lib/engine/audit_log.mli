(** Structured audit log: one record per charge or refusal, one counter
    per cache key.

    Records carry both the face-value request and the *marginal*
    composed charge (how much the ledger's spent budget actually grew),
    so the trace telescopes and [Dp_audit.Replay] can re-verify the
    accounting under any composition backend.

    A cache hit is post-processing of a release that was already
    charged: it adds no privacy loss and nothing to replay. So a hit
    does not keep a record; it bumps the hit counter of its (dataset,
    query, requested budget) key. The log grows with the charges it has
    to replay, not with the number of requests it serves. Every
    decision, hit or not, still takes the next [seq]. *)

open Dp_mechanism

type verdict =
  | Answered
  | Rejected of string
  | Charged_unreleased of string
      (** the ledger committed the charge but the answer was withheld
          (journal or RNG failure on the release path): budget spent,
          nothing released — the over-counting side of
          charge-before-answer ordering *)

type record = {
  seq : int;  (** global decision number, starting at 0 *)
  analyst : string option;
  dataset : string;
  query : string;  (** normal form *)
  mechanism : string option;  (** [None] when planning failed *)
  requested : Privacy.budget;  (** face value of the release *)
  charged : Privacy.budget;  (** marginal ledger increase; zero on
                                 rejections *)
  verdict : verdict;
}

(** The cache hits of one key of one dataset. *)
type hits = private {
  query : string;  (** normal form *)
  mechanism : string;
  requested : Privacy.budget;  (** face value of the cached release *)
  mutable count : int;
  first : int;  (** [seq] of the first hit *)
  mutable last : int;  (** [seq] of the latest hit *)
}

type t

val create : unit -> t

val append :
  t ->
  ?analyst:string ->
  ?mechanism:string ->
  dataset:string ->
  query:string ->
  requested:Privacy.budget ->
  charged:Privacy.budget ->
  verdict:verdict ->
  unit ->
  record

val hit :
  t ->
  mechanism:string ->
  dataset:string ->
  query:string ->
  requested:Privacy.budget ->
  int
(** Count one cache hit and return its [seq]. Allocates only on the
    first hit of a key. *)

val for_dataset : t -> string -> record list
(** In decision order; O(the dataset's records). *)

val hits : t -> string -> hits list
(** The dataset's hit counters, in first-hit order. *)

val to_events : t -> string -> Dp_audit.Replay.event list
(** The charged-release trace of one dataset, ready for
    [Dp_audit.Replay.replay]. *)

val pp_record : Format.formatter -> record -> unit
val pp_hits : Format.formatter -> hits -> unit
