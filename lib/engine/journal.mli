(** The write-ahead budget journal.

    The one invariant a DP server must never lose is the spent budget:
    a crash that forgets charged ε hands an adversary fresh budget
    (exactly the attack that makes the mutual-information reading of DP
    vacuous). The journal makes the ledger durable with the classic WAL
    discipline, specialised to the charge-before-answer ordering:

    - every state change (dataset registration, budget charge, cache
      insert) is appended as one length-prefixed, Adler-32-checksummed
      record; every record that authorizes a release is fsynced
      {e before} the noisy answer is released (a cache record is not:
      losing it only re-charges a repeat);
    - recovery replays the journal into a fresh engine, truncating a
      torn tail record (a crash mid-write) at the last valid frame;
    - because the charge is durable before the answer exists, a crash
      at any point can only {e over}-count spent ε, never under-count:
      replayed spend ≥ spend at the crash point, always.

    Charge records carry both the face-value budget (with the RDP curve
    evaluated on the ledger's α-grid, so Rényi accounting reconstructs
    exactly) and the marginal composed charge (so the rebuilt trace can
    be re-verified through [Dp_audit.Replay]). Cache records carry the
    full noisy answer in hex-float encoding, so recovered cache hits
    replay bit-identically.

    The frame format, the torn-tail scan and the append path (retry,
    cut-back, poisoning, fsync) are {!Wal}'s; this module is the
    engine's record types and their codec. *)

open Dp_mechanism

type charge_record = {
  dataset : string;
  analyst : string option;
  query : string;  (** normal form, for the rebuilt audit log *)
  mechanism : string;
  face : Privacy.budget;  (** face value the ledger was asked for *)
  marginal : Privacy.budget;  (** composed-spend increase it caused *)
  rho : float array option;
      (** the charge's RDP curve evaluated on {!Ledger.alpha_grid};
          [None] for pure-DP charges (recomputed from [face] on
          replay) *)
}

type cache_record = {
  dataset : string;
  key : string;
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;
}

type train_record = {
  dataset : string;
  handle : string;  (** durable model handle, e.g. [demo/m1] *)
  backend : string;  (** {!Dp_train.Train.backend_name} *)
  epsilon : float;  (** per-chain face ε as requested *)
  chains : int;
  steps : int;
  beta : float;  (** Gibbs inverse temperature; [0.] for objpert *)
  face : Privacy.budget;  (** total ledger charge (display metadata;
      the authoritative charge is the paired [Charge] record) *)
  target : string;
  features : (string * float * float) array;
      (** name, lo, hi — the public scaling facts prediction needs *)
  theta : float array option;
      (** hex-float encoded, so a recovered model predicts
          bit-identically; [None] iff the gate withheld the release *)
  rhat : float array;  (** per-coordinate split-R̂ (empty: deterministic) *)
  ess : float array;
  acceptance : float;
}

type stream_open_record = {
  dataset : string;
  handle : string;  (** durable stream handle, e.g. [demo/s1] *)
  epsilon : float;  (** per-level budget *)
  horizon : int;
  window : int;  (** declared default sliding window; 0 = none *)
}

type stream_append_record = {
  dataset : string;
  handle : string;
  bit : int;
  nodes : float array;
      (** noisy values of the tree nodes closing at this step, lowest
          level first, hex-float encoded: replay rebuilds the tree
          bit-identically without consuming any PRNG draws *)
}

type record =
  | Register of {
      name : string;
      rows : int;
      seed : int;  (** dataset seed: regenerates identical columns *)
      policy : Registry.policy;
    }
  | Charge of charge_record
  | Cache_insert of cache_record
  | Withheld of { dataset : string; reason : string; frames : int list }
      (** outcome marker for a live refusal after frames were already
          written: [frames] are the 0-based ordinals (see {!frames}) of
          the frames whose effect the live engine refused. A named
          [Charge] was withheld (journal, RNG or gate failure after the
          ledger committed), so recovery rebuilds it as
          charged-unreleased; any other named frame ([Register],
          [Train], [Stream_open], [Stream_append]) is skipped, since
          the live engine never applied it. Markers are appended
          best-effort and loss-safe ([~sync:false]): losing one only
          makes recovery over-count [answered] or keep a refused
          frame, never lose a charge. Encoded with tag ['M']; a legacy
          ['W'] marker decodes with [frames = []] and pairs with the
          [Charge] directly before it. *)
  | Train of train_record
      (** a completed training run — released or withheld — appended
          after its [Charge] (and, when unconverged, after the
          [Withheld] marker). Recovery rebuilds the model store from
          these in journal order, so handle names are stable and a
          restarted server resolves [predict]/[model] queries
          bit-identically. *)
  | Stream_open of stream_open_record
      (** a stream handle becoming resolvable, appended after the
          [Charge] that paid its whole-lifetime face — the handle
          exists iff this frame is durable, like model handles. *)
  | Stream_append of stream_append_record
      (** one accepted append, fsynced {e before} the tree mutates:
          the closing nodes' noise is durable before any read can
          release it, so a kill -9 at any point leaves the recovered
          stream releasing exactly the counts the live one did. *)

type stats = {
  records : int;  (** valid records replayed *)
  torn_bytes : int;  (** trailing bytes dropped (torn tail) *)
}

type t

val open_ :
  ?faults:Faults.t ->
  ?obs:Dp_obs.Metrics.scope ->
  ?jitter:Dp_rng.Prng.t ->
  string ->
  (t * record list * stats, string) result
(** {!Wal.open_}: open (or create) a journal for appending, returning
    the records to replay; a torn tail is truncated off. The engine
    passes its global scope as [obs] and its retry stream as [jitter].
    [Error] means the file could not be opened or repaired at all. *)

val append :
  ?sync:bool ->
  t ->
  record ->
  (unit, [ `Transient of string | `Fatal of string ]) result
(** {!Wal.append}: frame, write and (unless [~sync:false]) fsync one
    record. [`Transient]: the record is not durable; the caller may
    retry the whole operation later. [`Fatal]: the journal is poisoned
    (the engine then degrades to serving cache hits only). Only
    [Cache_insert] and [Withheld] are appended with [~sync:false]. *)

val frames : t -> int
(** {!Wal.frames}: the ordinal the next written frame gets. *)

val path : t -> string
val close : t -> unit

val load : string -> (record list * stats, string) result
(** Read-only scan (no truncation, no side effects) — what recovery
    would replay. A missing file is an empty journal. *)
