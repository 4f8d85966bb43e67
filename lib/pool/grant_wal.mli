(** The coordinator's grant write-ahead log.

    Charge-before-grant, one level up from the engine journal: every
    lease grant, worker incarnation, and reclaim is framed, written and
    fsynced {e before} the worker (or supervisor) acts on it, so a
    coordinator crash at any point leaves a log from which the exact
    outstanding-lease state is rebuilt. Records carry absolute values —
    cumulative leased ε per incarnation, absolute reclaimed spend per
    shard — so replay is idempotent and a re-sent grant after a dropped
    ack changes nothing.

    The log itself is the engine's {!Dp_engine.Wal}, the one the budget
    journal uses: the same frame format, the same torn-tail repair on
    open, and the same append policy — bounded retries at the
    [journal-write]/[journal-fsync] fault points, a poisoned log when a
    failed write cannot be cut back, and a kept frame plus an error when
    the fsync fails. *)

type record =
  | Dataset of { name : string; eps : float; line : string }
      (** a dataset admitted to arbitration: [eps] is its global
          budget, [line] the full register command re-broadcast to
          restarted workers *)
  | Incarnation of { shard : int; token : int }
      (** a fencing token issued to a (re)started worker — durable
          before the fork, so tokens never repeat across coordinator
          lives *)
  | Grant of {
      shard : int;
      token : int;
      dataset : string;
      leased : float;  (** cumulative ε allowance after this grant *)
      deadline : float;
    }
  | Reclaim of { shard : int; token : int; dataset : string; spent : float }
      (** a dead incarnation folded back: [spent] is the absolute
          face-ε sum replayed from its shard journal *)

type t

val open_ :
  ?faults:Dp_engine.Faults.t -> string -> (t * record list * int, string) result
(** Open (or create) for appending; returns existing records and the
    torn-tail byte count truncated off. Creation fsyncs the parent
    directory. [faults] (default none) arms the append's
    [journal-write]/[journal-fsync] points; no [journal_*] metric
    moves, since the coordinator has no engine registry. *)

val load : string -> (record list * int, string) result
(** Read-only scan (no truncation); a missing file is an empty log. *)

val append : t -> record -> (unit, string) result
(** Frame, write and fsync one record ({!Dp_engine.Wal.append}). On
    [Error] the caller must treat the record as not made — withhold the
    grant and roll the lease back (the worker times out and retries) —
    even though a frame whose fsync failed stays in the file: if it
    later proves durable, replay only over-states the outstanding
    lease. *)

val path : t -> string
val close : t -> unit
