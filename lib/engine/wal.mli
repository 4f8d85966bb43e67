(** The one durable, framed, append-only log.

    Both write-ahead logs of the server — the engine's budget
    {!Journal} and the worker pool's grant WAL — are this log with a
    different record type. It owns everything that makes a record
    durable; the two users supply only a {!codec}.

    Wire format, one frame:
    {v
    4-byte big-endian payload length
    4-byte big-endian Adler-32 of the payload
    payload
    v}
    A payload is a one-byte record tag followed by fields written with
    the [put_*] primitives: ints and hex floats ([%h] round-trips every
    finite float exactly) terminated by [';'], strings length-prefixed.

    Reading keeps the longest valid frame prefix: a short header, a
    length past the end of the file or over 16 MiB, a checksum
    mismatch, or a payload the codec rejects starts the torn tail.
    Opening truncates that tail off the file, so the next append lands
    on a clean frame boundary.

    Append policy, the same for every log:
    - the frame is written with bounded retry ({!Faults.with_retries},
      fault point {!Faults.Journal_write}); a retry first cuts the file
      back to the last clean frame, so a partial write never precedes
      the next frame;
    - if every attempt fails, the file is cut back once more and the
      append returns [`Transient]; if even that cut fails, the log is
      {e poisoned}: this and every later append returns [`Fatal];
    - a written frame is fsynced with the same retry (fault point
      {!Faults.Journal_fsync}). If the fsync still fails, the frame is
      kept and [`Transient] is returned: the caller withholds whatever
      the record was to authorize, or rolls it back, and may retry. A
      kept frame that later proves durable can only over-state what was
      spent or granted, never under-state it. *)

(** {1 Payload encoding} *)

val put_int : Buffer.t -> int -> unit
val put_float : Buffer.t -> float -> unit
val put_bool : Buffer.t -> bool -> unit
val put_str : Buffer.t -> string -> unit
val put_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val put_farr : Buffer.t -> float array -> unit

exception Corrupt
(** Raised by the [get_*] primitives and by a codec's [decode] on a
    malformed payload; the reader treats that frame as the torn tail. *)

type cursor
(** Read position in one payload. *)

val get_char : cursor -> char
val get_int : cursor -> int
val get_float : cursor -> float
val get_bool : cursor -> bool
val get_str : cursor -> string
val get_opt : (cursor -> 'a) -> cursor -> 'a option
val get_farr : cursor -> float array

type 'r codec = {
  label : string;  (** names the log in error messages *)
  encode : Buffer.t -> 'r -> unit;
  decode : cursor -> 'r;
      (** must consume the whole payload; trailing bytes are [Corrupt] *)
}

(** {1 Files} *)

val read_file : string -> (string, string) result
(** The whole file, or the [Sys_error] message (a missing file is an
    error here, unlike in {!load}). *)

val load : 'r codec -> string -> ('r list * int, string) result
(** Read-only scan (no truncation, no side effects): the valid records
    and the torn-tail byte count. A missing file is an empty log. *)

type 'r t

val open_ :
  ?faults:Faults.t ->
  ?obs:Dp_obs.Metrics.scope ->
  ?jitter:Dp_rng.Prng.t ->
  'r codec ->
  string ->
  ('r t * 'r list * int, string) result
(** Open (or create) for appending; returns the existing records and
    the torn-tail byte count truncated off. Creating the file also
    fsyncs its parent directory, so a crash right after creation cannot
    lose the directory entry (a missing log reads as an empty one).
    [faults] (default {!Faults.none}) arms the append's fault points.
    [obs] (default {!Dp_obs.Metrics.null}) receives the [journal_*]
    append/fsync/retry counters and latencies. [jitter], a non-privacy
    stream (see {!Faults.backoff_delay}), adds full jitter to the retry
    backoff. *)

val append : 'r t -> 'r -> (unit, [ `Transient of string | `Fatal of string ]) result
(** Frame, write and fsync one record under the append policy above. *)

val path : 'r t -> string
val close : 'r t -> unit
