(** Multi-client TCP frontend for the line protocol — [dpkit serve --tcp]
    and every worker of [dpkit serve --workers N].

    A single-threaded [Unix.select] loop serves many concurrent
    connections, executing requests through {!Dp_engine.Protocol.exec}
    verbatim — the wire dialect, error taxonomy, and privacy behaviour
    are byte-identical to the stdio server; only the transport differs.
    On the wire each request line is answered by one {e reply frame}:
    the reply lines followed by a blank line, so a client can delimit
    multi-line replies without knowing the command grammar.

    Connections come from a {!source}: its own loopback listener, or
    a control descriptor over which the worker pool passes accepted
    ones. Both get the same loop, bounds, deadlines and fault points.

    {2 Robustness properties}

    - {b Bounded memory per connection}: request lines are reassembled
      by {!Linebuf}, which holds at most [max_line_bytes + 1] bytes per
      connection however a peer fragments an oversized line.
    - {b Slow-loris defense}: the idle clock restarts only on a
      {e completed} request line or a fully flushed reply, never on raw
      bytes, so dribbling a never-terminated line is indistinguishable
      from silence and the connection is closed at the idle timeout.
    - {b Per-request deadline}: a reply not flushed within
      [reply_deadline_s] of {e its own} request's arrival closes the
      connection. The loop never sleeps while a queued request can run.
    - {b Admission control}: past [max_conns] connections or
      [max_inflight] queued work items, new arrivals are shed with
      [err overloaded retry-after=MS]. The shed decision and the hint
      are computed from queue depth {e only} — never ledger or budget
      state — so being shed reveals nothing about spent ε. A shed
      line's reply waits its turn in the connection's queue, so replies
      stay in request order; it does not count as queued work.
    - {b Backpressure}: a connection whose queued lines plus unflushed
      reply reach [max_inflight] is not read until they drain,
      so a peer that pipelines without reading holds bounded memory.
    - {b Group commit}: each loop turn runs the head request of every
      ready connection (at most one per connection, so replies keep
      request order) as one {!Dp_engine.Wal.group}: requests parked at
      a durable journal append, plus any that arrive meanwhile, share
      one fsync, and a reply is queued only once its request has
      finished — never before the fsync that covers its charge.
    - {b Graceful drain}: {!request_stop} (called from SIGTERM/SIGINT
      handlers) makes {!run} stop accepting and reading, finish every
      queued request, flush every reply, close all connections, and
      return — after which the caller snapshots metrics and closes the
      engine (fsyncing the journal).
    - {b Fault points}: [accept-fail], [read-stall], [write-drop] and
      [conn-reset] ({!Dp_engine.Faults}) are honoured at the matching
      spots, so the chaos harness can tear connections mid-reply and
      assert that clients retry to a consistent, never-double-released
      outcome. *)

type config = {
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backlog : int;
  max_conns : int;  (** accept-time admission bound *)
  max_inflight : int;  (** queued requests + unflushed replies bound *)
  max_append_inflight : int;
      (** lower shed watermark for [append] lines: a journal-fsync-heavy
          append flood is shed before it can starve interactive queries
          (decision is first-token syntax + queue depth, never budget) *)
  idle_timeout_s : float;
  reply_deadline_s : float;  (** request queued to reply flushed *)
  retry_after_base_ms : int;  (** scales the depth-based retry hint *)
}

val default_config : config
(** Ephemeral port, 64 conns, 128 inflight (32 for appends), 30s idle,
    10s deadline, 50ms retry-after base. *)

type t

type source =
  | Listen  (** bind with {!listen} on [config.port] *)
  | Control of Unix.file_descr * (t -> readable:bool -> unit)
      (** no listener: [hook t ~readable] runs after every [select]
          ([readable] when [fd] is ready); it {!adopt}s connections *)

val listen : config -> (Unix.file_descr * int, string) result
(** A non-blocking loopback listener and the port it bound. *)

val create :
  ?config:config ->
  ?source:source ->
  ?exec:(string -> string list) ->
  Dp_engine.Engine.t ->
  (t, string) result
(** [exec] (default {!Dp_engine.Protocol.exec}) answers a line within
    the size cap. The engine's fault plan and metric registry are
    picked up from the engine itself. *)

val adopt : t -> Unix.file_descr -> unit
(** Serve an accepted connection, subject to [max_conns]; closed at
    once after {!request_stop}. *)

val port : t -> int
(** The bound port ([config.port] for a {!Control} source). *)

val run : t -> unit
(** Serve until {!request_stop} and the subsequent drain complete.
    Only an injected {!Dp_engine.Faults.Crash} escapes — everything
    else is a typed reply line to the client. *)

val request_stop : t -> unit
(** Begin graceful drain; safe to call from a signal handler (it only
    sets a flag — the select loop notices on its next turn, including
    via [EINTR]). *)

val conn_count : t -> int
