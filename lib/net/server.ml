open Dp_engine

type config = {
  port : int;
  backlog : int;
  max_conns : int;
  max_inflight : int;
  max_append_inflight : int;
  idle_timeout_s : float;
  reply_deadline_s : float;
  retry_after_base_ms : int;
}

let default_config =
  {
    port = 0;
    backlog = 64;
    max_conns = 64;
    max_inflight = 128;
    max_append_inflight = 32;
    idle_timeout_s = 30.;
    reply_deadline_s = 10.;
    retry_after_base_ms = 50;
  }

(* A queued line: a request to execute, or the reply to a line shed at
   admission. A shed reply waits its turn in the queue, so a pipelining
   client gets its replies in request order. *)
type item = Request of Linebuf.line | Shed of string

(* One connection's whole state machine: bounded line reassembly in,
   queued lines (each with its arrival time), one reply frame at a
   time out. [out]/[out_pos] is the unflushed reply; a conn with a
   non-empty [out] counts toward the admission depth (its reply
   occupies the pipeline until the client drains it), and so does each
   queued [Request] ([admitted] of them) — a queued shed reply does
   not. *)
type conn = {
  fd : Unix.file_descr;
  lb : Linebuf.t;
  requests : (item * float) Queue.t;
  mutable admitted : int;  (** the [Request] items in [requests] *)
  mutable out : Bytes.t;
  mutable out_pos : int;
  mutable out_deadline : float;  (** absolute, for the oldest frame in [out] *)
  mutable close_after_flush : bool;
  mutable eof : bool;
  mutable closed : bool;
  mutable last_active : float;
      (** last completed request line or flushed reply; never raw bytes *)
  mutable req_start_ns : int;  (** 0 = no request being served *)
  accept_ns : int;
  mutable replied : bool;  (** first reply fully flushed *)
}

type t = {
  cfg : config;
  exec : string -> string list;
  source : source;
  mutable listener : Unix.file_descr option;  (** [Listen]'s, until drain *)
  port : int;
  scope : Dp_obs.Metrics.scope;
  trace : Dp_obs.Span.t;
  faults : Faults.t;
  mutable conns : conn list;
  mutable stopping : bool;
}

and source = Listen | Control of Unix.file_descr * (t -> readable:bool -> unit)

let listen (config : config) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
    Unix.listen fd config.backlog;
    Unix.set_nonblock fd;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  with
  | port -> Ok (fd, port)
  | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let create ?(config = default_config) ?(source = Listen) ?exec eng =
  let make listener port =
    {
      cfg = config;
      exec = Option.value exec ~default:(Protocol.exec eng);
      source;
      listener;
      port;
      scope = Dp_obs.Metrics.global (Engine.metrics eng);
      trace = Engine.trace eng;
      faults = Engine.faults eng;
      conns = [];
      stopping = false;
    }
  in
  match source with
  | Listen -> Result.map (fun (fd, port) -> make (Some fd) port) (listen config)
  | Control _ -> Ok (make None config.port)

let port t = t.port
let conn_count t = List.length t.conns
let request_stop t = t.stopping <- true

let has_output c = c.out_pos < Bytes.length c.out

(* A conn the exec phase would serve right now: a request is queued,
   the previous reply is fully flushed, and no request of this conn is
   parked in the running group commit. *)
let runnable c =
  (not c.closed) && (not (has_output c)) && c.req_start_ns = 0
  && not (Queue.is_empty c.requests)

(* Admission depth: requests waiting to execute plus replies waiting to
   flush. This is the ONLY input to the shed decision and the
   retry-after hint — never ledger or budget state, so being shed
   reveals nothing about spent epsilon (rejection is otherwise a side
   channel: "overloaded" must not be a euphemism for "budget low"). *)
let depth t =
  List.fold_left
    (fun acc c ->
      if c.closed then acc
      else
        acc + c.admitted
        + (if has_output c || c.req_start_ns > 0 then 1 else 0))
    0 t.conns

let retry_after_ms t =
  min 60_000 (t.cfg.retry_after_base_ms * (1 + depth t))

let overloaded_line t =
  Printf.sprintf "err overloaded retry-after=%d" (retry_after_ms t)

(* Write one reply frame into a flushed [out]: the reply lines, then the
   blank-line terminator that lets the client know the frame is
   complete. A frame only goes out once the previous one is flushed, so
   unflushed output is never copied. *)
let queue_frame ?(terminated = true) c ~deadline lines =
  let b = Buffer.create 256 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  if terminated then Buffer.add_char b '\n';
  c.out <- Buffer.to_bytes b;
  c.out_pos <- 0;
  c.out_deadline <- deadline

let close_conn t reason c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    match reason with
    | `Normal -> ()
    | `Deadline -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_deadline_closed
    | `Drain -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_drained
  end

let mk_conn fd =
  {
    fd;
    lb = Linebuf.create ();
    requests = Queue.create ();
    admitted = 0;
    out = Bytes.empty;
    out_pos = 0;
    out_deadline = 0.;
    close_after_flush = false;
    eof = false;
    closed = false;
    last_active = Dp_obs.Clock.now_s ();
    req_start_ns = 0;
    accept_ns = Dp_obs.Clock.now_ns ();
    replied = false;
  }

let adopt t fd =
  if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    Unix.set_nonblock fd;
    (* without it a reply written while the previous one is still
       unacknowledged waits behind Nagle for the peer's delayed ACK;
       a non-TCP fd (a socketpair) has no such option *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    let c = mk_conn fd in
    if List.length t.conns >= t.cfg.max_conns then begin
      (* shed at the door, but with a typed reply: the client learns
         it was load, not its request, and when to come back *)
      Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_shed;
      c.eof <- true;
      c.close_after_flush <- true;
      queue_frame c ~deadline:(Dp_obs.Clock.now_s () +. t.cfg.reply_deadline_s)
        [ overloaded_line t ]
    end
    else Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_accepted;
    t.conns <- c :: t.conns
  end

let accept_phase t listener =
  if Faults.fire t.faults Faults.Accept_fail then
    (* the connection stays in the kernel backlog for a later turn *)
    ()
  else
    match Unix.accept listener with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
      ->
        ()
    | fd, _ -> adopt t fd

(* Append floods shed at a lower watermark than everything else: each
   append costs a journal fsync, so a firehose of them would occupy the
   whole pipeline and starve interactive queries long before the global
   bound trips. The test is purely syntactic (first token) plus queue
   depth — still never ledger or budget state. *)
let is_append_line text =
  let t = String.trim text in
  t = "append"
  || String.length t > 6
     && String.sub t 0 7 = "append "

let handle_line t c (l : Linebuf.line) =
  let now = Dp_obs.Clock.now_s () in
  c.last_active <- now;
  let bound =
    if is_append_line l.Linebuf.text then
      min t.cfg.max_append_inflight t.cfg.max_inflight
    else t.cfg.max_inflight
  in
  if depth t >= bound then begin
    Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_requests_shed;
    Queue.push (Shed (overloaded_line t), now) c.requests
  end
  else begin
    c.admitted <- c.admitted + 1;
    Queue.push (Request l, now) c.requests
  end

let read_buf = Bytes.create 4096

(* Backpressure: a conn whose queued lines plus unflushed reply reach
   [max_inflight] is not read until they drain, so a client that
   pipelines without reading its replies holds a bounded amount of
   server memory (one read's worth of lines past the bound). *)
let reading t c =
  (not (c.eof || t.stopping))
  && Queue.length c.requests + (if has_output c then 1 else 0)
     < t.cfg.max_inflight

let read_phase t c =
  if c.closed || c.eof then ()
  else if Faults.fire t.faults Faults.Read_stall then
    (* drop this readiness notification; the data waits in the socket *)
    ()
  else
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 ->
        c.eof <- true;
        (* a half-closed peer still gets the reply of a request that is
           parked in the running group commit ([req_start_ns] > 0):
           [write_phase] closes once it is flushed *)
        if
          Queue.is_empty c.requests
          && (not (has_output c))
          && c.req_start_ns = 0
        then close_conn t `Normal c
    | n -> List.iter (handle_line t c) (Linebuf.feed c.lb read_buf 0 n)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn t `Normal c

(* Run one conn's head request — called only when it is [runnable],
   so the previous reply frame is fully flushed and the reply order on
   a connection is the request order. A shed reply is already formed
   and takes its turn like a request. *)
let exec_request t c =
  match Queue.pop c.requests with
  | Shed line, arrived ->
      queue_frame c ~deadline:(arrived +. t.cfg.reply_deadline_s) [ line ]
  | Request l, arrived ->
      c.admitted <- c.admitted - 1;
      let deadline = arrived +. t.cfg.reply_deadline_s in
      c.req_start_ns <- Dp_obs.Clock.now_ns ();
      Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_requests;
      let text, bytes =
        if Faults.fire t.faults Faults.Garbage_line then
          let g = String.make (Protocol.max_line_bytes + 64) '\xfe' in
          (g, String.length g)
        else (l.Linebuf.text, l.Linebuf.bytes)
      in
      let reply =
        if bytes > Protocol.max_line_bytes then
          [ Protocol.oversized_reply bytes ]
        else t.exec text
      in
      if Protocol.is_quit text then c.close_after_flush <- true;
      if Faults.fire t.faults Faults.Write_drop then
        (* reply computed (and any charge journaled), zero bytes written:
           the client must retry through a torn connection *)
        close_conn t `Normal c
      else if Faults.fire t.faults Faults.Conn_reset then begin
        (* first line only, no terminator: a torn frame mid-reply *)
        match reply with
        | first :: _ ->
            queue_frame ~terminated:false c ~deadline [ first ];
            c.close_after_flush <- true
        | [] -> close_conn t `Normal c
      end
      else queue_frame c ~deadline reply

let runnable_jobs t =
  List.filter_map
    (fun c -> if runnable c then Some (fun () -> exec_request t c) else None)
    t.conns

(* Requests that arrived while a batch was forming: a zero-timeout poll
   reads every ready conn, and each conn not yet served this turn
   starts its head request. *)
let late_arrivals t () =
  let fds =
    List.filter_map (fun c -> if reading t c then Some c.fd else None) t.conns
  in
  (match Unix.select fds [] [] 0. with
  | r, _, _ ->
      List.iter (fun c -> if List.mem c.fd r then read_phase t c) t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  runnable_jobs t

(* Start the head request of every runnable conn — at most one per conn
   per loop turn (round-robin fairness) — as one group commit: a
   request that reaches a durable journal append parks there, requests
   that arrived meanwhile join, one fsync per log covers every parked
   frame, and the parked requests then resume in the order they
   parked. A reply is queued only when its request has finished, so
   none leaves before the fsync that covers its frames. *)
let exec_phase t =
  Wal.group ~trace:t.trace ~more:(late_arrivals t) (runnable_jobs t)

let write_phase t c =
  if c.closed || not (has_output c) then ()
  else
    match Unix.write c.fd c.out c.out_pos (Bytes.length c.out - c.out_pos) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        close_conn t `Normal c
    | n ->
        c.out_pos <- c.out_pos + n;
        if not (has_output c) then begin
          c.out <- Bytes.empty;
          c.out_pos <- 0;
          (* a reply that took longer than the idle timeout to compute
             must not get its connection closed right after it lands *)
          c.last_active <- Dp_obs.Clock.now_s ();
          if not c.replied then begin
            c.replied <- true;
            Dp_obs.Metrics.observe t.scope Dp_obs.Name.Net_accept_to_reply_ns
              (Dp_obs.Clock.elapsed_ns c.accept_ns)
          end;
          if c.req_start_ns > 0 then begin
            Dp_obs.Metrics.observe t.scope Dp_obs.Name.Net_reply_ns
              (Dp_obs.Clock.elapsed_ns c.req_start_ns);
            c.req_start_ns <- 0
          end;
          if c.close_after_flush || (c.eof && Queue.is_empty c.requests) then
            close_conn t `Normal c
        end

(* When this conn next needs attention: the reply deadline of its
   oldest unanswered request (counted from that request's arrival), or
   else the end of its idle window. [last_active] never advances on
   raw bytes — a slow-loris peer dribbling one byte of a never-
   terminated line per second makes no progress by this clock and is
   closed at the idle timeout like any silent connection. *)
let due t c =
  if has_output c then c.out_deadline
  else
    match Queue.peek_opt c.requests with
    | Some (_, arrived) -> arrived +. t.cfg.reply_deadline_s
    | None -> c.last_active +. t.cfg.idle_timeout_s

let timeout_phase t =
  let now = Dp_obs.Clock.now_s () in
  List.iter (fun c -> if now > due t c then close_conn t `Deadline c) t.conns

(* The longest a turn may sleep: bounds how late a control hook sees a
   dead parent, and how late a stop request is noticed without EINTR. *)
let max_wait_s = 0.25

let wait_s t =
  if List.exists runnable t.conns then 0.
  else if t.stopping then 0.02
  else
    let now = Dp_obs.Clock.now_s () in
    List.fold_left
      (fun acc c -> Float.min acc (Float.max 0.01 (due t c -. now)))
      max_wait_s t.conns

let close_listener t =
  match t.listener with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.listener <- None
  | None -> ()

let publish_gauges t =
  Dp_obs.Metrics.set_gauge t.scope Dp_obs.Name.Net_conns_open
    (float_of_int (List.length t.conns));
  Dp_obs.Metrics.set_gauge t.scope Dp_obs.Name.Net_inflight
    (float_of_int (depth t))

let run t =
  let rec loop () =
    (* graceful drain: stop accepting and stop reading; finish what is
       already in the pipeline, flush it, then leave *)
    if t.stopping then close_listener t;
    (* published every turn, including the one that completes the
       drain, so the final metrics snapshot reads 0 *)
    publish_gauges t;
    if not (t.stopping && t.conns = []) then begin
      timeout_phase t;
      if t.stopping then
        List.iter
          (fun c ->
            if
              Queue.is_empty c.requests
              && (not (has_output c))
              && c.req_start_ns = 0
            then close_conn t `Drain c)
          t.conns;
      if not (t.stopping && t.conns = []) then begin
        let reads =
          Option.to_list t.listener
          @ (match t.source with Control (fd, _) -> [ fd ] | Listen -> [])
          @ List.filter_map
              (fun c -> if reading t c then Some c.fd else None)
              t.conns
        in
        let writes =
          List.filter_map
            (fun c -> if has_output c then Some c.fd else None)
            t.conns
        in
        let r, _, _ =
          try Unix.select reads writes [] (wait_s t)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (match t.source with
        | Control (fd, hook) -> hook t ~readable:(List.mem fd r)
        | Listen -> ());
        (match t.listener with
        | Some l when List.mem l r -> accept_phase t l
        | _ -> ());
        List.iter (fun c -> if List.mem c.fd r then read_phase t c) t.conns;
        exec_phase t;
        (* opportunistic: try every pending reply, not just the fds
           select confirmed — EAGAIN is handled, and replies queued this
           turn would otherwise wait a full loop *)
        List.iter (fun c -> write_phase t c) t.conns;
        loop ()
      end
    end
  in
  loop ();
  (* the drain may have closed the last connections mid-turn, after
     this turn's gauge publication — re-publish so the final metrics
     snapshot reflects the drained state *)
  publish_gauges t;
  close_listener t
