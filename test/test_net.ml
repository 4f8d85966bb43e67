(* The TCP frontend: bounded line reassembly across segments, reply
   framing, admission control (budget-independent by construction),
   slow-loris idle timeouts, per-request deadlines, graceful drain, and
   the retrying client against torn connections. The hardening tests
   run twice: against a server on a thread of the test process (N=1)
   and against a forked two-worker pool (N=2), whose workers serve
   through the same [Server]. Clients are raw sockets so the tests
   control exactly how bytes hit the wire. *)

open Dp_engine
open Dp_net

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Linebuf *)

let linebuf_reassembly () =
  let lb = Linebuf.create () in
  let feed s = Linebuf.feed lb (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check int) "no newline, no line" 0 (List.length (feed "query de"));
  Alcotest.(check int) "still buffering" 0 (List.length (feed "mo count"));
  (match feed "\nhelp\nqu" with
  | [ a; b ] ->
      Alcotest.(check string) "first line spans segments" "query demo count"
        a.Linebuf.text;
      Alcotest.(check int) "true count" 16 a.Linebuf.bytes;
      Alcotest.(check string) "second line" "help" b.Linebuf.text
  | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls));
  match feed "it\n" with
  | [ c ] -> Alcotest.(check string) "tail completes" "quit" c.Linebuf.text
  | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls)

(* The cap must hold across segments: many small feeds of one long line
   may never buffer more than max+1 bytes, while the true length is
   still counted for the oversized reply. *)
let linebuf_oversized_across_segments () =
  let lb = Linebuf.create ~max:16 () in
  let seg = Bytes.make 10 'a' in
  for _ = 1 to 5 do
    match Linebuf.feed lb seg 0 10 with
    | [] -> ()
    | _ -> Alcotest.fail "no newline yet"
  done;
  Alcotest.(check int) "true pending count" 50 (Linebuf.pending_bytes lb);
  match Linebuf.feed lb (Bytes.of_string "\n") 0 1 with
  | [ l ] ->
      Alcotest.(check int) "true length reported" 50 l.Linebuf.bytes;
      Alcotest.(check bool) "buffered text capped at max+1" true
        (String.length l.Linebuf.text <= 17)
  | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* parse_opts (shared by every command; the TCP path reuses it via
   Protocol.exec, so its strictness is part of the wire contract) *)

let parse_opts_strict () =
  let known = [ "eps"; "analyst"; "no-cache" ] in
  (match Protocol.parse_opts ~known [ "eps=0.5"; "no-cache" ] with
  | Ok [ ("eps", Some "0.5"); ("no-cache", None) ] -> ()
  | Ok _ -> Alcotest.fail "parsed shape wrong"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_opts ~known [ "bogus=1" ] with
  | Error e ->
      Alcotest.(check bool) "unknown key is typed" true
        (contains ~sub:"err bad-argument" e)
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (match Protocol.parse_opts ~known [ "eps=1"; "eps=2" ] with
  | Error e ->
      Alcotest.(check bool) "duplicate key is typed" true
        (contains ~sub:"duplicate option eps" e)
  | Ok _ -> Alcotest.fail "duplicate key accepted");
  match Protocol.parse_opts ~known [ "eps=a=b" ] with
  | Ok [ ("eps", Some "a=b") ] -> ()
  | _ -> Alcotest.fail "value may contain '='"

(* ------------------------------------------------------------------ *)
(* Reply cap *)

let reply_cap_truncates () =
  let eng = Engine.create ~seed:3 () in
  (match
     Protocol.exec eng "register demo rows=50 eps=50 default-eps=0.001"
   with
  | first :: _ when contains ~sub:"ok registered" first -> ()
  | _ -> Alcotest.fail "register failed");
  (* 300 distinct fresh releases (0.3 of the 50 eps) = 300 audit
     records = 301 log reply lines, over the cap; repeats would fold
     into one hit counter line *)
  for i = 1 to 300 do
    match
      Protocol.exec eng (Printf.sprintf "query demo count(age>%d) eps=0.001" i)
    with
    | first :: _ when contains ~sub:"ok" first -> ()
    | r -> Alcotest.failf "query failed: %s" (String.concat "|" r)
  done;
  let reply = Protocol.exec eng "log demo" in
  Alcotest.(check int) "reply capped" Protocol.max_reply_lines
    (List.length reply);
  let last = List.nth reply (List.length reply - 1) in
  Alcotest.(check string)
    "trailer counts the dropped lines"
    (Printf.sprintf "  truncated=%d" (301 - (Protocol.max_reply_lines - 1)))
    last;
  (* under the cap nothing changes *)
  let short = Protocol.exec eng "report demo" in
  Alcotest.(check bool) "short replies untouched" true
    (List.for_all (fun l -> not (contains ~sub:"truncated=" l)) short)

(* ------------------------------------------------------------------ *)
(* TCP helpers *)

let default_test_config =
  {
    Server.default_config with
    idle_timeout_s = 10.;
    reply_deadline_s = 10.;
    retry_after_base_ms = 7;
  }

let with_server ?(config = default_test_config) ?(faults = Faults.none) f =
  let eng = Engine.create ~seed:11 ~faults () in
  let srv = ok (Server.create ~config eng) in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Thread.join th)
    (fun () -> f eng (Server.port srv))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* A connection's reply reader: lines already reassembled but not yet
   consumed stay in [pending], since one read may carry several
   pipelined frames. *)
type reader = { lb : Linebuf.t; mutable pending : Linebuf.line list }

let reader () = { lb = Linebuf.create (); pending = [] }

(* Read one blank-line-terminated reply frame; [`Eof] on a torn frame. *)
let read_frame ?(timeout = 5.) fd r =
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go acc =
    match r.pending with
    | l :: rest ->
        r.pending <- rest;
        if l.Linebuf.text = "" then
          `Frame (List.rev_map (fun (x : Linebuf.line) -> x.text) acc)
        else go (l :: acc)
    | [] ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then `Timeout
        else (
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> `Timeout
          | _ -> (
              match Unix.read fd buf 0 4096 with
              | 0 -> `Eof
              | n ->
                  r.pending <- Linebuf.feed r.lb buf 0 n;
                  go acc
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof))
  in
  go []

let frame ?timeout fd lb =
  match read_frame ?timeout fd lb with
  | `Frame lines -> lines
  | `Eof -> Alcotest.fail "connection closed mid-frame"
  | `Timeout -> Alcotest.fail "timed out waiting for reply frame"

(* ------------------------------------------------------------------ *)
(* TCP end-to-end *)

let tcp_end_to_end () =
  with_server (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      send fd "register demo rows=200 eps=2\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "registered" true
            (contains ~sub:"ok registered name=demo" first)
      | [] -> Alcotest.fail "empty register frame");
      send fd "query demo mean(income) eps=0.2\nquery demo mean(income) eps=0.2\n";
      let r1 = frame fd lb in
      let r2 = frame fd lb in
      (match (r1, r2) with
      | [ a ], [ b ] ->
          Alcotest.(check bool) "fresh answer" true (contains ~sub:"cache=miss" a);
          Alcotest.(check bool) "replayed from cache" true
            (contains ~sub:"cache=hit" b)
      | _ -> Alcotest.fail "expected single-line query replies");
      (* multi-line replies arrive in one frame *)
      send fd "report demo\n";
      let rep = frame fd lb in
      Alcotest.(check bool) "report header present" true
        (match rep with
        | first :: _ -> contains ~sub:"report dataset=demo" first
        | [] -> false);
      Alcotest.(check bool) "report body indented" true
        (List.for_all
           (fun l -> l = List.hd rep || (String.length l > 1 && l.[0] = ' '))
           rep);
      send fd "quit\n";
      (match frame fd lb with
      | [ bye ] -> Alcotest.(check string) "bye" "ok bye" bye
      | _ -> Alcotest.fail "expected ok bye");
      (match read_frame ~timeout:2. fd lb with
      | `Eof -> ()
      | _ -> Alcotest.fail "server must close after quit");
      Unix.close fd)

let tcp_two_clients () =
  with_server (fun _eng port ->
      let a = connect port and b = connect port in
      let la = reader () and lbuf = reader () in
      send a "register demo rows=100 eps=1\n";
      ignore (frame a la);
      (* interleaved requests on two connections are answered
         independently, in per-connection order *)
      send a "query demo count eps=0.1\n";
      send b "query demo count eps=0.1\n";
      let ra = frame a la in
      let rb = frame b lbuf in
      (match (ra, rb) with
      | [ x ], [ y ] ->
          Alcotest.(check bool) "a answered" true (contains ~sub:"ok seq=" x);
          (* same normalized query at the same eps: the second release
             is the cache replaying the first, never fresh noise *)
          Alcotest.(check bool) "b served from cache" true
            (contains ~sub:"cache=hit" y || contains ~sub:"cache=miss" y)
      | _ -> Alcotest.fail "expected single-line replies");
      Unix.close a;
      Unix.close b)

(* An oversized line split across many small TCP segments must get the
   exact stdio-transport reply, with the true byte count. *)
let tcp_oversized_split () =
  with_server (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      let chunk = String.make 500 'x' in
      for _ = 1 to 10 do
        send fd chunk
      done;
      send fd "\n";
      (match frame fd lb with
      | [ line ] ->
          Alcotest.(check string) "stdio-identical oversized reply"
            (Protocol.oversized_reply 5000)
            line
      | _ -> Alcotest.fail "expected one reply line");
      (* the connection survives: the oversized request was rejected,
         not the peer *)
      send fd "help\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "still serving" true
            (contains ~sub:"ok commands" first)
      | [] -> Alcotest.fail "no help reply");
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Launchers: the same hardening tests run against the single-process
   server (N=1, [Server] on a thread of this process) and the worker
   pool (N=2, a forked [Pool.run] whose workers serve through [Server]
   too). TCP bounds apply per worker, so tests that fill a bound scale
   by [n]. *)

type served = {
  port : int;
  inproc : (Engine.t * Server.t) option;  (** at N=1 only *)
  stop : unit -> unit;  (** drain (idempotent); at N=2 also asserts exit 0 *)
}

type launcher = { n : int; launch : Server.config -> served }

let in_process =
  let launch config =
    let eng = Engine.create ~seed:11 () in
    let srv = ok (Server.create ~config eng) in
    let th = Thread.create Server.run srv in
    let stopped = ref false in
    {
      port = Server.port srv;
      inproc = Some (eng, srv);
      stop =
        (fun () ->
          if not !stopped then begin
            stopped := true;
            Server.request_stop srv;
            Thread.join th
          end);
    }
  in
  { n = 1; launch }

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* [faults] defaults to the in-process engine's: $DPKIT_FAULTS, if set.
   One fault plan covers the coordinator and its workers. *)
let forked ?faults () =
  let launch config =
    let dir = Filename.temp_file "dpkit_pool" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    let journal = Filename.concat dir "j" in
    let rd, wr = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (* the coordinator: its banner and drain marker go to the pipe *)
        Unix.close rd;
        Unix.dup2 wr Unix.stdout;
        let code =
          try
            Dp_pool.Pool.run
              {
                (Dp_pool.Pool.default_config ~workers:2 ~port:0 ~journal) with
                seed = 11;
                net = config;
                faults =
                  (match faults with Some f -> f | None -> Faults.of_env ());
              }
          with _ -> 2
        in
        Unix._exit code
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let rec banner () =
          match input_line ic with
          | l when String.starts_with ~prefix:"listening port=" l ->
              Scanf.sscanf l "listening port=%d" Fun.id
          | _ -> banner ()
          | exception End_of_file -> Alcotest.fail "pool exited before listening"
        in
        let port = banner () in
        let stopped = ref false in
        {
          port;
          inproc = None;
          stop =
            (fun () ->
              if not !stopped then begin
                stopped := true;
                Unix.kill pid Sys.sigterm;
                let st = waitpid_noeintr pid in
                let rest = In_channel.input_all ic in
                close_in ic;
                let merge =
                  Dp_pool.Pool.merge_lines ~seed:11 ~journal ~workers:2 ()
                in
                rm_rf dir;
                Alcotest.(check bool) "pool drained with exit 0" true
                  (st = Unix.WEXITED 0 && contains ~sub:"drained" rest);
                match merge with
                | Ok (_, invariant_ok) ->
                    Alcotest.(check bool) "merged ledger invariant" true invariant_ok
                | Error e -> Alcotest.failf "pool merge: %s" e
              end);
        }
  in
  { n = 2; launch }

let forked_pool = forked ()

let launchers = [ in_process; forked_pool ]

let with_launched ?(config = default_test_config) l f =
  let s = l.launch config in
  Fun.protect ~finally:s.stop (fun () -> f s)

(* One request on a fresh connection, in lockstep. *)
let request port line =
  let fd = connect port in
  let lb = reader () in
  send fd (line ^ "\n");
  let reply = frame fd lb in
  Unix.close fd;
  reply

let expect_ok what = function
  | first :: _ when contains ~sub:"ok" first -> ()
  | r -> Alcotest.failf "%s failed: %s" what (String.concat "|" r)

(* ------------------------------------------------------------------ *)
(* Admission control *)

(* The pinned invariant: the shed reply is computed from queue depth
   only. A server with a full budget and a server with an exhausted
   budget must shed byte-identically — if they differed, being shed
   would leak budget state to an unauthenticated peer. With
   max_conns=1 per worker, [n] answered holders fill every worker; the
   next connection is over the bound wherever it lands. *)
let shed_reply_of l ~setup port =
  let holders = List.init l.n (fun _ -> (connect port, reader ())) in
  let last_setup = ref [] in
  List.iteri
    (fun i (fd, lb) ->
      List.iter
        (fun line ->
          send fd (line ^ "\n");
          let reply = frame fd lb in
          if i = 0 then last_setup := reply)
        (if i = 0 then setup else [ "help" ]))
    holders;
  let shed = connect port in
  let sl = reader () in
  let reply = frame shed sl in
  (match read_frame ~timeout:2. shed sl with
  | `Eof -> ()
  | _ -> Alcotest.fail "shed connection must be closed");
  Unix.close shed;
  List.iter (fun (fd, _) -> Unix.close fd) holders;
  (reply, !last_setup)

let shedding_budget_independent l () =
  let config = { default_test_config with max_conns = 1 } in
  let r_full, _ =
    with_launched ~config l (fun s ->
        shed_reply_of l ~setup:[ "register demo rows=50 eps=100" ] s.port)
  in
  let r_exhausted, last =
    with_launched ~config l (fun s ->
        (* burn the whole budget, then some, on the first holder *)
        shed_reply_of l
          ~setup:
            [
              "register demo rows=50 eps=0.2";
              "query demo count eps=0.2";
              "query demo count eps=0.1";
            ]
          s.port)
  in
  (match last with
  | [ line ] ->
      Alcotest.(check bool) "budget is exhausted" true
        (contains ~sub:"err budget-exceeded" line)
  | _ -> Alcotest.fail "expected budget-exceeded");
  (match r_full with
  | [ line ] ->
      Alcotest.(check bool) "typed overloaded reply" true
        (contains ~sub:"err overloaded retry-after=" line)
  | _ -> Alcotest.fail "expected one shed line");
  Alcotest.(check (list string))
    "shed reply independent of budget state" r_full r_exhausted

let inflight_shedding l () =
  (* max_inflight=1: with one reply parked unflushed, a second request
     on another connection is shed with a typed, depth-scaled hint *)
  let config = { default_test_config with max_inflight = 1 } in
  with_launched ~config l (fun s ->
      expect_ok "register" (request s.port "register demo rows=50 eps=10");
      let a = connect s.port and b = connect s.port in
      let la = reader () and lbuf = reader () in
      (* a queues a request but never reads the reply: after exec its
         unflushed frame still occupies the pipeline only until the
         kernel buffers it, so park a second one behind it *)
      send a "query demo count eps=0.01\nquery demo count eps=0.01\nquery demo count eps=0.01\n";
      Unix.sleepf 0.15;
      send b "query demo count eps=0.01\n";
      (match frame b lbuf with
      | [ line ] ->
          Alcotest.(check bool)
            "second conn shed or answered, never wedged" true
            (contains ~sub:"err overloaded retry-after=" line
            || contains ~sub:"ok seq=" line)
      | _ -> Alcotest.fail "expected one line");
      ignore (frame a la);
      Unix.close a;
      Unix.close b)

(* A client that floods requests and never reads its replies must not
   wedge the process serving it: at N=2 one of the two connections
   opened after it lands on the flooder's own worker. A small receive
   buffer makes the flooder's replies back up quickly. *)
let flooder ?(lines = 5000) port =
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send a (String.concat "" (List.init lines (fun _ -> "help\n")));
  a

let flood_without_reading l () =
  with_launched l (fun s ->
      let a = flooder s.port in
      Unix.sleepf 0.2;
      let others = [ connect s.port; connect s.port ] in
      (* closed before the drain either way: a server wedged writing to
         [a] could not drain *)
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close (a :: others))
        (fun () ->
          List.iteri
            (fun i fd ->
              send fd "help\n";
              match read_frame ~timeout:3. fd (reader ()) with
              | `Frame (first :: _) when contains ~sub:"ok commands" first -> ()
              | _ -> Alcotest.failf "connection %d after the flooder unanswered" i)
            others))

(* Shed replies keep their place: a pipelined burst on one connection,
   most of it over [max_inflight], gets one reply frame per line in
   request order — each line's own reply or [err overloaded], never an
   overloaded reply ahead of an earlier line's answer. The burst spans
   several reads, so reading pauses at the bound and resumes once the
   queue drains, which admits later lines again. A queued shed reply is
   not load: the depth behind every hint is at most the admitted
   requests plus this connection's unflushed reply, never the hundreds
   of shed lines queued with them. *)
let shed_replies_in_order l () =
  let config = { default_test_config with max_inflight = 2 } in
  let max_hint =
    config.retry_after_base_ms * (1 + config.max_inflight + 1)
  in
  with_launched ~config l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      let n = 500 in
      let model i = Printf.sprintf "x/m%d" i in
      send fd
        (String.concat "" (List.init n (fun i -> "model " ^ model i ^ "\n")));
      let answered = ref 0 and shed = ref 0 in
      for i = 0 to n - 1 do
        match frame fd lb with
        | [ r ] when r = "err unknown-model " ^ model i -> incr answered
        | [ r ] when contains ~sub:"err overloaded retry-after=" r ->
            incr shed;
            Scanf.sscanf r "err overloaded retry-after=%d" (fun ms ->
                if ms > max_hint then
                  Alcotest.failf "reply %d: hint %d ms counts shed lines as load"
                    i ms)
        | r -> Alcotest.failf "reply %d out of order: %s" i (String.concat "|" r)
      done;
      Unix.close fd;
      Alcotest.(check bool) "some lines shed" true (!shed > 0);
      Alcotest.(check bool) "lines admitted after a shed run" true
        (!answered > 2))

(* ------------------------------------------------------------------ *)
(* Timeouts *)

let idle_timeout_slow_loris l () =
  let config = { default_test_config with idle_timeout_s = 0.3 } in
  with_launched ~config l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      (* dribble a never-terminated line: bytes flow, but no request
         ever completes, so the idle clock must not reset *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec dribble () =
        match send fd "x" with
        | () ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "slow-loris connection never closed"
            else begin
              Unix.sleepf 0.05;
              match read_frame ~timeout:0.01 fd lb with
              | `Eof -> ()
              | `Timeout | `Frame _ -> dribble ()
            end
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            ()
      in
      dribble ();
      Unix.close fd)

(* A request that runs longer than the idle timeout restarts the idle
   clock when its reply is flushed: the connection stays usable. *)
let idle_clock_restarts_on_reply l () =
  let config = { default_test_config with idle_timeout_s = 0.2 } in
  with_launched ~config l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      send fd "register demo rows=400 eps=4 default-eps=0.1\n";
      expect_ok "register" (frame fd lb);
      let t0 = Unix.gettimeofday () in
      send fd "train demo eps=0.1 steps=4000 burn=4000 step-std=0.8\n";
      expect_ok "train" (frame fd lb);
      let took = Unix.gettimeofday () -. t0 in
      send fd "help\n";
      (match read_frame ~timeout:3. fd lb with
      | `Frame (first :: _) when contains ~sub:"ok commands" first -> ()
      | _ ->
          Alcotest.failf "connection closed after a %.2f s request" took);
      Unix.close fd)

(* Unread replies are bounded by the request deadline: a flooder that
   never drains is closed once its replies back up past the kernel's
   buffers (15 MB of [help] replies, all admitted). Replies already in
   the kernel sit ahead of the FIN, so probe by writing: the closed
   socket answers new data with a reset. *)
let deadline_closes_unread l () =
  let config =
    { default_test_config with reply_deadline_s = 0.5; max_inflight = 20_000 }
  in
  with_launched ~config l (fun s ->
      let a = flooder ~lines:10_000 s.port in
      Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
      Unix.set_nonblock a;
      Unix.sleepf 1.;
      let until = Unix.gettimeofday () +. 5. in
      let rec probe () =
        if Unix.gettimeofday () > until then
          Alcotest.fail "flooder never closed by the deadline"
        else
          match send a "help\n" with
          | () | (exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _))
            ->
              Unix.sleepf 0.1;
              probe ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      probe ())

(* The deadline runs per request, from its arrival: a client that keeps
   four fast requests outstanding for longer than the deadline is
   served, not reset. *)
let deadline_per_request l () =
  let config = { default_test_config with reply_deadline_s = 0.5 } in
  with_launched ~config l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      send fd "help\nhelp\nhelp\nhelp\n";
      let until = Unix.gettimeofday () +. 2. in
      while Unix.gettimeofday () < until do
        ignore (frame fd lb);
        send fd "help\n"
      done;
      for _ = 1 to 4 do
        ignore (frame fd lb)
      done;
      Unix.close fd)

(* Pipelined requests are answered back to back: the loop does not
   sleep while a queued request is ready to run. *)
let pipelined_no_stall l () =
  with_launched l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      (* one lockstep request first, so the clock starts on a
         connection the server is already serving *)
      send fd "help\n";
      ignore (frame fd lb);
      let t0 = Unix.gettimeofday () in
      send fd "help\nhelp\nhelp\n";
      for _ = 1 to 3 do
        ignore (frame fd lb)
      done;
      let took = Unix.gettimeofday () -. t0 in
      Unix.close fd;
      if took >= 0.1 then
        Alcotest.failf "3 pipelined frames took %.3f s (>= 0.1 s)" took)

(* Two requests written back to back: the second reply is written
   while the first is still unacknowledged, so without TCP_NODELAY it
   waits for the client's delayed ACK (about 40 ms). The median of a
   few pairs keeps one scheduling hiccup from failing the case. *)
let pipelined_pair_fast l () =
  with_launched l (fun s ->
      let fd = connect s.port in
      let lb = reader () in
      send fd "status\n";
      ignore (frame fd lb);
      let pair () =
        let t0 = Unix.gettimeofday () in
        send fd "status\nstatus\n";
        ignore (frame fd lb);
        ignore (frame fd lb);
        Unix.gettimeofday () -. t0
      in
      let took = List.init 5 (fun _ -> pair ()) |> List.sort compare in
      Unix.close fd;
      let median = List.nth took 2 in
      if median >= 0.005 then
        Alcotest.failf "two pipelined status lines took %.1f ms (>= 5 ms)"
          (median *. 1e3))

(* ------------------------------------------------------------------ *)
(* Graceful drain *)

let drain_flushes_inflight l () =
  let s = l.launch default_test_config in
  Fun.protect ~finally:s.stop (fun () ->
      expect_ok "register" (request s.port "register demo rows=100 eps=5");
      let fd = connect s.port in
      let lb = reader () in
      send fd "query demo mean(score) eps=0.1\n";
      (* let the select loop pick the request up — drain deliberately
         stops reading, so a request still in the socket buffer is the
         client's to retry, not in-flight *)
      Unix.sleepf 0.3;
      (* the reply to the in-flight request must still arrive after
         stop *)
      s.stop ();
      (match frame fd lb with
      | [ line ] ->
          Alcotest.(check bool) "in-flight request answered through drain" true
            (contains ~sub:"ok seq=" line || contains ~sub:"err" line)
      | _ -> Alcotest.fail "expected reply through drain");
      (match read_frame ~timeout:3. fd lb with
      | `Eof -> ()
      | _ -> Alcotest.fail "drained server must close the connection");
      Unix.close fd);
  (* post-drain: the engine is intact and consistent *)
  Option.iter
    (fun (eng, _) ->
      match Protocol.exec eng "replay demo" with
      | [ line ] ->
          Alcotest.(check bool) "audit replay consistent after drain" true
            (contains ~sub:"ok replay consistent" line)
      | _ -> Alcotest.fail "expected replay verdict")
    s.inproc

let drain_refuses_new_conns l () =
  let s = l.launch default_test_config in
  s.stop ();
  (match connect s.port with
  | fd ->
      (* a TIME_WAIT race may accept the connect; reads must then EOF *)
      let lb = reader () in
      (match read_frame ~timeout:1. fd lb with
      | `Eof | `Timeout -> ()
      | `Frame _ -> Alcotest.fail "drained server answered a new conn");
      Unix.close fd
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Option.iter
    (fun (_, srv) ->
      Alcotest.(check int) "no connections left" 0 (Server.conn_count srv))
    s.inproc

(* ------------------------------------------------------------------ *)
(* Differential framing: one trace of non-charging lines gives the same
   reply bytes at N=1 and N=2. *)

let framing_trace =
  [ ""; "# comment"; "help"; "bogus"; String.make 5000 'x'; "quit" ]

let reply_stream l =
  with_launched l (fun s ->
      let fd = connect s.port in
      send fd (String.concat "" (List.map (fun l -> l ^ "\n") framing_trace));
      let out = Buffer.create 4096 and buf = Bytes.create 4096 in
      let until = Unix.gettimeofday () +. 5. in
      let rec go () =
        if Unix.gettimeofday () > until then Alcotest.fail "no close after quit"
        else
          match Unix.select [ fd ] [] [] 1. with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read fd buf 0 4096 with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes out buf 0 n;
                  go ())
      in
      go ();
      Unix.close fd;
      Buffer.contents out)

let framing_parity () =
  let one = reply_stream in_process in
  Alcotest.(check bool) "empty line gets a blank frame" true
    (String.length one > 2 && String.sub one 0 2 = "\n\n");
  Alcotest.(check string) "N=2 reply bytes equal N=1" one
    (reply_stream forked_pool)

(* ------------------------------------------------------------------ *)
(* Retrying client vs injected connection faults *)

let client_retries_through_conn_reset () =
  let faults = ok (Faults.parse "conn-reset=2") in
  with_server ~faults (fun _eng port ->
      let reqs = Filename.temp_file "dpkit_net" ".in" in
      let out = Filename.temp_file "dpkit_net" ".out" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove reqs with Sys_error _ -> ());
          try Sys.remove out with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_text reqs (fun oc ->
              output_string oc
                "register demo rows=100 eps=2\n\
                 query demo mean(income) eps=0.3\n\
                 report demo\n");
          let cfg =
            {
              (Client.default_config ~port) with
              attempts = 6;
              backoff_s = 0.01;
              cap_s = 0.1;
              reply_timeout_s = 2.;
              jitter = Some (Dp_rng.Prng.create 5);
            }
          in
          let code =
            In_channel.with_open_text reqs (fun ic ->
                Out_channel.with_open_text out (fun oc -> Client.run cfg ic oc))
          in
          Alcotest.(check int) "client reaches final replies" 0 code;
          let lines =
            In_channel.with_open_text out In_channel.input_lines
          in
          (* the torn 2nd request (its conn was reset mid-reply) was
             retried; charge-before-answer makes the retry a cache hit,
             so the analyst still gets exactly one released value *)
          Alcotest.(check bool) "query answered" true
            (List.exists (fun l -> contains ~sub:"mechanism=laplace" l) lines);
          Alcotest.(check bool) "report arrived" true
            (List.exists (fun l -> contains ~sub:"report dataset=demo" l) lines);
          Alcotest.(check bool) "no torn lines leaked" true
            (List.for_all
               (fun l ->
                 l = ""
                 || contains ~sub:"ok" l
                 || contains ~sub:"err" l
                 || l.[0] = ' '
                 || contains ~sub:"report" l)
               lines)))

let client_retries_through_restart () =
  (* the server dies (thread stops via drain) and a new one takes the
     port; a client request spanning the outage succeeds *)
  let eng = Engine.create ~seed:11 () in
  let srv = ok (Server.create ~config:default_test_config eng) in
  let th = Thread.create Server.run srv in
  let port = Server.port srv in
  Server.request_stop srv;
  Thread.join th;
  (* port free now; restart on the same port with the same engine *)
  let config = { default_test_config with port } in
  let srv2 = ok (Server.create ~config eng) in
  let th2 = Thread.create Server.run srv2 in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv2;
      Thread.join th2)
    (fun () ->
      let fd = connect port in
      let lb = reader () in
      send fd "help\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "restarted server serves" true
            (contains ~sub:"ok commands" first)
      | [] -> Alcotest.fail "no reply after restart");
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Group commit. A journaled server runs the head requests of all ready
   connections as one batch with one fsync; what the connections see
   must equal a sequential execution of the same lines. *)

(* N=1 with a journal, which group commit needs. [seed] lines run
   first, through a fault-free engine on the same journal, so a faulty
   server can start from a registered dataset. *)
let journaled ?(faults = Faults.none) ?(seed = []) () =
  let launch config =
    let dir = Filename.temp_file "dpkit_gc" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    let journal = Filename.concat dir "j" in
    if seed <> [] then begin
      let e = Engine.create ~seed:11 () in
      ignore (ok (Engine.open_journal e journal));
      List.iter (fun l -> expect_ok l (Protocol.exec e l)) seed;
      Engine.close e
    end;
    let eng = Engine.create ~seed:11 ~faults () in
    ignore (ok (Engine.open_journal eng journal));
    let srv = ok (Server.create ~config eng) in
    let th = Thread.create Server.run srv in
    let stopped = ref false in
    {
      port = Server.port srv;
      inproc = Some (eng, srv);
      stop =
        (fun () ->
          if not !stopped then begin
            stopped := true;
            Server.request_stop srv;
            Thread.join th;
            Engine.close eng;
            rm_rf dir
          end);
    }
  in
  { n = 1; launch }

(* The value of [key=] in a reply line. *)
let field key line =
  List.find_map
    (fun tok ->
      let p = key ^ "=" in
      if String.starts_with ~prefix:p tok then
        let n = String.length p in
        Some (String.sub tok n (String.length tok - n))
      else None)
    (String.split_on_char ' ' line)

(* Send every connection's lines at once, pipelined, then read each
   reply's first line; the server runs one line per connection per
   turn, so the connections' i-th lines tend to share a batch. *)
let send_all conns =
  List.iter
    (fun (fd, _, lines) ->
      send fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)))
    conns

let pipelined port per_conn =
  let conns = List.map (fun ls -> (connect port, reader (), ls)) per_conn in
  send_all conns;
  let replies =
    List.map
      (fun (fd, lb, lines) ->
        List.map
          (fun line ->
            match frame fd lb with
            | first :: _ -> (line, first)
            | [] -> (line, ""))
          lines)
      conns
  in
  List.iter (fun (fd, _, _) -> Unix.close fd) conns;
  replies

let setup = "register demo rows=200 eps=1000 default-eps=0.01"

(* appends shed at the global bound, not a lower one: every pipelined
   line here must execute *)
let batch_config = { default_test_config with max_append_inflight = 128 }

let same_query_one_miss () =
  let l = journaled ~seed:[ setup ] () in
  with_launched ~config:batch_config l (fun s ->
      let keys =
        List.init 30 (fun i -> Printf.sprintf "query demo count(age>%d)" (20 + i))
      in
      let replies = List.concat (pipelined s.port [ keys; keys ]) in
      List.iter
        (fun key ->
          let flags =
            List.filter_map
              (fun (line, reply) ->
                if line <> key then None
                else if not (String.starts_with ~prefix:"ok seq=" reply) then
                  Alcotest.failf "%s: %s" line reply
                else field "cache" reply)
              replies
          in
          Alcotest.(check (list string)) (key ^ ": one miss, one hit")
            [ "hit"; "miss" ] (List.sort compare flags))
        keys;
      match request s.port "report demo" with
      | _ :: body ->
          Alcotest.(check bool) "each key charged once" true
            (List.exists
               (fun l -> field "eps-spent" (String.trim l) = Some "0.3")
               body)
      | [] -> Alcotest.fail "no report")

let one_stream_two_conns () =
  let l = journaled ~seed:[ setup; "stream new demo eps=0.1 N=1024" ] () in
  with_launched ~config:batch_config l (fun s ->
      let k = 40 in
      let appends =
        List.init k (fun i -> Printf.sprintf "append demo/s1 %d" (i mod 2))
      in
      let ts =
        List.concat (pipelined s.port [ appends; appends ])
        |> List.map (fun (_, reply) ->
               match field "t" reply with
               | Some t when String.starts_with ~prefix:"ok append" reply ->
                   int_of_string t
               | _ -> Alcotest.failf "append refused: %s" reply)
      in
      Alcotest.(check (list int)) "t = 1..2k" (List.init (2 * k) succ)
        (List.sort compare ts))

(* The verdict, cache flag and ledger total of each line, whatever the
   interleaving: a sequential [Protocol.exec] of the same lines on a
   fresh engine must give the same multiset. *)
let parity_with_sequential () =
  let shared =
    List.init 12 (fun i -> Printf.sprintf "query demo count(score>%d)" (i * 5))
  in
  let a =
    shared
    @ [ "query demo sum(age)"; "query demo count(score>0)"; "append demo/s1 1";
        "register demo rows=10 eps=1"; "query demo mean(income) eps=0.02";
        "append demo/s1 0"; "query demo nosuch(col)" ]
  in
  let b =
    List.rev shared
    @ [ "append demo/s2 1"; "query demo sum(age)";
        "query demo histogram(age,4)"; "append demo/s2 1";
        "stream read demo/s1"; "query demo count(score>5)" ]
  in
  let opened = "stream new demo eps=0.1 N=64" in
  let seed = [ setup; opened; opened ] in
  let shape (line, reply) =
    let verdict =
      match String.split_on_char ' ' reply with
      | "ok" :: kind :: _ when String.starts_with ~prefix:"seq=" kind ->
          "ok query"
      | "ok" :: kind :: _ -> "ok " ^ kind
      | "err" :: code :: _ -> "err " ^ code
      | _ -> reply
    in
    Printf.sprintf "%s -> %s cache=%s" line verdict
      (Option.value ~default:"-" (field "cache" reply))
  in
  let spent report =
    List.find_map (fun l -> field "eps-spent" (String.trim l)) report
  in
  let concurrent, live_spent =
    with_launched ~config:batch_config (journaled ~seed ()) (fun s ->
        let replies = List.concat (pipelined s.port [ a; b ]) in
        ( List.sort compare (List.map shape replies),
          spent (request s.port "report demo") ))
  in
  let eng = Engine.create ~seed:11 () in
  List.iter (fun l -> ignore (Protocol.exec eng l)) seed;
  let sequential =
    List.map (fun l -> shape (l, List.hd (Protocol.exec eng l))) (a @ b)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "verdicts and cache flags" sequential concurrent;
  Alcotest.(check (option string)) "ledger total"
    (spent (Protocol.exec eng "report demo")) live_spent

(* A client that sends its line and then half-closes still gets its
   reply: the server reads the EOF while the fresh query is parked in
   the batch, and must not close the connection under it. *)
let half_close_gets_reply () =
  let l = journaled ~seed:[ setup ] () in
  with_launched l (fun s ->
      for i = 1 to 5 do
        let fd = connect s.port in
        send fd (Printf.sprintf "query demo count(age>%d)\n" (60 + i));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        (match read_frame fd (reader ()) with
        | `Frame (first :: _) ->
            Alcotest.(check bool)
              (Printf.sprintf "half-closed query %d answered" i)
              true
              (String.starts_with ~prefix:"ok seq=" first)
        | `Frame [] | `Eof | `Timeout ->
            Alcotest.failf "half-closed query %d got no reply" i);
        Unix.close fd
      done)

(* With every fsync failing, no reply may carry an answer: each fresh
   release is withheld, each append and registration refused, and each
   of these gets its typed [err] reply. *)
let no_answer_without_fsync l () =
  let lines =
    [ "query demo count"; "query demo sum(age)"; "append demo/s1 1";
      "stream new demo eps=0.1 N=64"; "register other rows=10 eps=1";
      "query demo mean(income)" ]
  in
  with_launched ~config:batch_config l (fun s ->
      let conns =
        List.map
          (fun ls -> (connect s.port, reader (), ls))
          [ setup :: lines; lines ]
      in
      send_all conns;
      List.iter
        (fun (fd, lb, ls) ->
          let rec go = function
            | [] -> ()
            | line :: rest -> (
                match read_frame fd lb with
                | `Frame (first :: _)
                  when String.starts_with ~prefix:"err " first ->
                    go rest
                | `Frame r ->
                    Alcotest.failf "%s without a durable frame: %s" line
                      (String.concat "|" r)
                | `Eof | `Timeout -> Alcotest.failf "%s got no reply" line)
          in
          go ls;
          Unix.close fd)
        conns)

let fsync_always () = ok (Faults.parse "journal-fsync=always")

(* At N=2 one fault plan covers the coordinator too: with every fsync
   failing it cannot journal any worker's [Incarnation], so every shard
   is down for good. Each client must then get one [err transient]
   frame and a close, never silence until its own timeout. *)
let no_shard_refuses () =
  let lines = [ "query demo count"; "append demo/s1 1" ] in
  with_launched ~config:batch_config (forked ~faults:(fsync_always ()) ())
    (fun s ->
      let conns =
        List.map
          (fun ls -> (connect s.port, reader (), ls))
          [ setup :: lines; lines ]
      in
      send_all conns;
      List.iter
        (fun (fd, lb, _) ->
          (match read_frame fd lb with
          | `Frame [ r ] when String.starts_with ~prefix:"err transient " r -> ()
          | `Frame r -> Alcotest.failf "want err transient, got %s" (String.concat "|" r)
          | `Eof | `Timeout -> Alcotest.fail "no reply with every shard down");
          (match read_frame fd lb with
          | `Eof -> ()
          | `Frame r -> Alcotest.failf "reply after refusal: %s" (String.concat "|" r)
          | `Timeout -> Alcotest.fail "refused connection left open");
          Unix.close fd)
        conns;
      (* a connection made after the refusals is refused the same way *)
      let fd = connect s.port in
      (match read_frame fd (reader ()) with
      | `Frame [ r ] when String.starts_with ~prefix:"err transient " r -> ()
      | _ -> Alcotest.fail "late connection not refused");
      Unix.close fd)

(* ------------------------------------------------------------------ *)

(* One case per launcher; the N=1 case keeps the bare name. *)
let per_launcher tests =
  List.concat_map
    (fun l ->
      List.map
        (fun (name, f) ->
          let name = if l.n = 1 then name else Printf.sprintf "%s N=%d" name l.n in
          Alcotest.test_case name `Quick (f l))
        tests)
    launchers

let () =
  Alcotest.run "dp_net"
    [
      ( "linebuf",
        [
          Alcotest.test_case "reassembly across segments" `Quick
            linebuf_reassembly;
          Alcotest.test_case "oversized across segments" `Quick
            linebuf_oversized_across_segments;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse_opts strictness" `Quick parse_opts_strict;
          Alcotest.test_case "reply cap" `Quick reply_cap_truncates;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "end to end" `Quick tcp_end_to_end;
          Alcotest.test_case "two clients" `Quick tcp_two_clients;
          Alcotest.test_case "oversized split over segments" `Quick
            tcp_oversized_split;
        ] );
      ( "admission",
        per_launcher
          [
            ("shed is budget-independent", shedding_budget_independent);
            ("inflight shedding", inflight_shedding);
            ("flood without reading", flood_without_reading);
            ("shed replies keep request order", shed_replies_in_order);
          ] );
      ( "timeouts",
        per_launcher
          [
            ("slow-loris idle timeout", idle_timeout_slow_loris);
            ("idle clock restarts on reply", idle_clock_restarts_on_reply);
            ("deadline closes unread replies", deadline_closes_unread);
            ("deadline is per request", deadline_per_request);
            ("pipelined requests do not stall", pipelined_no_stall);
            ("pipelined pair under 5 ms", pipelined_pair_fast);
          ] );
      ( "drain",
        per_launcher
          [
            ("flushes in-flight", drain_flushes_inflight);
            ("refuses new conns", drain_refuses_new_conns);
          ] );
      ( "group commit",
        [
          Alcotest.test_case "same query on two conns misses once" `Quick
            same_query_one_miss;
          Alcotest.test_case "two conns append to one stream" `Quick
            one_stream_two_conns;
          Alcotest.test_case "parity with sequential exec" `Quick
            parity_with_sequential;
          Alcotest.test_case "no answer without fsync" `Quick
            (no_answer_without_fsync
               (journaled ~faults:(fsync_always ())
                  ~seed:[ setup; "stream new demo eps=0.1 N=64" ] ()));
          Alcotest.test_case "no answer without fsync N=2" `Quick
            no_shard_refuses;
          Alcotest.test_case "half-close still gets its reply" `Quick
            half_close_gets_reply;
        ] );
      ( "differential",
        [ Alcotest.test_case "framing N=1 vs N=2" `Quick framing_parity ] );
      ( "client",
        [
          Alcotest.test_case "retries through conn-reset" `Quick
            client_retries_through_conn_reset;
          Alcotest.test_case "retries through restart" `Quick
            client_retries_through_restart;
        ] );
    ]
