(* The live run: a real [dpkit serve --tcp --journal] driven by one
   closed-loop load generator over two connections.

   Everything the run creates lives in a fresh directory under
   [.perfbench_run] in the working directory; every server it spawns
   is reaped and every directory removed, also when the run fails. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float ns *. 1e-9

exception Run_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Run_failed s)) fmt

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- Array.append v.a (Array.make v.n 0.);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* ---- scratch directories and child processes ---- *)

let scratch_root = ".perfbench_run"
let live_dirs = ref []
let live_pids = ref []
let dir_count = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir () =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o700;
  incr dir_count;
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !dir_count)
  in
  rm_rf d;
  Unix.mkdir d 0o700;
  live_dirs := d :: !live_dirs;
  d

let remove_dir d =
  rm_rf d;
  live_dirs := List.filter (( <> ) d) !live_dirs

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* Last-resort cleanup: kill and reap whatever is still running, then
   remove the directories. Runs on every exit path. *)
let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := [];
  List.iter (fun d -> try rm_rf d with _ -> ()) !live_dirs;
  live_dirs := [];
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

(* ---- /proc readings of the server processes ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Fields of /proc/PID/stat after the command name. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | s -> (
      match String.rindex_opt s ')' with
      | Some i ->
          Some
            (String.sub s (i + 2) (String.length s - i - 2)
            |> String.split_on_char ' ' |> Array.of_list)
      | None -> None)
  | exception Sys_error _ -> None

let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p ->
         match stat_fields p with
         | Some f -> Array.length f > 1 && int_of_string_opt f.(1) = Some pid
         | None -> false)

(* user + system CPU seconds of the processes *)
let cpu_seconds pids =
  let tick = 100. in
  List.fold_left
    (fun acc p ->
      match stat_fields p with
      | Some f when Array.length f > 12 ->
          acc +. ((float_of_string f.(11) +. float_of_string f.(12)) /. tick)
      | _ -> acc)
    0. pids

(* peak resident set, MiB, summed *)
let hwm_mib pids =
  List.fold_left
    (fun acc p ->
      match read_file (Printf.sprintf "/proc/%d/status" p) with
      | s ->
          String.split_on_char '\n' s
          |> List.fold_left
               (fun acc l ->
                 match String.split_on_char ':' l with
                 | [ "VmHWM"; v ] ->
                     Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                         acc +. (float kb /. 1024.))
                 | _ -> acc)
               acc
      | exception Sys_error _ -> acc)
    0. pids

(* ---- the server ---- *)

type server = {
  pid : int;
  out : Unix.file_descr;  (** its stdout: the banner, then [drained] *)
  port : int;
}

let server_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"DPKIT_FAULTS=" kv))
  |> Array.of_list

(* Read one line from [fd] before [deadline] (monotonic ns). *)
let read_line_until fd buf deadline =
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
        let s = Buffer.contents buf in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = secs (deadline - now_ns ()) in
        if left <= 0. then None
        else
          match Unix.select [ fd ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> None
          | _ -> (
              let b = Bytes.create 4096 in
              match Unix.read fd b 0 4096 with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf b 0 n;
                  go ()))
  in
  go ()

let spawn ~dpkit ~workers ~seed ~journal ~metrics ~errlog =
  let args =
    [ "serve"; "--tcp"; "0"; "--journal"; journal; "--metrics"; metrics;
      "--seed"; string_of_int seed ]
    @ if workers > 1 then [ "--workers"; string_of_int workers ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile errlog [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let nul = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close err;
        Unix.close nul)
      (fun () ->
        Unix.create_process_env dpkit
          (Array.of_list (dpkit :: args))
          (server_env ()) nul wr err)
  in
  live_pids := pid :: !live_pids;
  let buf = Buffer.create 256 in
  let deadline = now_ns () + 60_000_000_000 in
  let rec banner () =
    match read_line_until rd buf deadline with
    | None -> fail "server exited or stalled before its banner (see %s)" errlog
    | Some l -> (
        match Reply.field "port" (Reply.words l) with
        | Some p when String.starts_with ~prefix:"listening" l -> int_of_string p
        | _ -> banner ())
  in
  let port = banner () in
  { pid; out = rd; port }

let pids srv = srv.pid :: children srv.pid

(* SIGTERM, then wait for the drain; SIGKILL after 30 s. Fails unless
   the server printed [drained] and exited 0. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_ns () + 30_000_000_000 in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
        if now_ns () > deadline then begin
          List.iter
            (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            (pids srv);
          snd (waitpid_noeintr [] srv.pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _, st -> st
  in
  let st = wait () in
  live_pids := List.filter (( <> ) srv.pid) !live_pids;
  let buf = Buffer.create 64 in
  let rec drained () =
    match read_line_until srv.out buf (now_ns () + 1_000_000_000) with
    | None -> false
    | Some "drained" -> true
    | Some _ -> drained ()
  in
  let ok = drained () in
  Unix.close srv.out;
  match st with
  | Unix.WEXITED 0 when ok -> ()
  | Unix.WEXITED n -> fail "server exited %d (drained=%b)" n ok
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "server killed by signal %d" n

(* ---- connections and the closed loop ---- *)

type sent = { t0 : int; line : string }

type conn = {
  fd : Unix.file_descr;
  inbuf : Bytes.t;
  part : Buffer.t;  (** a partial line *)
  mutable frame : string list;  (** the current frame's lines, reversed *)
  outstanding : sent Queue.t;
  mutable stream : string;  (** binds [$S] *)
  mutable model : string;  (** binds [$M] *)
  mutable last_progress : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    inbuf = Bytes.create 65536;
    part = Buffer.create 256;
    frame = [];
    outstanding = Queue.create ();
    stream = "$S";
    model = "$M";
    last_progress = now_ns ();
  }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let t0 = now_ns () in
  if Queue.is_empty c.outstanding then c.last_progress <- t0;
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  (try go 0
   with Unix.Unix_error (e, _, _) -> fail "write: %s" (Unix.error_message e));
  Queue.push { t0; line } c.outstanding

(* Feed received bytes; calls [on_frame sent t1 lines] per reply. *)
let absorb c n on_frame =
  let t1 = now_ns () in
  let rec newline i =
    if i >= n then None
    else if Bytes.unsafe_get c.inbuf i = '\n' then Some i
    else newline (i + 1)
  in
  let rec lines from =
    match newline from with
    | Some i ->
        Buffer.add_subbytes c.part c.inbuf from (i - from);
        let l = Buffer.contents c.part in
        Buffer.clear c.part;
        if l = "" then begin
          let frame = List.rev c.frame in
          c.frame <- [];
          match Queue.take_opt c.outstanding with
          | Some s -> on_frame c s t1 frame
          | None -> fail "reply with no request outstanding: %S" (String.concat "|" frame)
        end
        else c.frame <- l :: c.frame;
        lines (i + 1)
    | None -> Buffer.add_subbytes c.part c.inbuf from (n - from)
  in
  lines 0;
  c.last_progress <- t1

(* The closed loop: each connection keeps up to [window] requests
   outstanding (one unless said otherwise: the protocol is request /
   reply per line) and sends its next line only after a reply frees a
   slot.
   [next c] gives the connection's next (bound) line, or [None] when it
   has no more. Returns once every connection is out of lines and has
   no reply outstanding. A connection that makes no progress for 120 s
   fails the run: one objective-perturbation [train] can take tens of
   seconds. *)
let drive ?(window = 1) conns ~next ~on_frame =
  let active = Array.map (fun _ -> true) conns in
  let fill i c =
    while active.(i) && Queue.length c.outstanding < window do
      match next i c with
      | Some line -> send c line
      | None -> active.(i) <- false
    done
  in
  Array.iteri fill conns;
  let busy () =
    Array.exists (fun c -> not (Queue.is_empty c.outstanding)) conns
  in
  while busy () do
    let fds =
      Array.to_list conns
      |> List.filter (fun c -> not (Queue.is_empty c.outstanding))
      |> List.map (fun c -> c.fd)
    in
    match Unix.select fds [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        Array.iteri
          (fun i c ->
            if List.mem c.fd ready then begin
              match Unix.read c.fd c.inbuf 0 (Bytes.length c.inbuf) with
              | 0 -> fail "server closed connection %d" i
              | n ->
                  absorb c n on_frame;
                  fill i c
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (e, _, _) ->
                  fail "read: %s" (Unix.error_message e)
            end
            else if
              (not (Queue.is_empty c.outstanding))
              && now_ns () - c.last_progress > 120_000_000_000
            then fail "connection %d: no reply for 120 s" i)
          conns
  done

(* ---- accounting shared by every phase of one server ---- *)

type acct = {
  mutable charged : float;  (** Σ eps-charged over ok replies *)
  mutable replies : int;
  mutable failures : int;
  mutable first_error : string option;
  keys : (string, int * int) Hashtbl.t;  (** query line -> (misses, hits) *)
  mutable log : (int * string) list;  (** (conn, line) in send order, reversed *)
}

let new_acct () =
  {
    charged = 0.;
    replies = 0;
    failures = 0;
    first_error = None;
    keys = Hashtbl.create 4096;
    log = [];
  }

let note_error a msg = if a.first_error = None then a.first_error <- Some msg

(* Parse and account one reply; fails the run on a reply the parser
   does not accept. *)
let account a (s : sent) frame =
  match Reply.parse frame with
  | Error msg -> fail "%s (request %S)" msg s.line
  | Ok r ->
      a.replies <- a.replies + 1;
      if Reply.is_ok r then a.charged <- a.charged +. Reply.charged r
      else begin
        a.failures <- a.failures + 1;
        note_error a (Printf.sprintf "%S -> %s" s.line (String.concat "|" frame))
      end;
      (match r with
      | Reply.Query { hit; _ } ->
          let m, h = Option.value ~default:(0, 0) (Hashtbl.find_opt a.keys s.line) in
          Hashtbl.replace a.keys s.line (if hit then (m, h + 1) else (m + 1, h))
      | _ -> ());
      r

(* ---- metrics snapshots ---- *)

type snapshot = Dp_obs.Export.entry list

let parse_snapshot lines =
  match Dp_obs.Export.parse lines with
  | Ok e -> e
  | Error msg -> fail "metrics snapshot: %s" msg

let load_snapshot path =
  match read_file path with
  | s -> parse_snapshot (String.split_on_char '\n' s)
  | exception Sys_error msg -> fail "metrics snapshot: %s" msg

(* A counter summed over every scope. *)
let counter (snap : snapshot) name =
  List.fold_left
    (fun acc -> function
      | Dp_obs.Export.Counter c when c.name = name -> acc + c.value
      | _ -> acc)
    0 snap

(* A gauge summed over the dataset scopes. *)
let dataset_gauge (snap : snapshot) name =
  List.fold_left
    (fun acc -> function
      | Dp_obs.Export.Gauge g when g.name = name && g.scope <> "-" ->
          acc +. g.value
      | _ -> acc)
    0. snap

let dataset_counter (snap : snapshot) name =
  List.fold_left
    (fun acc -> function
      | Dp_obs.Export.Counter c when c.name = name && c.scope <> "-" ->
          acc + c.value
      | _ -> acc)
    0 snap

let journal_bytes dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"journal" f
         && not (Filename.check_suffix f ".lock"))
  |> List.fold_left
       (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
       0

(* ---- one run ---- *)

type timed = {
  lat : Fvec.t;  (** seconds, every request; failures are [infinity] *)
  release : Fvec.t;
  free : Fvec.t;
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
}

type result = {
  w : Gen.workload;
  requests : int;  (** sent in the timed phase *)
  ok : int;
  failed : int;
  wall_s : float;  (** timed phase, first send to last reply *)
  lat : float array;
  release : float array;
  free : float array;
  setup_s : float list;  (** every set-up's time, in order *)
  recovery_s : float;
  rss_mib : float;
  journal_bytes : int;
  cpu_s : float;  (** server CPU over the timed phase *)
  pipeline_s : float;  (** [pipeline_pair] after the timed phase, if probed *)
  life_requests : int;  (** every request the measured server received *)
  delta : string -> int;  (** counter growth over the timed phase *)
  whole : snapshot;  (** drained snapshot: the server's whole life *)
  log : (int * string) array;  (** (conn, bound line), send order *)
  timed_from : int;  (** index in [log] of the first timed line *)
  checks : (string * bool * string) list;  (** name, passed, detail *)
}

(* Bring one server up to the first timed request: spawn, connect,
   setup lines in lockstep, warm-up. *)
let set_up ~dpkit (w : Gen.workload) ~seed dir a =
  let shape = Gen.shape w in
  let journal = Filename.concat dir "journal" in
  let srv =
    spawn ~dpkit ~workers:shape.Gen.workers ~seed ~journal
      ~metrics:(Filename.concat dir "metrics")
      ~errlog:(Filename.concat dir "server.err")
  in
  (* hot's connections share one stream and one model *)
  let shared_stream = ref "$S" and model = ref "$M" in
  let on_frame c s _t1 frame =
    match account a s frame with
    | Reply.Stream_opened { handle; _ } ->
        c.stream <- handle;
        if w = Gen.Hot then shared_stream := handle
    | Reply.Trained { handle; _ } -> model := handle
    | Reply.Overloaded | Reply.Err _ ->
        fail "setup request failed: %S -> %s" s.line (String.concat "|" frame)
    | _ -> ()
  in
  let setup = Gen.setup w ~seed in
  let run_lines i c lines =
    let left = ref lines in
    drive [| c |]
      ~next:(fun _ c ->
        match !left with
        | [] -> None
        | l :: rest ->
            left := rest;
            let line = Gen.bind ~stream:c.stream ~model:!model l in
            a.log <- (i, line) :: a.log;
            Some line)
      ~on_frame
  in
  if setup.Gen.own <> [] then begin
    let c = connect srv.port in
    run_lines 0 c setup.Gen.own;
    close_conn c
  end;
  (* Each load connection opens just before its own set-up lines, in
     order: connection 0 registers the dataset before connection 1
     exists, at N=2 the two land on different workers, and neither
     idles through the other's set-up. *)
  let conns =
    Array.mapi
      (fun i lines ->
        let c = connect srv.port in
        c.stream <- !shared_stream;
        run_lines i c lines;
        c)
      setup.Gen.per_conn
  in
  Array.iter (fun c -> c.model <- !model) conns;
  let gen = Gen.create w ~seed in
  let warm = Array.make Gen.conns shape.Gen.warm in
  drive conns
    ~next:(fun i c ->
      if warm.(i) = 0 then None
      else begin
        warm.(i) <- warm.(i) - 1;
        let it = Gen.next gen i in
        let line = Gen.bind ~stream:c.stream ~model:c.model it.Gen.line in
        a.log <- (i, line) :: a.log;
        Some line
      end)
    ~on_frame:(fun _ s _ frame ->
      match account a s frame with
      | Reply.Overloaded | Reply.Err _ ->
          fail "warm-up request failed: %S -> %s" s.line (String.concat "|" frame)
      | _ -> ());
  (srv, conns, gen)

(* A counters-only snapshot over the protocol's [metrics] command: one
   engine per connection at N=2, one shared engine at N=1. *)
let live_counters conns ~workers =
  let per = Array.make (Array.length conns) [] in
  Array.iteri
    (fun i c ->
      if i < workers then begin
        let sent = ref false in
        drive [| c |]
          ~next:(fun _ _ ->
            if !sent then None
            else begin
              sent := true;
              Some "metrics"
            end)
          ~on_frame:(fun _ s _ frame ->
            match Reply.parse frame with
            | Ok (Reply.Metrics body) ->
                (* a long dump ends in a [truncated=N] trailer; the
                   counters come first and survive the cut *)
                per.(i) <-
                  parse_snapshot
                    (List.filter
                       (fun l -> not (String.starts_with ~prefix:"truncated=" l))
                       body)
            | _ -> fail "metrics request failed: %S" s.line)
      end)
    conns;
  List.concat (Array.to_list per)

let median_of l = Stats.median (Array.of_list l)

let set_ups = 5

(* Two [status] lines written back to back on one connection, timed
   until both replies are read: how the frontend serves a request that
   was already read when the one before it completed. *)
let pipeline_pair c =
  let left = ref 2 in
  let t0 = now_ns () in
  drive ~window:2 [| c |]
    ~next:(fun _ _ ->
      if !left = 0 then None
      else begin
        decr left;
        Some "status"
      end)
    ~on_frame:(fun _ _ _ frame ->
      match Reply.parse frame with
      | Ok (Reply.Status _) -> ()
      | _ -> fail "pipelined status: %s" (String.concat "|" frame));
  secs (now_ns () - t0)

let run ~dpkit ~seed ~seconds ~probe (w : Gen.workload) =
  let shape = Gen.shape w in
  (* set-up is timed [set_ups] times, each on a fresh server; the last
     server is the one measured *)
  let setups = ref [] in
  let rec prepare k =
    let dir = fresh_dir () in
    let a = new_acct () in
    let t0 = now_ns () in
    let srv, conns, gen = set_up ~dpkit w ~seed dir a in
    setups := secs (now_ns () - t0) :: !setups;
    if k < set_ups then begin
      Array.iter close_conn conns;
      stop srv;
      remove_dir dir;
      prepare (k + 1)
    end
    else (dir, a, srv, conns, gen)
  in
  let dir, a, srv, conns, gen = prepare 1 in
  let before = live_counters conns ~workers:shape.Gen.workers in
  let server_pids = pids srv in
  let cpu0 = cpu_seconds server_pids in
  let bytes0 = journal_bytes dir in
  let timed_from = List.length a.log in
  let tm =
    { lat = Fvec.create (); release = Fvec.create (); free = Fvec.create ();
      sent = 0; ok = 0; failed = 0 }
  in
  (* a fixed number of requests, so that counts (fsyncs, journal bytes,
     audit-log memory) repeat exactly; sized to take [seconds] at the
     workload's reference rate, and cut at five times that *)
  let per_conn =
    max 1 (int_of_float (seconds *. shape.Gen.rate /. float Gen.conns))
  in
  let sent = Array.make Gen.conns 0 in
  let start = now_ns () in
  let cutoff = start + int_of_float (5. *. seconds *. 1e9) in
  let last = ref start in
  drive conns
    ~next:(fun i c ->
      if sent.(i) >= per_conn || now_ns () >= cutoff then None
      else begin
        sent.(i) <- sent.(i) + 1;
        let it = Gen.next gen i in
        let line = Gen.bind ~stream:c.stream ~model:c.model it.Gen.line in
        a.log <- (i, line) :: a.log;
        tm.sent <- tm.sent + 1;
        Some line
      end)
    ~on_frame:(fun _ s t1 frame ->
      last := t1;
      let r = account a s frame in
      let dt = secs (t1 - s.t0) in
      if Reply.is_ok r then begin
        tm.ok <- tm.ok + 1;
        Fvec.push tm.lat dt;
        Fvec.push (if Reply.is_release r then tm.release else tm.free) dt
      end
      else begin
        tm.failed <- tm.failed + 1;
        Fvec.push tm.lat infinity
      end);
  let wall_s = secs (!last - start) in
  let cpu_s = cpu_seconds server_pids -. cpu0 in
  let rss_mib = hwm_mib (pids srv) in
  let pipeline_s = if probe then pipeline_pair conns.(0) else nan in
  let bytes = journal_bytes dir - bytes0 in
  Array.iter close_conn conns;
  stop srv;
  let metrics = Filename.concat dir "metrics" in
  let whole = load_snapshot metrics in
  let checks = ref [] in
  let check name ok detail = checks := (name, ok, detail) :: !checks in
  (* the drained snapshot passes the repository's own checker *)
  let stats_ok =
    let out =
      Unix.openfile (Filename.concat dir "stats.out")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close out)
        (fun () ->
          Unix.create_process_env dpkit
            [| dpkit; "stats"; "--check"; metrics |]
            (server_env ()) Unix.stdin out Unix.stderr)
    in
    match waitpid_noeintr [] pid with _, Unix.WEXITED 0 -> true | _ -> false
  in
  check "stats --check" stats_ok metrics;
  let spent = dataset_gauge whole "eps_spent" in
  let tol = 1e-7 *. Float.max 1. spent in
  check "spent = sum of eps-charged"
    (Float.abs (spent -. a.charged) <= tol)
    (Printf.sprintf "snapshot %.9g, replies %.9g" spent a.charged);
  (* at N=1 every query key misses exactly once; at N=2 a repeat that
     lands on the other shard misses again, at most once per shard *)
  let bad_keys =
    Hashtbl.fold
      (fun k (m, _) acc ->
        if m = 1 || (shape.Gen.workers > 1 && m >= 1 && m <= shape.Gen.workers)
        then acc
        else k :: acc)
      a.keys []
  in
  check "cache: one miss per query key"
    (bad_keys = [])
    (match bad_keys with
    | [] -> Printf.sprintf "%d keys" (Hashtbl.length a.keys)
    | k :: _ ->
        let m, h = Hashtbl.find a.keys k in
        Printf.sprintf "%S: %d misses, %d hits" k m h);
  (* recovery: restart on the same journal(s) until [status] answers;
     the recovered ledger must equal the live one *)
  let answered = dataset_counter whole "queries_answered" in
  let recover k =
    let m = Filename.concat dir (Printf.sprintf "metrics.recovered%d" k) in
    let t0 = now_ns () in
    let srv =
      spawn ~dpkit ~workers:shape.Gen.workers ~seed
        ~journal:(Filename.concat dir "journal") ~metrics:m
        ~errlog:(Filename.concat dir (Printf.sprintf "recovered%d.err" k))
    in
    let c = connect srv.port in
    let sent = ref false in
    drive [| c |]
      ~next:(fun _ _ ->
        if !sent then None
        else begin
          sent := true;
          Some "status"
        end)
      ~on_frame:(fun _ _ _ frame ->
        match Reply.parse frame with
        | Ok (Reply.Status _) -> ()
        | _ -> fail "status after restart: %s" (String.concat "|" frame));
    let dt = secs (now_ns () - t0) in
    close_conn c;
    stop srv;
    let snap = load_snapshot m in
    let spent' = dataset_gauge snap "eps_spent"
    and answered' = dataset_counter snap "queries_answered" in
    check
      (Printf.sprintf "recovery %d: spent and answered" k)
      (Float.abs (spent' -. spent) <= tol && answered' = answered)
      (Printf.sprintf "spent %.9g/%.9g answered %d/%d, answered status in %.4f s"
         spent' spent answered' answered dt);
    dt
  in
  let recovery_s = median_of (List.map recover [ 1; 2; 3 ]) in
  let log = Array.of_list (List.rev a.log) in
  let d name = counter whole name - counter before name in
  remove_dir dir;
  {
    w;
    requests = tm.sent;
    ok = tm.ok;
    failed = tm.failed;
    wall_s;
    lat = Fvec.to_array tm.lat;
    release = Fvec.to_array tm.release;
    free = Fvec.to_array tm.free;
    setup_s = List.rev !setups;
    recovery_s;
    rss_mib;
    journal_bytes = bytes;
    cpu_s;
    pipeline_s;
    life_requests = Array.length log;
    delta = d;
    whole;
    log;
    timed_from;
    checks = List.rev !checks;
  }
