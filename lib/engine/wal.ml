(* ------------------------------------------------------------------ *)
(* Payload encoding: ints and hex floats ([%h] round-trips every finite
   float exactly, which is what makes recovered answers bit-identical)
   terminated by ';', strings length-prefixed. *)

let put_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let put_float b x =
  Buffer.add_string b (Printf.sprintf "%h" x);
  Buffer.add_char b ';'

let put_bool b v = Buffer.add_char b (if v then '1' else '0')

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_opt put b = function
  | None -> put_bool b false
  | Some v ->
      put_bool b true;
      put b v

let put_farr b a =
  put_int b (Array.length a);
  Array.iter (put_float b) a

(* ------------------------------------------------------------------ *)
(* Decoding. Any malformation raises [Corrupt]; the scanner treats the
   corrupt record and everything after it as a torn tail. *)

exception Corrupt

type cursor = { s : string; mutable pos : int }

let get_char c =
  if c.pos >= String.length c.s then raise Corrupt;
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let take_until c sep =
  match String.index_from_opt c.s c.pos sep with
  | None -> raise Corrupt
  | Some i ->
      let tok = String.sub c.s c.pos (i - c.pos) in
      c.pos <- i + 1;
      tok

let get_int c =
  match int_of_string_opt (take_until c ';') with
  | Some n -> n
  | None -> raise Corrupt

let get_float c =
  match float_of_string_opt (take_until c ';') with
  | Some x -> x
  | None -> raise Corrupt

let get_bool c =
  match get_char c with '1' -> true | '0' -> false | _ -> raise Corrupt

let get_str c =
  let n = get_int c in
  if n < 0 || c.pos + n > String.length c.s then raise Corrupt;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt get c = if get_bool c then Some (get c) else None

let get_farr c =
  let n = get_int c in
  if n < 0 || n > 1_000_000 then raise Corrupt;
  Array.init n (fun _ -> get_float c)

type 'r codec = {
  label : string;
  encode : Buffer.t -> 'r -> unit;
  decode : cursor -> 'r;
}

let decode codec payload =
  let c = { s = payload; pos = 0 } in
  let r = codec.decode c in
  if c.pos <> String.length payload then raise Corrupt;
  r

(* ------------------------------------------------------------------ *)
(* Framing: length, Adler-32, payload. Both sides truncate the checksum
   into an Int32, so comparison happens in the Int32 domain. *)

let max_payload = 16 * 1024 * 1024

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun ch ->
      a := (!a + Char.code ch) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  Int32.of_int ((!b lsl 16) lor !a)

let frame codec r =
  let b = Buffer.create 128 in
  codec.encode b r;
  let payload = Buffer.contents b in
  let hdr = Bytes.create 8 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be hdr 4 (adler32 payload);
  Bytes.to_string hdr ^ payload

(* Longest valid frame prefix of [content]: the records it holds and
   the offset where the first torn/corrupt frame (if any) starts. *)
let scan codec content =
  let size = String.length content in
  let rec go off acc =
    if off + 8 > size then (List.rev acc, off)
    else
      let len = Int32.to_int (String.get_int32_be content off) in
      if len < 0 || len > max_payload || off + 8 + len > size then
        (List.rev acc, off)
      else
        let payload = String.sub content (off + 8) len in
        if String.get_int32_be content (off + 4) <> adler32 payload then
          (List.rev acc, off)
        else
          match decode codec payload with
          | r -> go (off + 8 + len) (r :: acc)
          | exception Corrupt -> (List.rev acc, off)
  in
  go 0 []

(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error msg -> Error msg)

(* a missing log is an empty one *)
let read_log codec path =
  let content = if Sys.file_exists path then read_file path else Ok "" in
  Result.map_error (Printf.sprintf "%s %s: %s" codec.label path) content

let load codec path =
  Result.map
    (fun content ->
      let records, good = scan codec content in
      (records, String.length content - good))
    (read_log codec path)

(* ------------------------------------------------------------------ *)

type 'r t = {
  codec : 'r codec;
  path : string;
  fd : Unix.file_descr;
  faults : Faults.t;
  obs : Dp_obs.Metrics.scope;
  jitter : Dp_rng.Prng.t option;
      (** non-privacy stream for retry-backoff full jitter *)
  id : int;  (** tells logs apart in a group commit *)
  mutable clean_off : int;  (** end of the last fully-appended frame *)
  mutable frames : int;  (** frames in the file: the next frame's ordinal *)
  mutable unsynced : bool;  (** a frame was written since the last fsync *)
  mutable poisoned : bool;
}

let path t = t.path
let frames t = t.frames
let next_id = ref 0

(* The fsync that makes every frame written so far durable, with the
   append's retry policy (fault point {!Faults.Journal_fsync}). A log
   with nothing unsynced has nothing to do. *)
let sync_log t =
  if not t.unsynced then Ok ()
  else begin
    let f0 = Dp_obs.Clock.now_ns () in
    let synced =
      Faults.with_retries ?jitter:t.jitter (fun ~attempt ->
          if attempt > 1 then
            Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_retries;
          Faults.check t.faults ~attempt Faults.Journal_fsync;
          Unix.fsync t.fd)
    in
    Dp_obs.Metrics.observe t.obs Dp_obs.Name.Journal_fsync_ns
      (Dp_obs.Clock.elapsed_ns f0);
    if Result.is_ok synced then begin
      t.unsynced <- false;
      Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_fsyncs
    end;
    synced
  end

let close t =
  ignore (sync_log t);
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* A freshly-created log is not durable until its directory entry is:
   without an fsync of the parent directory, a crash shortly after
   creation can lose the file itself, and recovery — which treats a
   missing log as empty — would silently hand back the full budget.
   EINVAL means the filesystem does not support fsync on directories;
   nothing more can be done there. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try Unix.fsync fd
      with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let open_ ?(faults = Faults.none) ?(obs = Dp_obs.Metrics.null) ?jitter codec
    path =
  match read_log codec path with
  | Error msg -> Error msg
  | Ok content -> (
      let records, good = scan codec content in
      let torn = String.length content - good in
      let existed = Sys.file_exists path in
      try
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
        in
        if not existed then fsync_dir path;
        if torn > 0 then Unix.ftruncate fd good;
        incr next_id;
        Ok
          ( {
              codec;
              path;
              fd;
              faults;
              obs;
              jitter;
              id = !next_id;
              clean_off = good;
              frames = List.length records;
              unsynced = false;
              poisoned = false;
            },
            records,
            torn )
      with
      | Unix.Unix_error (e, fn, _) ->
          Error
            (Printf.sprintf "%s %s: %s: %s" codec.label path fn
               (Unix.error_message e))
      | Sys_error msg -> Error (Printf.sprintf "%s %s: %s" codec.label path msg))

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.single_write_substring fd s off (len - off))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Group commit: the parking itself is {!Park}'s. *)

let await = Park.await

let group ?trace ?(more = fun () -> []) jobs =
  let depth () =
    match trace with Some tr -> Dp_obs.Span.current_depth tr | None -> 0
  in
  let set_depth d = Option.iter (fun tr -> Dp_obs.Span.set_depth tr d) trace in
  Park.run ~depth ~set_depth ~more jobs

let append ?(sync = true) t record =
  let label = t.codec.label in
  if t.poisoned then
    Error (`Fatal (Printf.sprintf "%s poisoned by an earlier failure" label))
  else
    let t0 = Dp_obs.Clock.now_ns () in
    let framed = frame t.codec record in
    let write =
      Faults.with_retries ?jitter:t.jitter (fun ~attempt ->
          (* a failed earlier attempt may have left a partial frame:
             O_APPEND writes land at the end, so cut back to the last
             clean frame boundary before writing again *)
          if attempt > 1 then begin
            Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_retries;
            Unix.ftruncate t.fd t.clean_off
          end;
          Faults.check t.faults ~attempt Faults.Journal_write;
          write_all t.fd framed)
    in
    match write with
    | Error msg -> (
        (* leave the file at a clean frame boundary; if even that is
           impossible the log can no longer be trusted *)
        match Unix.ftruncate t.fd t.clean_off with
        | () ->
            Error (`Transient (Printf.sprintf "%s write failed: %s" label msg))
        | exception Unix.Unix_error _ ->
            t.poisoned <- true;
            Error
              (`Fatal
                (Printf.sprintf
                   "%s write failed and the file could not be repaired: %s"
                   label msg)))
    | Ok () -> (
        t.clean_off <- t.clean_off + String.length framed;
        t.frames <- t.frames + 1;
        t.unsynced <- true;
        Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_appends;
        let synced =
          if not sync then Ok ()
          else Park.durable ~id:t.id ~sync:(fun () -> sync_log t)
        in
        match synced with
        | Ok () ->
            Dp_obs.Metrics.observe t.obs Dp_obs.Name.Journal_append_ns
              (Dp_obs.Clock.elapsed_ns t0);
            Ok ()
        | Error msg ->
            (* the frame is intact but not durably on disk: the caller
               must withhold what it authorizes, but may retry later *)
            Error
              (`Transient (Printf.sprintf "%s fsync failed: %s" label msg)))
