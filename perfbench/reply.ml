(* Parser for the reply frames of the dpkit line protocol.

   Over TCP every reply is a frame: one header line, any number of
   lines indented two spaces, and an empty terminator line. [parse]
   takes the frame's lines without the terminator. Only the shapes the
   benchmark provokes are accepted; anything else is an error, which
   fails the run. *)

type t =
  | Registered
  | Query of { charged : float; hit : bool }
  | Stream_opened of { handle : string; charged : float }
  | Appended of { t_now : int }
  | Stream_count
  | Trained of { handle : string; charged : float }
  | Predicted
  | Status of { spent : float; answered : int }
      (** the first dataset's [eps-spent] and [answered] *)
  | Metrics of string list  (** the dump, indentation removed *)
  | Overloaded
  | Err of string  (** the error class: [bad-query], [transient], ... *)

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let field key toks =
  let p = key ^ "=" in
  let lp = String.length p in
  List.find_map
    (fun tok ->
      if String.length tok >= lp && String.sub tok 0 lp = p then
        Some (String.sub tok lp (String.length tok - lp))
      else None)
    toks

let ( let* ) = Result.bind

let need key toks =
  match field key toks with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "reply has no %s=" key)

let float_field key toks =
  let* v = need key toks in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad %s=%s" key v)

let int_field key toks =
  let* v = need key toks in
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad %s=%s" key v)

let unindent l =
  if String.length l >= 2 && String.sub l 0 2 = "  " then
    Ok (String.sub l 2 (String.length l - 2))
  else Error (Printf.sprintf "continuation line not indented: %S" l)

let rec all_ok = function
  | [] -> Ok []
  | x :: rest ->
      let* y = x in
      let* ys = all_ok rest in
      Ok (y :: ys)

let parse lines =
  match lines with
  | [] -> Error "empty reply"
  | header :: rest -> (
      let* body = all_ok (List.map unindent rest) in
      let toks = words header in
      match toks with
      | "ok" :: "registered" :: _ -> Ok Registered
      | "ok" :: seq :: _ when String.length seq > 4 && String.sub seq 0 4 = "seq="
        -> (
          let* charged = float_field "eps-charged" toks in
          match field "cache" toks with
          | Some "hit" -> Ok (Query { charged; hit = true })
          | Some "miss" -> Ok (Query { charged; hit = false })
          | _ -> Error "query reply without cache=hit|miss")
      | "ok" :: "stream" :: _ ->
          let* handle = need "handle" toks in
          let* charged = float_field "eps-charged" toks in
          Ok (Stream_opened { handle; charged })
      | "ok" :: "append" :: _ ->
          let* t_now = int_field "t" toks in
          Ok (Appended { t_now })
      | "ok" :: ("stream-read" | "stream-window") :: _ ->
          let* _ = float_field "count" toks in
          Ok Stream_count
      | "ok" :: "trained" :: _ ->
          let* handle = need "model" toks in
          let* charged = float_field "eps-charged" toks in
          if field "released" toks = Some "yes" then
            Ok (Trained { handle; charged })
          else Error "model not released"
      | "ok" :: "predict" :: _ ->
          let* _ = float_field "value" toks in
          Ok Predicted
      | "ok" :: "status" :: _ -> (
          match body with
          | ds :: _ ->
              let dtoks = words ds in
              let* spent = float_field "eps-spent" dtoks in
              let* answered = int_field "answered" dtoks in
              Ok (Status { spent; answered })
          | [] -> Error "status reply lists no dataset")
      | "ok" :: "metrics" :: _ -> Ok (Metrics body)
      | "err" :: "overloaded" :: _ -> Ok Overloaded
      | "err" :: cls :: _ -> Ok (Err cls)
      | _ -> Error (Printf.sprintf "unrecognised reply %S" header))

(* ε this reply charged; zero for everything that is not a release. *)
let charged = function
  | Query { charged; _ } | Stream_opened { charged; _ } | Trained { charged; _ }
    ->
      charged
  | _ -> 0.

(* A release pays ε or an fsync on the server's critical path: a fresh
   query or an append. Everything else that succeeds is free. *)
let is_release = function
  | Query { hit; _ } -> not hit
  | Appended _ -> true
  | _ -> false

let is_ok = function Overloaded | Err _ -> false | _ -> true
