(* The coordinator's grant write-ahead log: the record type and its
   codec over the engine's durable log ({!Dp_engine.Wal}), which owns
   the frame format, torn-tail repair and the append policy. Records are
   absolute (cumulative leased ε, absolute reclaimed spend), so
   replaying a prefix of the log after a coordinator crash reconstructs
   a state the shard journals can only refine, never contradict. *)

module Wal = Dp_engine.Wal
open Wal

type record =
  | Dataset of { name : string; eps : float; line : string }
  | Incarnation of { shard : int; token : int }
  | Grant of {
      shard : int;
      token : int;
      dataset : string;
      leased : float;
      deadline : float;
    }
  | Reclaim of { shard : int; token : int; dataset : string; spent : float }

let encode b = function
  | Dataset { name; eps; line } ->
      Buffer.add_char b 'D';
      put_str b name;
      put_float b eps;
      put_str b line
  | Incarnation { shard; token } ->
      Buffer.add_char b 'I';
      put_int b shard;
      put_int b token
  | Grant { shard; token; dataset; leased; deadline } ->
      Buffer.add_char b 'G';
      put_int b shard;
      put_int b token;
      put_str b dataset;
      put_float b leased;
      put_float b deadline
  | Reclaim { shard; token; dataset; spent } ->
      Buffer.add_char b 'R';
      put_int b shard;
      put_int b token;
      put_str b dataset;
      put_float b spent

let decode c =
  match get_char c with
  | 'D' ->
      let name = get_str c in
      let eps = get_float c in
      let line = get_str c in
      Dataset { name; eps; line }
  | 'I' ->
      let shard = get_int c in
      let token = get_int c in
      Incarnation { shard; token }
  | 'G' ->
      let shard = get_int c in
      let token = get_int c in
      let dataset = get_str c in
      let leased = get_float c in
      let deadline = get_float c in
      Grant { shard; token; dataset; leased; deadline }
  | 'R' ->
      let shard = get_int c in
      let token = get_int c in
      let dataset = get_str c in
      let spent = get_float c in
      Reclaim { shard; token; dataset; spent }
  | _ -> raise Corrupt

let codec = { label = "grant wal"; encode; decode }

type t = record Wal.t

let open_ ?faults path = Wal.open_ ?faults codec path
let load path = Wal.load codec path

let append t record =
  Result.map_error
    (function `Transient msg | `Fatal msg -> msg)
    (Wal.append t record)

let path = Wal.path
let close = Wal.close
