open Dp_mechanism

type charge_record = {
  dataset : string;
  analyst : string option;
  query : string;
  mechanism : string;
  face : Privacy.budget;
  marginal : Privacy.budget;
  rho : float array option;
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
  handle : string;
  backend : string;
  epsilon : float;
  chains : int;
  steps : int;
  beta : float;
  face : Privacy.budget;
  target : string;
  features : (string * float * float) array;
  theta : float array option;
  rhat : float array;
  ess : float array;
  acceptance : float;
}

type stream_open_record = {
  dataset : string;
  handle : string;
  epsilon : float;
  horizon : int;
  window : int;
}

type stream_append_record = {
  dataset : string;
  handle : string;
  bit : int;
  nodes : float array;
      (* the noisy values taken by the tree nodes closing at this step,
         lowest level first — hex-float round-tripped, so a recovered
         tree holds bit-identical state and replay consumes no draws *)
}

type record =
  | Register of { name : string; rows : int; seed : int; policy : Registry.policy }
  | Charge of charge_record
  | Cache_insert of cache_record
  | Withheld of { dataset : string; reason : string; frames : int list }
  | Train of train_record
  | Stream_open of stream_open_record
  | Stream_append of stream_append_record

type stats = { records : int; torn_bytes : int }

(* ------------------------------------------------------------------ *)
(* Payload encoding and decoding, with {!Wal}'s primitives. *)

open Wal

let put_budget b (x : Privacy.budget) =
  put_float b x.Privacy.epsilon;
  put_float b x.Privacy.delta

let put_backend b = function
  | Ledger.Basic -> Buffer.add_char b 'b'
  | Ledger.Advanced { slack } ->
      Buffer.add_char b 'a';
      put_float b slack
  | Ledger.Rdp { delta } ->
      Buffer.add_char b 'r';
      put_float b delta

let put_policy b (p : Registry.policy) =
  put_budget b p.Registry.total;
  put_backend b p.Registry.backend;
  put_float b p.Registry.default_epsilon;
  put_opt put_float b p.Registry.analyst_epsilon;
  put_int b p.Registry.universe;
  put_bool b p.Registry.cache;
  put_float b p.Registry.low_water

let put_mechanism b (m : Planner.mechanism) =
  Buffer.add_char b
    (match m with
    | Planner.Laplace -> 'l'
    | Planner.Geometric -> 'g'
    | Planner.Exponential -> 'e'
    | Planner.Discrete_gaussian -> 'd')

let put_answer b = function
  | Planner.Scalar v ->
      Buffer.add_char b 's';
      put_float b v
  | Planner.Vector vs ->
      Buffer.add_char b 'v';
      put_farr b vs

let encode b = function
  | Register { name; rows; seed; policy } ->
      Buffer.add_char b 'R';
      put_str b name;
      put_int b rows;
      put_int b seed;
      put_policy b policy
  | Charge c ->
      Buffer.add_char b 'C';
      put_str b c.dataset;
      put_opt put_str b c.analyst;
      put_str b c.query;
      put_str b c.mechanism;
      put_budget b c.face;
      put_budget b c.marginal;
      put_opt put_farr b c.rho
  | Cache_insert k ->
      Buffer.add_char b 'K';
      put_str b k.dataset;
      put_str b k.key;
      put_mechanism b k.mechanism;
      put_budget b k.requested;
      put_answer b k.answer
  | Withheld { dataset; reason; frames = [] } ->
      Buffer.add_char b 'W';
      put_str b dataset;
      put_str b reason
  | Withheld { dataset; reason; frames } ->
      Buffer.add_char b 'M';
      put_str b dataset;
      put_str b reason;
      put_int b (List.length frames);
      List.iter (put_int b) frames
  | Train m ->
      Buffer.add_char b 'T';
      put_str b m.dataset;
      put_str b m.handle;
      put_str b m.backend;
      put_float b m.epsilon;
      put_int b m.chains;
      put_int b m.steps;
      put_float b m.beta;
      put_budget b m.face;
      put_str b m.target;
      put_int b (Array.length m.features);
      Array.iter
        (fun (name, lo, hi) ->
          put_str b name;
          put_float b lo;
          put_float b hi)
        m.features;
      put_opt put_farr b m.theta;
      put_farr b m.rhat;
      put_farr b m.ess;
      put_float b m.acceptance
  | Stream_open s ->
      Buffer.add_char b 'S';
      put_str b s.dataset;
      put_str b s.handle;
      put_float b s.epsilon;
      put_int b s.horizon;
      put_int b s.window
  | Stream_append a ->
      Buffer.add_char b 'A';
      put_str b a.dataset;
      put_str b a.handle;
      put_int b a.bit;
      put_farr b a.nodes

let get_budget c =
  let epsilon = get_float c in
  let delta = get_float c in
  { Privacy.epsilon; delta }

let get_backend c =
  match get_char c with
  | 'b' -> Ledger.Basic
  | 'a' -> Ledger.Advanced { slack = get_float c }
  | 'r' -> Ledger.Rdp { delta = get_float c }
  | _ -> raise Corrupt

let get_policy c =
  let total = get_budget c in
  let backend = get_backend c in
  let default_epsilon = get_float c in
  let analyst_epsilon = get_opt get_float c in
  let universe = get_int c in
  let cache = get_bool c in
  let low_water = get_float c in
  {
    Registry.total;
    backend;
    default_epsilon;
    analyst_epsilon;
    universe;
    cache;
    low_water;
  }

let get_mechanism c =
  match get_char c with
  | 'l' -> Planner.Laplace
  | 'g' -> Planner.Geometric
  | 'e' -> Planner.Exponential
  | 'd' -> Planner.Discrete_gaussian
  | _ -> raise Corrupt

let get_answer c =
  match get_char c with
  | 's' -> Planner.Scalar (get_float c)
  | 'v' -> Planner.Vector (get_farr c)
  | _ -> raise Corrupt

let decode c =
  match get_char c with
  | 'R' ->
      let name = get_str c in
      let rows = get_int c in
      let seed = get_int c in
      let policy = get_policy c in
      Register { name; rows; seed; policy }
  | 'C' ->
      let dataset = get_str c in
      let analyst = get_opt get_str c in
      let query = get_str c in
      let mechanism = get_str c in
      let face = get_budget c in
      let marginal = get_budget c in
      let rho = get_opt get_farr c in
      Charge { dataset; analyst; query; mechanism; face; marginal; rho }
  | 'K' ->
      let dataset = get_str c in
      let key = get_str c in
      let mechanism = get_mechanism c in
      let requested = get_budget c in
      let answer = get_answer c in
      Cache_insert { dataset; key; answer; mechanism; requested }
  | 'W' ->
      let dataset = get_str c in
      let reason = get_str c in
      Withheld { dataset; reason; frames = [] }
  | 'M' ->
      let dataset = get_str c in
      let reason = get_str c in
      let n = get_int c in
      if n < 1 || n > 1_000 then raise Corrupt;
      let frames = List.init n (fun _ -> get_int c) in
      if List.exists (fun f -> f < 0) frames then raise Corrupt;
      Withheld { dataset; reason; frames }
  | 'T' ->
      let dataset = get_str c in
      let handle = get_str c in
      let backend = get_str c in
      let epsilon = get_float c in
      let chains = get_int c in
      let steps = get_int c in
      let beta = get_float c in
      let face = get_budget c in
      let target = get_str c in
      let n_features = get_int c in
      if n_features < 0 || n_features > 100_000 then raise Corrupt;
      let features =
        Array.init n_features (fun _ ->
            let name = get_str c in
            let lo = get_float c in
            let hi = get_float c in
            (name, lo, hi))
      in
      let theta = get_opt get_farr c in
      let rhat = get_farr c in
      let ess = get_farr c in
      let acceptance = get_float c in
      Train
        {
          dataset;
          handle;
          backend;
          epsilon;
          chains;
          steps;
          beta;
          face;
          target;
          features;
          theta;
          rhat;
          ess;
          acceptance;
        }
  | 'S' ->
      let dataset = get_str c in
      let handle = get_str c in
      let epsilon = get_float c in
      let horizon = get_int c in
      let window = get_int c in
      Stream_open { dataset; handle; epsilon; horizon; window }
  | 'A' ->
      let dataset = get_str c in
      let handle = get_str c in
      let bit = get_int c in
      let nodes = get_farr c in
      Stream_append { dataset; handle; bit; nodes }
  | _ -> raise Corrupt

let codec = { label = "journal"; encode; decode }

(* ------------------------------------------------------------------ *)

type t = record Wal.t

let with_stats (records, torn_bytes) =
  (records, { records = List.length records; torn_bytes })

let load path = Result.map with_stats (Wal.load codec path)

let open_ ?faults ?obs ?jitter path =
  Result.map
    (fun (t, records, torn) ->
      let records, stats = with_stats (records, torn) in
      (t, records, stats))
    (Wal.open_ ?faults ?obs ?jitter codec path)

let append ?sync t r = Wal.append ?sync t r
let frames = Wal.frames
let path = Wal.path
let close = Wal.close
