open Dp_mechanism

type verdict = Answered | Rejected of string | Charged_unreleased of string

type record = {
  seq : int;
  analyst : string option;
  dataset : string;
  query : string;
  mechanism : string option;
  requested : Privacy.budget;
  charged : Privacy.budget;
  verdict : verdict;
}

type hits = {
  query : string;
  mechanism : string;
  requested : Privacy.budget;
  mutable count : int;
  first : int;
  mutable last : int;
}

(* One dataset's share of the log: its records newest first, and a hit
   counter per (query, requested) key. *)
type per_dataset = {
  mutable rev : record list;
  counters : (string * Privacy.budget, hits) Hashtbl.t;
}

type t = { mutable n : int; by_dataset : (string, per_dataset) Hashtbl.t }

let create () = { n = 0; by_dataset = Hashtbl.create 8 }

let per_dataset t name =
  match Hashtbl.find_opt t.by_dataset name with
  | Some d -> d
  | None ->
      let d = { rev = []; counters = Hashtbl.create 16 } in
      Hashtbl.replace t.by_dataset name d;
      d

let next_seq t =
  let seq = t.n in
  t.n <- seq + 1;
  seq

let append t ?analyst ?mechanism ~dataset ~query ~requested ~charged ~verdict
    () =
  let d = per_dataset t dataset in
  let r =
    {
      seq = next_seq t;
      analyst;
      dataset;
      query;
      mechanism;
      requested;
      charged;
      verdict;
    }
  in
  d.rev <- r :: d.rev;
  r

let hit t ~mechanism ~dataset ~query ~requested =
  let d = per_dataset t dataset in
  let seq = next_seq t in
  (match Hashtbl.find_opt d.counters (query, requested) with
  | Some h ->
      h.count <- h.count + 1;
      h.last <- seq
  | None ->
      Hashtbl.replace d.counters (query, requested)
        { query; mechanism; requested; count = 1; first = seq; last = seq });
  seq

let for_dataset t name =
  match Hashtbl.find_opt t.by_dataset name with
  | None -> []
  | Some d -> List.rev d.rev

let hits t name =
  match Hashtbl.find_opt t.by_dataset name with
  | None -> []
  | Some d ->
      Hashtbl.fold (fun _ h acc -> h :: acc) d.counters []
      |> List.sort (fun a b -> Int.compare a.first b.first)

let to_events t name =
  List.filter_map
    (fun r ->
      match r.verdict with
      | Answered | Charged_unreleased _ ->
          (* a charge whose answer was withheld (journal or RNG failure
             after the ledger committed) still consumed budget: the
             replayed trace must account for it *)
          Some { Dp_audit.Replay.label = r.query; budget = r.charged }
      | Rejected _ -> None)
    (for_dataset t name)

let verdict_string = function
  | Answered -> "answered"
  | Rejected reason -> "rejected:" ^ reason
  | Charged_unreleased reason -> "charged-unreleased:" ^ reason

(* every record is a miss: hits are counted, not recorded *)
let pp_record fmt r =
  Format.fprintf fmt
    "#%d %s %s %s mech=%s requested=%a charged=%a cache=miss %s" r.seq
    (match r.analyst with Some a -> a | None -> "-")
    r.dataset r.query
    (match r.mechanism with Some m -> m | None -> "-")
    Privacy.pp_budget r.requested Privacy.pp_budget r.charged
    (verdict_string r.verdict)

let pp_hits fmt h =
  Format.fprintf fmt
    "hits query=%s mech=%s requested=%a count=%d first=#%d last=#%d" h.query
    h.mechanism Privacy.pp_budget h.requested h.count h.first h.last
