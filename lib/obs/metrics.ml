(* Metric registry. A registry holds one scope per label; scope "" is
   the engine-global scope and every other label is a dataset id (the
   registry never invents labels — callers pass them in, and lint rule
   R7 keeps payload-derived strings out of those call sites). All record
   operations are allocation-free array updates; creating a scope is the
   only allocating operation and happens once per dataset at
   registration time. *)

type scope = {
  label : string;
  live : bool;
  counters : int array;
  gauges : float array;
  latencies : Histo.t array;
}

type t = {
  enabled : bool;
  tbl : (string, scope) Hashtbl.t;
  mutable order : string list; (* insertion order, newest first *)
}

let make_scope ~live label =
  {
    label;
    live;
    counters = Array.make Name.n_counters 0;
    gauges = Array.make Name.n_gauges 0.;
    latencies = Array.init Name.n_latencies (fun _ -> Histo.create ());
  }

(* Shared sink for instrumented code that has no registry attached
   (e.g. a journal opened without an engine): records are dropped. *)
let null = make_scope ~live:false ""

let create ?(enabled = true) () =
  let t = { enabled; tbl = Hashtbl.create 8; order = [] } in
  Hashtbl.replace t.tbl "" (make_scope ~live:enabled "");
  t

let enabled t = t.enabled

let scope t label =
  match Hashtbl.find_opt t.tbl label with
  | Some s -> s
  | None ->
      let s = make_scope ~live:t.enabled label in
      Hashtbl.replace t.tbl label s;
      t.order <- label :: t.order;
      s

let global t = scope t ""
let dataset t label = scope t label

let scopes t =
  global t :: List.rev_map (fun l -> Hashtbl.find t.tbl l) (List.rev t.order)

let incr s c =
  if s.live then
    let i = Name.counter_index c in
    s.counters.(i) <- s.counters.(i) + 1

let add s c n =
  if s.live then
    let i = Name.counter_index c in
    s.counters.(i) <- s.counters.(i) + n

let set_counter s c n = if s.live then s.counters.(Name.counter_index c) <- n
let count s c = s.counters.(Name.counter_index c)
let set_gauge s g v = if s.live then s.gauges.(Name.gauge_index g) <- v
let gauge s g = s.gauges.(Name.gauge_index g)
let observe s l v = if s.live then Histo.record s.latencies.(Name.latency_index l) v
let latency s l = s.latencies.(Name.latency_index l)
let set_latency s l h = if s.live then s.latencies.(Name.latency_index l) <- h
let label s = s.label
let live s = s.live

let reset t =
  Hashtbl.iter
    (fun _ s ->
      Array.fill s.counters 0 Name.n_counters 0;
      Array.fill s.gauges 0 Name.n_gauges 0.;
      Array.iter Histo.reset s.latencies)
    t.tbl
