(* Lightweight span tracing. begin_ hands back a handle; end_ stamps
   the duration and pushes a finished span into a fixed-capacity ring
   buffer, overwriting the oldest. Spans nest via a depth counter on the
   tracer. Each span carries at most tag_budget numeric tags — tag keys
   come from the closed Name.tag enum and values are floats, so a span
   can never smuggle a query argument or a released string out. *)

let default_capacity = 256
let tag_budget = 4

type handle = {
  h_name : Name.span;
  h_dataset : string;
  h_start : int;
  h_depth : int;
  tag_keys : Name.tag array;
  tag_vals : float array;
  mutable n_tags : int;
  h_live : bool;
}

type span = {
  name : Name.span;
  dataset : string;
  start_ns : int;
  dur_ns : int;
  depth : int;
  tags : (Name.tag * float) list;
}

type t = {
  enabled : bool;
  capacity : int;
  ring : span option array;
  mutable next : int; (* next write slot *)
  mutable total : int; (* spans ever finished *)
  mutable depth : int; (* current nesting depth *)
  mutable dropped_tags : int;
}

let create ?(capacity = default_capacity) ?(enabled = true) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    enabled;
    capacity;
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    depth = 0;
    dropped_tags = 0;
  }

let dead_handle =
  {
    h_name = Name.Sp_submit;
    h_dataset = "";
    h_start = 0;
    h_depth = 0;
    tag_keys = [||];
    tag_vals = [||];
    n_tags = 0;
    h_live = false;
  }

let begin_ t ?(dataset = "") name =
  if not t.enabled then dead_handle
  else begin
    let h =
      {
        h_name = name;
        h_dataset = dataset;
        h_start = Clock.now_ns ();
        h_depth = t.depth;
        tag_keys = Array.make tag_budget Name.T_eps_face;
        tag_vals = Array.make tag_budget 0.;
        n_tags = 0;
        h_live = true;
      }
    in
    t.depth <- t.depth + 1;
    h
  end

let tag t h key value =
  if h.h_live then begin
    if h.n_tags < tag_budget then begin
      h.tag_keys.(h.n_tags) <- key;
      h.tag_vals.(h.n_tags) <- value;
      h.n_tags <- h.n_tags + 1
    end
    else t.dropped_tags <- t.dropped_tags + 1
  end

let end_ t h =
  if h.h_live then begin
    let dur = Clock.elapsed_ns h.h_start in
    if t.depth > 0 then t.depth <- t.depth - 1;
    let tags =
      let rec go i acc =
        if i < 0 then acc else go (i - 1) ((h.tag_keys.(i), h.tag_vals.(i)) :: acc)
      in
      go (h.n_tags - 1) []
    in
    let s =
      {
        name = h.h_name;
        dataset = h.h_dataset;
        start_ns = h.h_start;
        dur_ns = dur;
        depth = h.h_depth;
        tags;
      }
    in
    t.ring.(t.next) <- Some s;
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

let with_ t ?dataset name f =
  let h = begin_ t ?dataset name in
  Fun.protect ~finally:(fun () -> end_ t h) f

let spans t =
  (* oldest first: slots [next .. cap-1] then [0 .. next-1] *)
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    match t.ring.((t.next + i) mod t.capacity) with
    | Some s -> acc := s :: !acc
    | None -> ()
  done;
  !acc

let total t = t.total
let dropped t = if t.total > t.capacity then t.total - t.capacity else 0
let dropped_tags t = t.dropped_tags
let capacity t = t.capacity
let current_depth t = t.depth
let set_depth t d = t.depth <- max 0 d

let reset t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0;
  t.depth <- 0;
  t.dropped_tags <- 0
