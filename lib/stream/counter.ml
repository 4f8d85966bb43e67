(* Continual-observation counter: the tree (binary) mechanism with
   retained nodes. Binary_mechanism keeps only the O(log T) open
   frontier, which is enough for prefix counts but discards the closed
   dyadic blocks a sliding window needs. Here every closed node is
   kept, so any interval (lo, hi] inside the observed prefix decomposes
   into O(log T) already-noised blocks — prefix reads and window reads
   are both free post-processing of the same node values.

   Only closed nodes are stored: each level's buffer starts empty and
   doubles when a closing node's index reaches its end, capped at the
   level's 2^(L-l) blocks. A stream holds about 2 floats per append
   (at most twice that just after a doubling), independent of the
   declared horizon, so opening a stream costs O(L).

   Noise handling is split in two so the engine can journal it: a
   durable append is [prepare] (compute the noisy values the closing
   nodes would take, drawing fresh noise) followed by [commit] (apply
   given values). Crash recovery replays journaled appends through
   [commit] alone — the recovered tree holds bit-identical node values
   and consumes no PRNG draws, so released counts survive kill -9
   exactly and fresh post-recovery noise can never repeat a pre-crash
   position. *)

type t = {
  epsilon : float;  (* per-level budget: each record meets one node per level *)
  horizon : int;
  levels : int;  (* L: node sizes 2^0 .. 2^(L-1) *)
  nodes : float array array;
      (* nodes.(l).(k): noisy sum of closed block k at level l; the
         buffer nodes.(l) grows as blocks close *)
  acc : int array;  (* true sum of the open block per level *)
  mutable t_now : int;
  mutable true_total : int;
}

(* L = ceil(log2 horizon), min 1: the coarsest retained block is
   2^(L-1) <= horizon, and any sub-interval of [1, horizon] is covered
   by at most two blocks per level. The stream's whole-lifetime face
   charge is epsilon * L — logarithmic in the stream length. *)
let levels ~horizon =
  if horizon < 2 then invalid_arg "Counter.levels: horizon must be >= 2";
  let rec go l = if 1 lsl l >= horizon then l else go (l + 1) in
  go 1

let max_horizon = 1 lsl 20

let create ~epsilon ~horizon =
  if epsilon <= 0. || not (Float.is_finite epsilon) then
    invalid_arg "Counter.create: epsilon must be positive";
  if horizon < 2 || horizon > max_horizon then
    invalid_arg
      (Printf.sprintf "Counter.create: horizon must be in [2, %d]" max_horizon);
  let l = levels ~horizon in
  {
    epsilon;
    horizon;
    levels = l;
    nodes = Array.make l [||];
    acc = Array.make l 0;
    t_now = 0;
    true_total = 0;
  }

let t_now t = t.t_now
let true_count t = t.true_total
let depth t = t.levels

(* Per-node sensitivity is 1 and each level is a disjoint partition of
   time, so Laplace(1/epsilon) per node gives epsilon-DP per level and
   epsilon * L for the stream. *)
let noise_scale t = 1. /. t.epsilon

let closing_levels t step =
  let rec go l acc =
    if l < 0 then acc
    else if step land ((1 lsl l) - 1) = 0 then go (l - 1) (l :: acc)
    else go (l - 1) acc
  in
  go (t.levels - 1) []

let prepare t ~bit ~noise =
  if bit <> 0 && bit <> 1 then
    invalid_arg "Counter.prepare: stream items must be 0 or 1";
  if t.t_now >= t.horizon then
    invalid_arg "Counter.prepare: past the declared horizon";
  let step = t.t_now + 1 in
  Array.of_list
    (List.map
       (fun lvl -> float_of_int (t.acc.(lvl) + bit) +. noise ())
       (closing_levels t step))

let commit t ~bit values =
  if bit <> 0 && bit <> 1 then
    invalid_arg "Counter.commit: stream items must be 0 or 1";
  if t.t_now >= t.horizon then
    invalid_arg "Counter.commit: past the declared horizon";
  let step = t.t_now + 1 in
  let closing = closing_levels t step in
  if Array.length values <> List.length closing then
    invalid_arg "Counter.commit: node value count does not match closing levels";
  (* grow first: an allocation failure must leave no field half-updated *)
  List.iter
    (fun lvl ->
      let buf = t.nodes.(lvl) in
      let len = Array.length buf in
      if (step lsr lvl) - 1 >= len then begin
        let cap = min (max 1 (2 * len)) (1 lsl (t.levels - lvl)) in
        let grown = Array.make cap 0. in
        Array.blit buf 0 grown 0 len;
        t.nodes.(lvl) <- grown
      end)
    closing;
  t.t_now <- step;
  t.true_total <- t.true_total + bit;
  List.iteri
    (fun i lvl ->
      t.nodes.(lvl).((step lsr lvl) - 1) <- values.(i);
      t.acc.(lvl) <- 0)
    closing;
  let rec open_levels l =
    if l < t.levels then begin
      if step land ((1 lsl l) - 1) <> 0 then t.acc.(l) <- t.acc.(l) + bit;
      open_levels (l + 1)
    end
  in
  open_levels 0

(* Canonical decomposition of (lo, hi] into maximal aligned dyadic
   blocks: every chosen block ends at or before hi, so by now it has
   closed and holds a noisy value. At most two blocks per level. *)
let blocks t ~lo ~hi =
  let rec go pos acc =
    if pos >= hi then List.rev acc
    else
      let align =
        if pos = 0 then t.levels - 1
        else
          let rec tz i =
            if i >= t.levels - 1 || pos land ((1 lsl (i + 1)) - 1) <> 0 then i
            else tz (i + 1)
          in
          tz 0
      in
      let rec fit l = if 1 lsl l <= hi - pos then l else fit (l - 1) in
      let l = fit align in
      go (pos + (1 lsl l)) ((l, pos lsr l) :: acc)
  in
  go lo []

let sum_blocks t bs =
  List.fold_left (fun s (l, k) -> s +. t.nodes.(l).(k)) 0. bs

let read t = if t.t_now = 0 then 0. else sum_blocks t (blocks t ~lo:0 ~hi:t.t_now)

let window t ~w =
  if w <= 0 then Error "window must be positive"
  else
    let w = min w t.t_now in
    if w = 0 then Ok 0.
    else Ok (sum_blocks t (blocks t ~lo:(t.t_now - w) ~hi:t.t_now))

(* Exact noise variance of the count released at [t_now]: the number of
   noised blocks in the prefix decomposition times Var(Laplace(1/eps)).
   Tests pin the empirical error against this, and it is O(log^2 t /
   eps_total^2) in terms of the whole-stream budget eps_total = eps*L. *)
let read_variance t =
  if t.t_now = 0 then 0.
  else
    let b = List.length (blocks t ~lo:0 ~hi:t.t_now) in
    float_of_int b *. 2. /. (t.epsilon *. t.epsilon)
