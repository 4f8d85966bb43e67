(* Workloads and the seeded request generator.

   A run's request lines are a pure function of (workload, seed): the
   server receives only these lines, so two runs with one seed send the
   same bytes and counts such as fsyncs and draws repeat. Lines are
   generated as one merged sequence; line [g] belongs to connection
   [g mod 2], so a repeat may name a query either connection sent. Two
   placeholders are bound after setup, per connection: [$S] (the
   connection's stream handle) and [$M] (the model handle). *)

module Prng = Dp_rng.Prng

type workload = Hot | Scan | Commit | Pool

let all = [ Hot; Scan; Commit; Pool ]

let name = function
  | Hot -> "hot"
  | Scan -> "scan"
  | Commit -> "commit"
  | Pool -> "pool"

let of_name s = List.find_opt (fun w -> name w = s) all

let conns = 2

type shape = {
  rows : int;
  workers : int;  (** server processes: 1 is plain [dpkit serve] *)
  warm : int;  (** untimed lines per connection sent after setup *)
  rate : float;
      (** requests per second a loaded 2-vCPU reference VM sustains: a
          run sends [seconds * rate] requests *)
}

(* [pool] sends [commit]'s request count as well as its sequence, so
   the two send the same lines byte for byte. *)
let shape = function
  | Hot -> { rows = 4096; workers = 1; warm = 1024; rate = 12000. }
  | Scan -> { rows = 65536; workers = 1; warm = 24; rate = 120. }
  | Commit -> { rows = 1024; workers = 1; warm = 512; rate = 3500. }
  | Pool -> { rows = 1024; workers = 2; warm = 512; rate = 3500. }

type kind =
  | Fresh  (** a query never sent before in the run: charged *)
  | Repeat  (** an earlier query of the run, byte for byte: a cache hit *)
  | Read  (** [stream read] / [stream window]: free *)
  | Predict  (** free post-processing of the released model *)
  | Append  (** a stream append: pre-paid, journaled *)

let kind_name = function
  | Fresh -> "fresh"
  | Repeat -> "repeat"
  | Read -> "read"
  | Predict -> "predict"
  | Append -> "append"

type item = { line : string; kind : kind }

let dataset = "demo"

(* A budget no run can exhaust: every fresh release charges about 0.01
   and a run sends well under 10^6 requests. *)
let budget = 1e8

let register_line w =
  Printf.sprintf "register %s rows=%d eps=%.0f default-eps=0.01" dataset
    (shape w).rows budget

let hot_primes = 256
let hot_appends = 2048

(* The primed queries of [hot], distinct by construction: four query
   families, each indexed by [i]. *)
let primes st =
  Array.init hot_primes (fun i ->
      let j = 0.1 *. Prng.float st in
      match i mod 4 with
      | 0 -> Printf.sprintf "query demo count(age>%.4f)" (18. +. (0.2 *. float i) +. j)
      | 1 -> Printf.sprintf "query demo count(income<=%.2f)" ((700. *. float i) +. j)
      | 2 -> Printf.sprintf "query demo histogram(score,%d)" (4 + (i / 4))
      | _ -> Printf.sprintf "query demo mean(income) eps=%.5f" (0.02 +. (1e-5 *. float i)))

(* The model [hot] predicts from. Objective perturbation minimises by
   gradient descent from a noisy objective. At the default
   [lambda=0.1] on 4,096 rows about three trains in ten take ≈25 s
   instead of ≈0.1 s, depending on the noise; at [lambda=1] none of 40
   took more than 0.1 s. Set-up uses [lambda=1], so that set-up time
   can be bounded; the traced run times the default on its own
   ([train.objpert_fit_ms]), so the slow case stays measured. *)
let objpert_train ~lambda =
  Printf.sprintf "train demo eps=0.1 backend=objpert lambda=%g" lambda

(* Set-up lines, run in lockstep before any timing. [own] runs first,
   on a connection of its own that is closed before the load
   connections open: a [train] can outlast the server's idle timeout,
   and the server closes a connection once a request has run past it.
   [per_conn.(i)] then runs on load connection [i], in order of [i]:
   at N=2 a stream lives on the worker that opened it. *)
type setup = { own : string list; per_conn : string list array }

let setup w ~seed =
  let st = Prng.create ((seed * 31) + 7) in
  match w with
  | Hot ->
      let ps = Array.to_list (primes st) in
      let appends =
        List.init hot_appends (fun _ ->
            Printf.sprintf "append $S %d" (Prng.int st 2))
      in
      {
        own =
          (register_line w :: ps)
          @ [ "stream new demo eps=0.5 N=4096 window=64" ]
          @ appends
          @ [ objpert_train ~lambda:1. ];
        per_conn = [| []; [] |];
      }
  | Scan -> { own = []; per_conn = [| [ register_line w ]; [] |] }
  | Commit | Pool ->
      let open_stream = "stream new demo eps=0.5 N=1048576" in
      { own = []; per_conn = [| [ register_line w; open_stream ]; [ open_stream ] |] }

(* Zipf(s) over [n] ranks, by inverse CDF. *)
let zipf_cdf n s =
  let w = Array.init n (fun k -> 1. /. (float (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let draw_cdf cdf u =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

type t = {
  w : workload;
  st : Prng.t;
  primes : string array;
  zipf : float array;
  mutable g : int;  (** next merged index *)
  mutable fresh_k : int;  (** fresh thresholds issued *)
  mutable eps_k : int;  (** fresh ε values issued *)
  mutable history : string array;  (** fresh query lines, merged order *)
  mutable n_history : int;
  pending : item Queue.t array;  (** generated, not yet taken, per conn *)
  block : int array;  (** a shuffled permutation of the 100 mix slots *)
  mutable slot : int;
}

let create w ~seed =
  let setup_st = Prng.create ((seed * 31) + 7) in
  let primes = primes setup_st in
  {
    w;
    (* pool replays commit's sequence: same generator, same seed *)
    st =
      Prng.create
        ((seed * 31) + 11 + (1000003 * Hashtbl.hash (name (if w = Pool then Commit else w))));
    primes;
    zipf = zipf_cdf hot_primes 1.1;
    g = 0;
    fresh_k = 0;
    eps_k = 0;
    history = Array.make 1024 "";
    n_history = 0;
    pending = Array.init conns (fun _ -> Queue.create ());
    block = Array.init 100 Fun.id;
    slot = 100;
  }

(* The mix is stratified: every 100 consecutive lines hold each kind in
   exactly its share, in an order shuffled by the seed, so a run's cost
   does not drift with how many expensive queries a seed happens to
   draw. Returns a point in [0, 1) whose position picks the kind. *)
let mix_point t =
  if t.slot = 100 then begin
    for i = 99 downto 1 do
      let j = Prng.int t.st (i + 1) in
      let x = t.block.(i) in
      t.block.(i) <- t.block.(j);
      t.block.(j) <- x
    done;
    t.slot <- 0
  end;
  let v = t.block.(t.slot) in
  t.slot <- t.slot + 1;
  (float v +. 0.5) /. 100.

(* A fresh ε: distinct on every call for the first 10^5 calls, and
   printed with few enough digits that the server's [%g] echo of the
   charge is exact. *)
let fresh_eps t =
  t.eps_k <- t.eps_k + 1;
  Printf.sprintf "%.7f" (0.01 +. (1e-7 *. float t.eps_k))

(* A threshold never used before in the run for [col]. *)
let fresh_threshold t col =
  t.fresh_k <- t.fresh_k + 1;
  let k = float t.fresh_k in
  match col with
  | "age" -> Printf.sprintf "%.4f" (18. +. (k *. 1e-4))
  | "income" -> Printf.sprintf "%.2f" (k *. 0.01)
  | _ -> Printf.sprintf "%.5f" (-4. +. (k *. 1e-5))

let pick st a = a.(Prng.int st (Array.length a))
let ops = [| "<="; "<"; ">="; ">" |]

let fresh t line =
  if t.n_history = Array.length t.history then
    t.history <-
      Array.append t.history (Array.make (Array.length t.history) "");
  t.history.(t.n_history) <- line;
  t.n_history <- t.n_history + 1;
  { line; kind = Fresh }

let repeat_or_fresh t make_fresh =
  if t.n_history = 0 then make_fresh ()
  else { line = t.history.(Prng.int t.st t.n_history); kind = Repeat }

let fresh_count t =
  let col = pick t.st [| "age"; "income"; "score" |] in
  let op = pick t.st ops in
  fresh t (Printf.sprintf "query demo count(%s%s%s)" col op (fresh_threshold t col))

(* [u] in [0, 0.75) picks the kind of fresh release. *)
let scan_fresh t u =
  if u < 0.30 then fresh_count t
  else if u < 0.45 then
    fresh t
      (Printf.sprintf "query demo histogram(%s,%d) eps=%s"
         (pick t.st [| "age"; "income"; "score" |])
         (8 + Prng.int t.st 121)
         (fresh_eps t))
  else if u < 0.60 then
    fresh t
      (Printf.sprintf "query demo %s(%s) eps=%s"
         (pick t.st [| "sum"; "mean" |])
         (pick t.st [| "age"; "income"; "score" |])
         (fresh_eps t))
  else if u < 0.68 then
    let points =
      List.init (3 + Prng.int t.st 6) (fun _ ->
          string_of_int (18 + Prng.int t.st 63))
    in
    fresh t
      (Printf.sprintf "query demo cdf(age,%s) eps=%s" (String.concat "," points)
         (fresh_eps t))
  else
    fresh t
      (Printf.sprintf "query demo quantile(income,%.2f) eps=%s"
         (0.05 +. (0.05 *. float (Prng.int t.st 19)))
         (fresh_eps t))

let next_merged t =
  let st = t.st in
  let u = mix_point t in
  match t.w with
  | Hot ->
      if u < 0.87 then
        { line = t.primes.(draw_cdf t.zipf (Prng.float st)); kind = Repeat }
      else if u < 0.92 then
        if Prng.bool st then { line = "stream read $S"; kind = Read }
        else
          {
            line =
              Printf.sprintf "stream window $S w=%d" (pick st [| 16; 64; 256; 1024 |]);
            kind = Read;
          }
      else if u < 0.97 then
        {
          line =
            Printf.sprintf "predict $M %.1f,%.0f"
              (18. +. (62. *. Prng.float st))
              (200000. *. Prng.float st);
          kind = Predict;
        }
      else
        fresh t
          (Printf.sprintf "query demo count(score>%s)" (fresh_threshold t "score"))
  | Scan ->
      if u < 0.25 then repeat_or_fresh t (fun () -> fresh_count t)
      else scan_fresh t (u -. 0.25)
  | Commit | Pool ->
      if u < 0.05 then repeat_or_fresh t (fun () -> fresh_count t)
      else if u < 0.35 then
        { line = Printf.sprintf "append $S %d" (Prng.int st 2); kind = Append }
      else fresh_count t

(* The next line for connection [c]: generates merged lines, buffering
   the other connection's, until one for [c] appears. *)
let next t c =
  while Queue.is_empty t.pending.(c) do
    let it = next_merged t in
    Queue.push it t.pending.(t.g mod conns);
    t.g <- t.g + 1
  done;
  Queue.pop t.pending.(c)

(* Bind the placeholders of one line. *)
let bind ~stream ~model line =
  let b = Buffer.create (String.length line + 16) in
  let n = String.length line in
  let rec go i =
    if i < n then
      if line.[i] = '$' && i + 1 < n && line.[i + 1] = 'S' then (
        Buffer.add_string b stream;
        go (i + 2))
      else if line.[i] = '$' && i + 1 < n && line.[i + 1] = 'M' then (
        Buffer.add_string b model;
        go (i + 2))
      else (
        Buffer.add_char b line.[i];
        go (i + 1))
  in
  go 0;
  Buffer.contents b
