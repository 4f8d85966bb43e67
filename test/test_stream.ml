(* Continual-observation streaming end to end: tree-counter mechanics
   against a naive recompute oracle, the empirical variance bound the
   tree mechanism promises (polylog in t, not linear), the lazily
   grown node storage against an eager full-tree reference (same bits,
   memory linear in appends, not in the horizon), the static
   analyzer pricing a stream float-bit-identical to serving it, and
   kill -9 durability — recovered streams release bit-identical counts
   and never reuse pre-crash tree noise. *)

open Dp_mechanism
open Dp_engine
module Stream = Dp_stream.Stream
module Counter = Dp_stream.Counter
module A = Analyzer

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let ok_r label = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" label (Format.asprintf "%a" Engine.pp_error e)

let bits = Int64.bits_of_float

let params opts =
  match Stream.params_of_opts ~default_epsilon:0.1 opts with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let policy ?(epsilon = 10.) () =
  Registry.default_policy ~total:(Privacy.approx ~epsilon ~delta:1e-6)

let fresh ?(seed = 42) ?policy:(p = policy ()) () =
  let eng = Engine.create ~seed () in
  (match Engine.register_synthetic eng ~name:"d" ~rows:400 ~policy:p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  eng

let spent eng =
  (ok_r "report" (Engine.report eng ~dataset:"d")).Engine.spent

(* Drive a bare counter with injected noise; [zero] makes it an exact
   (non-private) counter, which is what the oracle tests need. *)
let zero_noise () = 0.

let push c ~noise bit = Counter.commit c ~bit (Counter.prepare c ~bit ~noise)

let lcg_bits seed n =
  let s = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      (!s lsr 13) land 1)

(* --- params and pricing ---------------------------------------------- *)

let test_params_validation () =
  let bad opts msg =
    match Stream.params_of_opts ~default_epsilon:0.1 opts with
    | Ok _ -> Alcotest.failf "accepted: %s" msg
    | Error _ -> ()
  in
  bad [ ("eps", Some "0") ] "eps=0";
  bad [ ("eps", Some "-1") ] "negative eps";
  bad [ ("N", Some "1") ] "horizon below 2";
  bad [ ("N", Some (string_of_int (Counter.max_horizon + 1))) ]
    "horizon above max";
  bad [ ("N", Some "64"); ("window", Some "65") ] "window > N";
  bad [ ("window", Some "-1") ] "negative window";
  let p = params [] in
  Alcotest.(check int) "default horizon" 1024 p.Stream.horizon;
  Alcotest.(check int) "default window" 0 p.Stream.window;
  Alcotest.(check (float 0.)) "default eps" 0.1 p.Stream.epsilon

let test_spec_pricing () =
  (* face = eps * ceil(log2 N), from declared parameters alone *)
  let check_levels n l =
    Alcotest.(check int) (Printf.sprintf "levels N=%d" n) l
      (Counter.levels ~horizon:n)
  in
  check_levels 2 1;
  check_levels 3 2;
  check_levels 4 2;
  check_levels 1024 10;
  check_levels 1025 11;
  let sp = ok (Stream.spec (params [ ("eps", Some "0.01"); ("N", Some "1024") ])) in
  Alcotest.(check int) "levels" 10 sp.Stream.levels;
  Alcotest.(check int64) "face = eps * levels" (bits 0.1)
    (bits sp.Stream.face.Privacy.epsilon);
  Alcotest.(check (float 0.)) "pure dp" 0. sp.Stream.face.Privacy.delta;
  Alcotest.(check (float 0.)) "sensitivity = levels (one node per level)" 10.
    sp.Stream.sensitivity

(* --- counter vs naive oracle ----------------------------------------- *)

let test_zero_noise_exact () =
  (* with zero noise the tree must reproduce the plain running count at
     every step — the decomposition covers (0, t] exactly once *)
  let c = Counter.create ~epsilon:1. ~horizon:128 in
  let bits_in = lcg_bits 11 100 in
  let running = ref 0 in
  Array.iter
    (fun b ->
      push c ~noise:zero_noise b;
      running := !running + b;
      Alcotest.(check (float 0.))
        (Printf.sprintf "prefix at t=%d" (Counter.t_now c))
        (float_of_int !running) (Counter.read c))
    bits_in

let test_window_vs_oracle () =
  (* every (t, w) pair against a naive recompute of the last w bits *)
  let c = Counter.create ~epsilon:1. ~horizon:64 in
  let bits_in = lcg_bits 23 64 in
  Array.iteri
    (fun i b ->
      push c ~noise:zero_noise b;
      let t = i + 1 in
      for w = 1 to t do
        let oracle = ref 0 in
        for j = t - w to t - 1 do
          oracle := !oracle + bits_in.(j)
        done;
        Alcotest.(check (float 0.))
          (Printf.sprintf "window t=%d w=%d" t w)
          (float_of_int !oracle)
          (ok (Counter.window c ~w))
      done;
      (* w past the prefix clamps to the whole prefix *)
      Alcotest.(check (float 0.))
        (Printf.sprintf "clamped window t=%d" t)
        (Counter.read c)
        (ok (Counter.window c ~w:(t + 999))))
    bits_in;
  match Counter.window c ~w:0 with
  | Ok _ -> Alcotest.fail "w=0 accepted"
  | Error _ -> ()

let test_variance_bound () =
  (* seeded Monte Carlo: the empirical variance of the prefix-count
     error must sit within the exact per-read bound [blocks * 2/eps^2],
     which itself is O(log t / eps^2) <= the O(log^2 t / eps^2) the
     tree mechanism promises. 300 trials of a 200-step stream. *)
  let eps = 0.5 and t_final = 200 and trials = 300 in
  let rng = Dp_rng.Prng.create 777 in
  let bits_in = lcg_bits 5 t_final in
  let errs = Array.make trials 0. in
  let bound = ref 0. in
  for k = 0 to trials - 1 do
    let c = Counter.create ~epsilon:eps ~horizon:256 in
    let noise () =
      Dp_rng.Sampler.laplace ~mean:0. ~scale:(Counter.noise_scale c) rng
    in
    Array.iter (fun b -> push c ~noise b) bits_in;
    errs.(k) <- Counter.read c -. float_of_int (Counter.true_count c);
    bound := Counter.read_variance c
  done;
  let mean = Array.fold_left ( +. ) 0. errs /. float_of_int trials in
  let var =
    Array.fold_left (fun a e -> a +. ((e -. mean) ** 2.)) 0. errs
    /. float_of_int (trials - 1)
  in
  (* the exact bound: blocks <= levels = 8, so var <= 8 * 2/eps^2 = 64;
     sampling slack 1.5x up, 0.2x down (noise must actually be there) *)
  let levels = float_of_int (Counter.levels ~horizon:256) in
  Alcotest.(check bool)
    (Printf.sprintf "exact bound <= levels * 2/eps^2 (%g <= %g)" !bound
       (levels *. 2. /. (eps *. eps)))
    true
    (!bound <= levels *. 2. /. (eps *. eps));
  Alcotest.(check bool)
    (Printf.sprintf "empirical var %g within 1.5x bound %g" var !bound)
    true
    (var <= 1.5 *. !bound);
  Alcotest.(check bool)
    (Printf.sprintf "noise present: var %g >= 0.2x bound %g" var !bound)
    true
    (var >= 0.2 *. !bound)

(* --- lazy storage vs the eager layout -------------------------------- *)

(* The eager reference: the tree with every node of the padded horizon
   allocated up front, as the counter stored it before node buffers grew
   on demand. Same closing rule, same decomposition, same sums. *)
module Eager = struct
  type t = {
    epsilon : float;
    levels : int;
    nodes : float array array;
    acc : int array;
    mutable t_now : int;
  }

  let create ~epsilon ~horizon =
    let l = Counter.levels ~horizon in
    {
      epsilon;
      levels = l;
      nodes = Array.init l (fun lvl -> Array.make (1 lsl (l - lvl)) 0.);
      acc = Array.make l 0;
      t_now = 0;
    }

  let closing_levels t step =
    List.filter
      (fun l -> step land ((1 lsl l) - 1) = 0)
      (List.init t.levels Fun.id)

  let prepare t ~bit ~noise =
    Array.of_list
      (List.map
         (fun lvl -> float_of_int (t.acc.(lvl) + bit) +. noise ())
         (closing_levels t (t.t_now + 1)))

  let commit t ~bit values =
    let step = t.t_now + 1 in
    t.t_now <- step;
    List.iteri
      (fun i lvl ->
        t.nodes.(lvl).((step lsr lvl) - 1) <- values.(i);
        t.acc.(lvl) <- 0)
      (closing_levels t step);
    for l = 0 to t.levels - 1 do
      if step land ((1 lsl l) - 1) <> 0 then t.acc.(l) <- t.acc.(l) + bit
    done

  let blocks t ~lo ~hi =
    let rec go pos acc =
      if pos >= hi then List.rev acc
      else
        let align =
          if pos = 0 then t.levels - 1
          else
            let rec tz i =
              if i >= t.levels - 1 || pos land ((1 lsl (i + 1)) - 1) <> 0
              then i
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

  let read t =
    if t.t_now = 0 then 0. else sum_blocks t (blocks t ~lo:0 ~hi:t.t_now)

  let window t ~w =
    let w = min w t.t_now in
    if w = 0 then 0. else sum_blocks t (blocks t ~lo:(t.t_now - w) ~hi:t.t_now)

  let read_variance t =
    if t.t_now = 0 then 0.
    else
      let b = List.length (blocks t ~lo:0 ~hi:t.t_now) in
      float_of_int b *. 2. /. (t.epsilon *. t.epsilon)
end

let check_same_bits label c e =
  let t = Counter.t_now c in
  let eq what a b =
    Alcotest.(check int64) (Printf.sprintf "%s %s t=%d" label what t) (bits a)
      (bits b)
  in
  eq "read" (Eager.read e) (Counter.read c);
  eq "variance" (Eager.read_variance e) (Counter.read_variance c);
  List.iter
    (fun w ->
      eq (Printf.sprintf "window w=%d" w) (Eager.window e ~w)
        (ok (Counter.window c ~w)))
    [ 1; 7; 64; t + 1 ]

let test_differential_eager () =
  (* same seeded Laplace noise into both layouts; every release must
     agree to the bit at every step, including across buffer doublings *)
  List.iter
    (fun (horizon, appends) ->
      let label = Printf.sprintf "N=%d" horizon in
      let eps = 0.5 in
      let c = Counter.create ~epsilon:eps ~horizon in
      let e = Eager.create ~epsilon:eps ~horizon in
      let draw rng () =
        Dp_rng.Sampler.laplace ~mean:0. ~scale:(1. /. eps) rng
      in
      let rc = Dp_rng.Prng.create horizon and re = Dp_rng.Prng.create horizon in
      check_same_bits label c e;
      Array.iter
        (fun bit ->
          let vc = Counter.prepare c ~bit ~noise:(draw rc) in
          let ve = Eager.prepare e ~bit ~noise:(draw re) in
          Alcotest.(check (array int64))
            (Printf.sprintf "%s prepared nodes t=%d" label (Counter.t_now c))
            (Array.map bits ve) (Array.map bits vc);
          Counter.commit c ~bit vc;
          Eager.commit e ~bit ve;
          check_same_bits label c e)
        (lcg_bits horizon appends))
    [
      (2, 2);
      (3, 3);
      (1000, 1000);
      (4097, 4097);
      (Counter.max_horizon, 5000);
    ]

let words c = Obj.reachable_words (Obj.repr c)

let test_residency () =
  (* opening a stream must not allocate its horizon: the eager layout
     held ~2^21 words at the max horizon *)
  let c = Counter.create ~epsilon:1. ~horizon:Counter.max_horizon in
  Alcotest.(check bool)
    (Printf.sprintf "create holds %d words, below 256" (words c))
    true
    (words c < 256);
  (* each append closes ~2 nodes amortised; buffers at most double *)
  Array.iteri
    (fun i bit ->
      push c ~noise:zero_noise bit;
      let k = i + 1 in
      if k land (k - 1) = 0 || k mod 97 = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%d words after %d appends <= 4k + 256" (words c) k)
          true
          (words c <= (4 * k) + 256))
    (lcg_bits 31 5000)

let test_commit_atomic () =
  (* a rejected commit raises and leaves the counter exactly as it was,
     also at a step whose closing levels would grow buffers *)
  let c = Counter.create ~epsilon:1. ~horizon:64 in
  let rng = Dp_rng.Prng.create 3 in
  let noise () = Dp_rng.Sampler.laplace ~mean:0. ~scale:1. rng in
  Array.iter (fun b -> push c ~noise b) (lcg_bits 17 7);
  let t0 = Counter.t_now c
  and n0 = Counter.true_count c
  and r0 = Counter.read c in
  (* step 8 closes levels 0..3: four values are due, give three *)
  let values = Counter.prepare c ~bit:1 ~noise in
  Alcotest.(check int) "four nodes close at step 8" 4 (Array.length values);
  (match Counter.commit c ~bit:1 (Array.sub values 0 3) with
  | () -> Alcotest.fail "short value array accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "t_now unchanged" t0 (Counter.t_now c);
  Alcotest.(check int) "true_count unchanged" n0 (Counter.true_count c);
  Alcotest.(check int64) "read unchanged" (bits r0) (bits (Counter.read c));
  (* the full array still commits afterwards *)
  Counter.commit c ~bit:1 values;
  Alcotest.(check int) "advances after a good commit" (t0 + 1)
    (Counter.t_now c)

(* --- served lifecycle ------------------------------------------------ *)

let open_stream ?(opts = [ ("eps", Some "0.05"); ("N", Some "16") ]) eng =
  ok_r "stream open" (Engine.stream_open eng ~dataset:"d" (params opts))

let test_lifecycle () =
  let eng = fresh () in
  let o = open_stream eng in
  let s = o.Engine.stream in
  Alcotest.(check string) "first handle" "d/s1"
    s.Dp_stream.Stream_store.handle;
  (* whole-lifetime face charged at open: 0.05 * 4 levels *)
  Alcotest.(check int64) "charged = eps * levels" (bits 0.2)
    (bits o.Engine.charged.Privacy.epsilon);
  let s0 = spent eng in
  (* appends and reads are pre-paid: spent never moves again *)
  for i = 1 to 16 do
    let a = ok_r "append" (Engine.append eng "d/s1" (i land 1)) in
    Alcotest.(check int) "t advances" i a.Engine.t_now
  done;
  let r = ok_r "read" (Engine.stream_read eng "d/s1") in
  Alcotest.(check int) "read at horizon" 16 r.Engine.t_now;
  Alcotest.(check bool) "finite count" true (Float.is_finite r.Engine.count);
  let w = ok_r "window" (Engine.stream_window eng "d/s1" ~w:4 ()) in
  Alcotest.(check (option int)) "window echoed" (Some 4) w.Engine.window;
  let s1 = spent eng in
  Alcotest.(check int64) "appends and reads charged nothing"
    (bits s0.Privacy.epsilon) (bits s1.Privacy.epsilon);
  (* per-step MI accounting: the whole-stream cap amortized over t *)
  Alcotest.(check int64) "per-step MI = total / steps"
    (bits (r.Engine.leak.Meter.total.Meter.mi_bound_nats /. 16.))
    (bits r.Engine.leak.Meter.per_step_mi_nats);
  (* horizon enforced *)
  (match Engine.append eng "d/s1" 1 with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "append past horizon accepted");
  (* bad bit, unknown handles: typed errors *)
  (match Engine.append eng "d/s1" 2 with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "non-bit append accepted");
  (match Engine.stream_read eng "d/s99" with
  | Error (Engine.Unknown_stream _) -> ()
  | _ -> Alcotest.fail "expected Unknown_stream");
  (* no declared window and no w: refused; second stream numbers s2 *)
  (match Engine.stream_window eng "d/s1" () with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "windowless stream served a default window");
  let o2 =
    open_stream
      ~opts:[ ("eps", Some "0.05"); ("N", Some "16"); ("window", Some "4") ]
      eng
  in
  Alcotest.(check string) "second handle" "d/s2"
    o2.Engine.stream.Dp_stream.Stream_store.handle;
  ignore (ok_r "append s2" (Engine.append eng "d/s2" 1));
  (* the declared default window is used when no w is passed; with only
     1 step observed its count clamps to the whole prefix *)
  let w2 = ok_r "declared window" (Engine.stream_window eng "d/s2" ()) in
  Alcotest.(check (option int)) "declared default used" (Some 4)
    w2.Engine.window;
  let r2 = ok_r "read s2" (Engine.stream_read eng "d/s2") in
  Alcotest.(check int64) "clamped window = prefix" (bits r2.Engine.count)
    (bits w2.Engine.count)

let test_reads_free_after_exhaustion () =
  (* budget exactly covers the open; reads keep serving afterwards *)
  let eng =
    fresh ~policy:(Registry.default_policy ~total:(Privacy.pure 0.2)) ()
  in
  ignore (open_stream eng);
  (match Engine.stream_open eng ~dataset:"d" (params [ ("N", Some "16") ]) with
  | Error (Engine.Budget_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "overdraft accepted"
  | Error e ->
      Alcotest.failf "expected Budget_exceeded: %s"
        (Format.asprintf "%a" Engine.pp_error e));
  ignore (ok_r "append" (Engine.append eng "d/s1" 1));
  for _ = 1 to 5 do
    ignore (ok_r "free read" (Engine.stream_read eng "d/s1"))
  done;
  let s = spent eng in
  Alcotest.(check int64) "reads charged nothing" (bits 0.2)
    (bits s.Privacy.epsilon)

(* --- static = live --------------------------------------------------- *)

let test_analyze_matches_live () =
  let schema =
    ok
      (Registry.schema ~name:"d" ~rows:400 ~policy:(policy ())
         [
           { Registry.col = "age"; lo = 18.; hi = 80. };
           { Registry.col = "income"; lo = 0.; hi = 200_000. };
           { Registry.col = "score"; lo = -4.; hi = 4. };
         ])
  in
  let stream_opts =
    [ ("eps", Some "0.03"); ("N", Some "1000"); ("window", Some "100") ]
  in
  let items =
    [
      A.Stat
        {
          text = "count";
          query = ok (Query.parse "count");
          epsilon = Some 0.1;
        };
      A.Stream { text = "stream"; stream_opts };
    ]
  in
  let r = ok (A.analyze schema items) in
  Alcotest.(check bool) "static verdict PASS" true r.A.pass;
  let eng = fresh () in
  ignore
    (ok_r "count" (Engine.submit_text eng ~epsilon:0.1 ~dataset:"d" "count"));
  ignore (open_stream ~opts:stream_opts eng);
  let live = spent eng in
  Alcotest.(check int64) "epsilon bits" (bits live.Privacy.epsilon)
    (bits r.A.spent.Privacy.epsilon);
  let row = List.nth r.A.rows 1 in
  Alcotest.(check string) "mechanism" "tree" row.A.mechanism;
  (* N=1000 -> 10 levels *)
  Alcotest.(check int64) "row face = eps * levels" (bits 0.3)
    (bits row.A.face.Privacy.epsilon)

(* --- durability ------------------------------------------------------ *)

let temp_journal () = Filename.temp_file "dpkit_stream_test" ".wal"

let with_journal f =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let journaled_engine ~seed path =
  let eng = Engine.create ~seed () in
  let r = ok (Engine.open_journal eng path) in
  (r, eng)

let recovery_bit_identical ~horizon ~appends ~window =
  with_journal (fun path ->
      let _, eng = journaled_engine ~seed:5 path in
      (match
         Engine.register_synthetic eng ~name:"d" ~rows:400 ~policy:(policy ())
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ignore
        (open_stream
           ~opts:
             [
               ("eps", Some "0.1");
               ("N", Some (string_of_int horizon));
               ("window", Some (string_of_int window));
             ]
           eng);
      Array.iter
        (fun b -> ignore (ok_r "append" (Engine.append eng "d/s1" b)))
        (lcg_bits 3 appends);
      let read1 = (ok_r "read" (Engine.stream_read eng "d/s1")).Engine.count in
      let windows eng =
        List.map
          (fun w ->
            (ok_r "window" (Engine.stream_window eng "d/s1" ?w ())).Engine.count)
          [ None; Some 1; Some 7; Some 64; Some (appends + 1) ]
      in
      let win1 = windows eng in
      let spent1 = spent eng in
      (* kill -9 equivalent: a fresh engine on the same journal *)
      let rec2, eng2 = journaled_engine ~seed:5 path in
      Alcotest.(check int) "streams recovered" 1 rec2.Engine.streams_recovered;
      Alcotest.(check bool) "replay verified" true rec2.Engine.verified;
      let read2 =
        (ok_r "read after recovery" (Engine.stream_read eng2 "d/s1"))
          .Engine.count
      in
      let win2 = windows eng2 in
      Alcotest.(check int64) "prefix count bits" (bits read1) (bits read2);
      Alcotest.(check (list int64)) "window count bits" (List.map bits win1)
        (List.map bits win2);
      let spent2 =
        (ok_r "report" (Engine.report eng2 ~dataset:"d")).Engine.spent
      in
      Alcotest.(check int64) "spent epsilon bits" (bits spent1.Privacy.epsilon)
        (bits spent2.Privacy.epsilon);
      (* a third restart agrees with the second: replay is idempotent *)
      let _, eng3 = journaled_engine ~seed:99 path in
      let read3 =
        (ok_r "read after second recovery" (Engine.stream_read eng3 "d/s1"))
          .Engine.count
      in
      Alcotest.(check int64) "seed-independent replay" (bits read2)
        (bits read3))

(* Run at a small horizon and at the largest, where the appends before
   the kill cross several node-buffer doublings. *)
let test_recovery_bit_identical () =
  List.iter
    (fun (horizon, appends, window) ->
      recovery_bit_identical ~horizon ~appends ~window)
    [ (64, 40, 8); (Counter.max_horizon, 600, 100) ]

let test_no_noise_reuse_after_recovery () =
  (* The freshness invariant: recovery consumes zero PRNG draws, so a
     recovered engine that kept its seeded stream would hand its first
     post-crash appends the exact node noise already released before
     the crash. The attach re-keys from OS entropy; the fresh appends
     must therefore diverge from a same-seed engine that never crashed
     (they are continuous Laplace draws — equality has probability 0
     and would be exactly the differencing attack). *)
  with_journal (fun path ->
      let seed = 21 in
      let drive eng n =
        Array.iter
          (fun b -> ignore (ok_r "append" (Engine.append eng "d/s1" b)))
          (lcg_bits 9 n)
      in
      let _, eng = journaled_engine ~seed path in
      (match
         Engine.register_synthetic eng ~name:"d" ~rows:400 ~policy:(policy ())
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ignore (open_stream ~opts:[ ("eps", Some "0.1"); ("N", Some "64") ] eng);
      drive eng 32;
      let pre_crash = (ok_r "read" (Engine.stream_read eng "d/s1")).Engine.count in
      (* crash; recover; the replayed prefix is bit-identical... *)
      let _, eng2 = journaled_engine ~seed path in
      let replayed =
        (ok_r "read" (Engine.stream_read eng2 "d/s1")).Engine.count
      in
      Alcotest.(check int64) "replayed prefix identical" (bits pre_crash)
        (bits replayed);
      (* ...but the noise the recovered engine draws NEXT must not
         repeat what a same-seed uncrashed engine would draw *)
      drive eng2 32;
      let recovered_full =
        (ok_r "read" (Engine.stream_read eng2 "d/s1")).Engine.count
      in
      let eng_ref = Engine.create ~seed () in
      (match
         Engine.register_synthetic eng_ref ~name:"d" ~rows:400
           ~policy:(policy ())
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ignore
        (open_stream ~opts:[ ("eps", Some "0.1"); ("N", Some "64") ] eng_ref);
      drive eng_ref 32;
      drive eng_ref 32;
      let reference_full =
        (ok_r "read" (Engine.stream_read eng_ref "d/s1")).Engine.count
      in
      Alcotest.(check bool) "post-recovery noise re-keyed" true
        (bits recovered_full <> bits reference_full))

let test_seed_determinism () =
  (* without a journal the stream noise is seed-deterministic, and the
     stream rng is independent of one-shot query traffic *)
  let run ~interleave =
    let eng = fresh ~seed:7 () in
    ignore (open_stream ~opts:[ ("eps", Some "0.1"); ("N", Some "64") ] eng);
    Array.iter
      (fun b ->
        if interleave then
          ignore
            (ok_r "query" (Engine.submit_text eng ~dataset:"d" "count"));
        ignore (ok_r "append" (Engine.append eng "d/s1" b)))
      (lcg_bits 13 16);
    (ok_r "read" (Engine.stream_read eng "d/s1")).Engine.count
  in
  Alcotest.(check int64) "same seed, same counts" (bits (run ~interleave:false))
    (bits (run ~interleave:false));
  Alcotest.(check int64) "query traffic does not shift stream noise"
    (bits (run ~interleave:false))
    (bits (run ~interleave:true))

let () =
  Alcotest.run "stream"
    [
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "static pricing" `Quick test_spec_pricing;
        ] );
      ( "counter",
        [
          Alcotest.test_case "zero-noise prefix is exact" `Quick
            test_zero_noise_exact;
          Alcotest.test_case "window vs naive oracle" `Quick
            test_window_vs_oracle;
          Alcotest.test_case "variance bound" `Quick test_variance_bound;
          Alcotest.test_case "bit-identical to the eager layout" `Quick
            test_differential_eager;
          Alcotest.test_case "memory follows appends, not horizon" `Quick
            test_residency;
          Alcotest.test_case "rejected commit changes nothing" `Quick
            test_commit_atomic;
        ] );
      ( "serving",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "reads free after exhaustion" `Quick
            test_reads_free_after_exhaustion;
        ] );
      ( "static = live",
        [
          Alcotest.test_case "analyze prices stream bit-identically" `Quick
            test_analyze_matches_live;
        ] );
      ( "durability",
        [
          Alcotest.test_case "kill and restart releases identical counts"
            `Quick test_recovery_bit_identical;
          Alcotest.test_case "no noise reuse after recovery" `Quick
            test_no_noise_reuse_after_recovery;
          Alcotest.test_case "seeded determinism" `Quick test_seed_determinism;
        ] );
    ]
