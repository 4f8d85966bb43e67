(* The benchmark's own tests: the generator is a pure function of the
   seed, the percentile rule is the one documented, and the reply parser
   accepts every reply shape a run provokes and nothing else. *)

let lines w ~seed n =
  let g = Gen.create w ~seed in
  let st = Gen.setup w ~seed in
  let setup = st.Gen.own @ List.concat (Array.to_list st.Gen.per_conn) in
  setup
  @ List.init n (fun i -> (Gen.next g (i mod Gen.conns)).Gen.line)

let shares w ~seed n =
  let g = Gen.create w ~seed in
  let counts = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let k = (Gen.next g (i mod Gen.conns)).Gen.kind in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  fun k -> float (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float n

let all_kinds = Gen.[ Fresh; Repeat; Read; Predict; Append ]

let test_deterministic () =
  List.iter
    (fun w ->
      Alcotest.(check (list string))
        (Gen.name w ^ ": same seed, same bytes")
        (lines w ~seed:7 5000) (lines w ~seed:7 5000))
    Gen.all;
  Alcotest.(check (list string))
    "pool sends commit's sequence" (lines Gen.Commit ~seed:7 5000)
    (lines Gen.Pool ~seed:7 5000);
  let c = Gen.shape Gen.Commit and p = Gen.shape Gen.Pool in
  Alcotest.(check bool)
    "pool sends commit's count" true
    (c.Gen.rate = p.Gen.rate && c.Gen.warm = p.Gen.warm && c.Gen.rows = p.Gen.rows)

let test_new_seed () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Gen.name w ^ ": another seed, other lines")
        false
        (lines w ~seed:7 2000 = lines w ~seed:8 2000);
      let a = shares w ~seed:7 20000 and b = shares w ~seed:8 20000 in
      List.iter
        (fun k ->
          if Float.abs (a k -. b k) > 0.015 then
            Alcotest.failf "%s: %s share %.3f vs %.3f" (Gen.name w) (Gen.kind_name k)
              (a k) (b k))
        all_kinds)
    Gen.all

(* The mixes the README documents. *)
let test_mix () =
  let expect w table =
    let s = shares w ~seed:3 20000 in
    List.iter
      (fun (k, want) ->
        if Float.abs (s k -. want) > 0.015 then
          Alcotest.failf "%s: %s share %.3f, want %.2f" (Gen.name w) (Gen.kind_name k)
            (s k) want)
      table
  in
  expect Gen.Hot Gen.[ (Repeat, 0.87); (Read, 0.05); (Predict, 0.05); (Fresh, 0.03) ];
  expect Gen.Scan Gen.[ (Fresh, 0.75); (Repeat, 0.25) ];
  expect Gen.Commit Gen.[ (Fresh, 0.65); (Append, 0.30); (Repeat, 0.05) ]

(* A fresh query is never sent twice in a run; a repeat always names an
   earlier line. *)
let test_fresh_unique () =
  List.iter
    (fun w ->
      let g = Gen.create w ~seed:5 in
      let seen = Hashtbl.create 4096 in
      for i = 0 to 19999 do
        let it = Gen.next g (i mod Gen.conns) in
        match it.Gen.kind with
        | Gen.Fresh ->
            if Hashtbl.mem seen it.Gen.line then
              Alcotest.failf "%s: fresh line sent twice: %s" (Gen.name w) it.Gen.line;
            Hashtbl.add seen it.Gen.line ()
        | Gen.Repeat when w <> Gen.Hot ->
            if not (Hashtbl.mem seen it.Gen.line) then
              Alcotest.failf "%s: repeat of an unsent line: %s" (Gen.name w) it.Gen.line
        | _ -> ()
      done)
    Gen.all

let test_bind () =
  Alcotest.(check string) "placeholders" "append demo/s2 1 predict demo/m1"
    (Gen.bind ~stream:"demo/s2" ~model:"demo/m1" "append $S 1 predict $M")

let close = Alcotest.float 1e-12

let test_percentile () =
  let a = Array.init 100 (fun i -> float (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile a 0.50);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile a 0.99);
  Alcotest.check close "p100 of 1..100" 100. (Stats.percentile a 1.0);
  Alcotest.check close "p1 of 1..100" 1. (Stats.percentile a 0.01);
  Alcotest.check close "p99 of one sample" 7. (Stats.percentile [| 7. |] 0.99);
  (* a failure is slower than every sample *)
  let f = Array.append (Array.init 99 float) [| infinity |] in
  Alcotest.check close "p99 below one failure" 98. (Stats.percentile f 0.99);
  Alcotest.(check bool) "p100 is the failure" true (Stats.percentile f 1.0 = infinity);
  Alcotest.check close "median, even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* Python: statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q = Stats.quartiles (Array.init 10 (fun i -> float (i + 1))) in
  Alcotest.check close "q1" 2.75 q.(0);
  Alcotest.check close "q2" 5.5 q.(1);
  Alcotest.check close "q3" 8.25 q.(2);
  (* Python: statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q = Stats.quartiles [| 2.; 1. |] in
  Alcotest.check close "two samples q1" 0.75 q.(0);
  Alcotest.check close "two samples q3" 2.25 q.(2)

let parse lines =
  match Reply.parse lines with
  | Ok r -> r
  | Error msg -> Alcotest.failf "rejected %S: %s" (String.concat "|" lines) msg

let rejects lines =
  match Reply.parse lines with
  | Ok _ -> Alcotest.failf "accepted %S" (String.concat "|" lines)
  | Error _ -> ()

let test_replies () =
  let is what b = Alcotest.(check bool) what true b in
  is "registered"
    (parse
       [ "ok registered name=demo rows=1024 cols=age,income,score eps=1e+08 \
          delta=0 backend=basic" ]
    = Reply.Registered);
  (match parse [ "ok seq=0 value=681.000000 mechanism=geometric eps-charged=0.01 cache=miss" ] with
  | Reply.Query { charged; hit = false } as r ->
      Alcotest.check close "miss charge" 0.01 charged;
      is "miss is a release" (Reply.is_release r)
  | _ -> Alcotest.fail "query miss");
  (match
     parse
       [ "ok seq=4 values=[0.000000,179.159866] mechanism=laplace \
          eps-charged=0 cache=hit" ]
   with
  | Reply.Query { hit = true; _ } as r -> is "hit is free" (not (Reply.is_release r))
  | _ -> Alcotest.fail "query hit");
  (match
     parse
       [ "ok stream handle=demo/s1 N=4096 window=64 levels=12 eps-level=0.5 \
          eps-face=6 eps-charged=6 mechanism=tree" ]
   with
  | Reply.Stream_opened { handle = "demo/s1"; charged } ->
      Alcotest.check close "stream charge" 6. charged
  | _ -> Alcotest.fail "stream new");
  (match parse [ "ok append stream=demo/s1 t=2 nodes-closed=2" ] with
  | Reply.Appended { t_now = 2 } as r -> is "append is a release" (Reply.is_release r)
  | _ -> Alcotest.fail "append");
  is "stream-read"
    (parse
       [ "ok stream-read stream=demo/s1 t=2 count=1.457611 \
          count-hex=0x1.7525fb804ff8bp+0 eps-charged=0";
         "  leakage: mi-bound=6 nats mi-per-step=3 nats steps=2" ]
    = Reply.Stream_count);
  is "stream-window"
    (parse
       [ "ok stream-window stream=demo/s1 t=2 w=16 count=1.457611 \
          count-hex=0x1.7525fb804ff8bp+0 eps-charged=0";
         "  leakage: mi-bound=6 nats mi-per-step=3 nats steps=2" ]
    = Reply.Stream_count);
  (match
     parse
       [ "ok trained model=demo/m1 backend=objective-perturbation \
          eps-charged=0.1 eps-face=0.1 chains=1 steps=400 rhat=deterministic \
          ess=deterministic acceptance=1.000 released=yes" ]
   with
  | Reply.Trained { handle = "demo/m1"; charged } ->
      Alcotest.check close "train charge" 0.1 charged
  | _ -> Alcotest.fail "train");
  is "predict"
    (parse [ "ok predict model=demo/m1 value=-0.205547 eps-charged=0" ] = Reply.Predicted);
  (match
     parse
       [ "ok status datasets=1 journal=j1 faults=off";
         "  dataset demo eps-spent=0.1647 eps-remaining=1e+06 answered=7 \
          cache-hits=1 hit-rate=0.143 mode=ok" ]
   with
  | Reply.Status { spent; answered = 7 } -> Alcotest.check close "status spent" 0.1647 spent
  | _ -> Alcotest.fail "status");
  (match parse [ "ok metrics lines=2"; "  dpkit-metrics v1"; "  counter - cache_hits 3" ] with
  | Reply.Metrics [ "dpkit-metrics v1"; "counter - cache_hits 3" ] -> ()
  | _ -> Alcotest.fail "metrics");
  (match parse [ "err overloaded retry-after=12" ] with
  | Reply.Overloaded as r -> is "overloaded is a failure" (not (Reply.is_ok r))
  | _ -> Alcotest.fail "overloaded");
  (match parse [ "err bad-query unknown column nope" ] with
  | Reply.Err "bad-query" as r -> is "err is a failure" (not (Reply.is_ok r))
  | _ -> Alcotest.fail "err");
  rejects [];
  rejects [ "ok bye" ];
  rejects [ "ok seq=1 value=3 mechanism=geometric eps-charged=0.01" ];
  rejects [ "ok seq=1 value=3 mechanism=geometric eps-charged=abc cache=hit" ];
  rejects
    [ "ok trained model=demo/m2 backend=gibbs eps-charged=0.05 released=no" ];
  rejects [ "ok status datasets=1 journal=j1 faults=off" ];
  rejects [ "ok stream-read stream=demo/s1 t=2 count=1"; "leakage: unindented" ]

let test_verdict () =
  let parent = Array.init 10 (fun i -> 100. +. float i) in
  let faster = Array.map (fun x -> x -. 50.) parent in
  let same = Array.copy parent in
  let v ~bound p c =
    let v, _, _ = Compare.verdict ~better:Catalog.Lower ~bound p c in
    Compare.verdict_name v
  in
  Alcotest.(check string) "clear gain" "improved" (v ~bound:0.1 parent faster);
  Alcotest.(check string) "same runs" "no worse" (v ~bound:0.1 parent same);
  Alcotest.(check string) "wider than the bound" "unresolved" (v ~bound:0.01 parent same);
  Alcotest.(check string) "regression" "worse"
    (v ~bound:0.1 parent (Array.map (fun x -> x *. 1.5) parent));
  let zeros = Array.make 10 0. in
  Alcotest.(check string) "a count that never fired" "no worse" (v ~bound:0.1 zeros zeros);
  Alcotest.(check string) "a count that starts firing" "worse"
    (v ~bound:0.1 zeros (Array.make 10 1.))

let test_report () =
  let w, m =
    Compare.parse_report
      "report workload=pool seed=3 setup_s=0.45 journal_bytes_per_req=512.25 \
       cache.hit_ratio=0.036"
  in
  Alcotest.(check string) "workload" "pool" w;
  Alcotest.(check (list (pair string (float 0.))))
    "metrics, seed dropped"
    [ ("setup_s", 0.45); ("journal_bytes_per_req", 512.25); ("cache.hit_ratio", 0.036) ]
    m;
  List.iter
    (fun bad ->
      match Compare.parse_report bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Compare.Bad_report _ -> ())
    [ "report seed=1 setup_s=1"; "report workload=hot setup_s=abc";
      "report workload=hot setup_s"; "{\"correct\": true}" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "new seed" `Quick test_new_seed;
          Alcotest.test_case "mix shares" `Quick test_mix;
          Alcotest.test_case "fresh lines unique" `Quick test_fresh_unique;
          Alcotest.test_case "placeholders" `Quick test_bind;
        ] );
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile ]);
      ("reply", [ Alcotest.test_case "every shape" `Quick test_replies ]);
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdict;
          Alcotest.test_case "report lines" `Quick test_report;
        ] );
    ]
