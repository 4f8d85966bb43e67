(* Tests for the query-serving engine: query language, planner
   mechanism/sensitivity choices, budget ledger backends, answer cache,
   audit replay and the line protocol. *)

open Dp_engine
open Dp_mechanism

let check_close ?(tol = 1e-9) msg expected actual =
  if not (Dp_math.Numeric.approx_equal ~rel_tol:tol ~abs_tol:tol expected actual)
  then Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let demo_policy ?(backend = Ledger.Basic) ?(epsilon = 1.) ?(delta = 0.)
    ?analyst_epsilon ?(cache = true) ?(default_epsilon = 0.1) () =
  {
    (Registry.default_policy ~total:(Privacy.approx ~epsilon ~delta)) with
    Registry.backend;
    analyst_epsilon;
    cache;
    default_epsilon;
  }

let demo_engine ?(policy = demo_policy ()) () =
  let eng = Engine.create ~seed:7 () in
  (match Engine.register_synthetic eng ~name:"demo" ~rows:500 ~policy with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "register_synthetic: %s" msg);
  eng

let demo_dataset ?policy () =
  let eng = demo_engine ?policy () in
  match Engine.find eng "demo" with
  | Some ds -> ds
  | None -> Alcotest.fail "registered dataset not found"

(* ------------------------------------------------------------------ *)
(* Query language *)

let test_query_parse () =
  let roundtrips =
    [
      "count";
      "count(age>40)";
      "count(income<=12000)";
      "sum(income)";
      "mean(score)";
      "histogram(age,16)";
      "quantile(income,0.5)";
      "cdf(age,30,50,70)";
    ]
  in
  List.iter
    (fun text ->
      match Query.parse text with
      | Error msg -> Alcotest.failf "parse %S failed: %s" text msg
      | Ok q ->
          Alcotest.(check string)
            (Printf.sprintf "normalize %S" text)
            text (Query.normalize q))
    roundtrips;
  (* spelling variants share a normal form (hence a cache key) *)
  let norm text =
    match Query.parse text with
    | Ok q -> Query.normalize q
    | Error msg -> Alcotest.failf "parse %S failed: %s" text msg
  in
  Alcotest.(check string)
    "float canonicalization" (norm "quantile(income,0.5)")
    (norm "QUANTILE(income, 0.50)");
  Alcotest.(check string)
    "cdf points sorted and deduped" (norm "cdf(age,30,50,70)")
    (norm "cdf(age,70,30,50,30)");
  List.iter
    (fun bad ->
      match Query.parse bad with
      | Ok q -> Alcotest.failf "parse %S accepted as %s" bad (Query.normalize q)
      | Error _ -> ())
    [
      "";
      "frobnicate(age)";
      "sum()";
      "histogram(age,0)";
      "histogram(age,nope)";
      "quantile(age,1.5)";
      "count(age~40)";
      "cdf(age)";
      "sum(in come)";
    ]

(* ------------------------------------------------------------------ *)
(* Planner *)

let plan_ok ds ~epsilon text =
  match Query.parse text with
  | Error msg -> Alcotest.failf "parse %S: %s" text msg
  | Ok q -> (
      match Planner.plan ds ~epsilon q with
      | Ok p -> p.Planner.spec
      | Error msg -> Alcotest.failf "plan %S: %s" text msg)

let test_planner_choices () =
  let ds = demo_dataset () in
  let p = plan_ok ds ~epsilon:0.5 "count(age>40)" in
  Alcotest.(check string)
    "count mechanism" "geometric"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "count sensitivity" 1. p.Planner.sensitivity;
  check_close "count face-value charge" 0.5
    p.Planner.charge.Ledger.budget.Privacy.epsilon;
  (* income is bounded in [0, 200000]: bounded-sum sensitivity is the
     largest magnitude, mean divides by n *)
  let p = plan_ok ds ~epsilon:0.5 "sum(income)" in
  Alcotest.(check string)
    "sum mechanism" "laplace"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "sum sensitivity" 200_000. p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "mean(income)" in
  check_close "mean sensitivity" (200_000. /. 500.) p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "histogram(age,16)" in
  Alcotest.(check string)
    "histogram mechanism" "laplace"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "histogram sensitivity" 2. p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "quantile(income,0.9)" in
  Alcotest.(check string)
    "quantile mechanism" "exponential"
    (Planner.mechanism_name p.Planner.mechanism);
  (* under RDP accounting integer queries switch to discrete gaussian
     and the face-value charge picks up the conversion delta *)
  let rdp_ds =
    demo_dataset ~policy:(demo_policy ~backend:(Ledger.Rdp { delta = 1e-6 }) ())
      ()
  in
  let p = plan_ok rdp_ds ~epsilon:0.5 "count" in
  Alcotest.(check string)
    "rdp count mechanism" "discrete-gaussian"
    (Planner.mechanism_name p.Planner.mechanism);
  Alcotest.(check bool)
    "rdp charge carries a curve" true
    (Option.is_some p.Planner.charge.Ledger.rdp);
  (* errors are structured, not exceptions *)
  (match Planner.plan ds ~epsilon:0.5 (Query.Sum { column = "nope" }) with
  | Error msg ->
      Alcotest.(check bool)
        "unknown column names the dataset" true (contains ~sub:"demo" msg)
  | Ok _ -> Alcotest.fail "planned a query over a missing column");
  match Planner.plan ds ~epsilon:0. (Query.Count None) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "planned with epsilon = 0"

(* ------------------------------------------------------------------ *)
(* Ledger *)

let test_ledger_backends () =
  let charges =
    List.init 40 (fun _ -> { Ledger.budget = Privacy.pure 0.05; rdp = None })
  in
  let spend_all backend =
    let t = Ledger.create ~total:(Privacy.approx ~epsilon:10. ~delta:1e-3) ~backend () in
    List.iter
      (fun c ->
        match Ledger.spend t c with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "ledger rejected within budget")
      charges;
    Alcotest.(check int) "all charges recorded" 40 (Ledger.n_charges t);
    Ledger.spent t
  in
  let basic = spend_all Ledger.Basic in
  check_close "basic adds" 2.0 basic.Privacy.epsilon;
  let adv = spend_all (Ledger.Advanced { slack = 1e-6 }) in
  Alcotest.(check bool)
    "advanced beats basic for many small charges" true
    (adv.Privacy.epsilon < basic.Privacy.epsilon);
  (* the advanced-composition delta slack is accounted *)
  Alcotest.(check bool) "advanced pays slack in delta" true
    (adv.Privacy.delta > 0.);
  let rdp = spend_all (Ledger.Rdp { delta = 1e-6 }) in
  Alcotest.(check bool)
    "rdp never worse than basic" true
    (rdp.Privacy.epsilon <= basic.Privacy.epsilon +. 1e-12);
  (* spent + remaining = total, and rejections are structured *)
  let t = Ledger.create ~total:(Privacy.pure 0.12) ~backend:Ledger.Basic () in
  let c = { Ledger.budget = Privacy.pure 0.05; rdp = None } in
  (match Ledger.spend t c with Ok () -> () | Error _ -> Alcotest.fail "1st");
  (match Ledger.spend t c with Ok () -> () | Error _ -> Alcotest.fail "2nd");
  check_close "spent" 0.1 (Ledger.spent t).Privacy.epsilon;
  check_close "remaining" 0.02 (Ledger.remaining t).Privacy.epsilon;
  match Ledger.spend t c with
  | Ok () -> Alcotest.fail "overdraft accepted"
  | Error r ->
      check_close "rejection echoes request" 0.05
        r.Ledger.requested.Privacy.epsilon;
      check_close "rejection reports remainder" 0.02
        r.Ledger.remaining.Privacy.epsilon;
      Alcotest.(check bool) "global, not analyst" true (r.Ledger.analyst = None);
      check_close "failed spend charged nothing" 0.1
        (Ledger.spent t).Privacy.epsilon

let test_analyst_budgets () =
  let t =
    Ledger.create ~total:(Privacy.pure 10.) ~backend:Ledger.Basic
      ~analyst_epsilon:0.1 ()
  in
  let c = { Ledger.budget = Privacy.pure 0.06; rdp = None } in
  (match Ledger.spend t ~analyst:"alice" c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "alice within sub-budget");
  (match Ledger.spend t ~analyst:"alice" c with
  | Ok () -> Alcotest.fail "alice exceeded her sub-budget"
  | Error r ->
      Alcotest.(check (option string))
        "rejection names the analyst" (Some "alice") r.Ledger.analyst);
  (* bob has his own sub-budget; anonymous queries only hit the global *)
  (match Ledger.spend t ~analyst:"bob" c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "bob blocked by alice's spend");
  (match Ledger.spend t c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "anonymous blocked by sub-budgets");
  check_close "alice's ledger" 0.06 (Ledger.analyst_spent t "alice").Privacy.epsilon;
  check_close "unseen analyst" 0. (Ledger.analyst_spent t "carol").Privacy.epsilon;
  check_close "global sees all three" 0.18 (Ledger.spent t).Privacy.epsilon

(* ------------------------------------------------------------------ *)
(* Engine: budget exhaustion, cache, replay *)

let submit_ok eng ?analyst ?epsilon text =
  match Engine.submit_text eng ?analyst ?epsilon ~dataset:"demo" text with
  | Ok r -> r
  | Error e -> Alcotest.failf "submit %S: %a" text Engine.pp_error e

let test_budget_exhaustion () =
  let eng =
    demo_engine ~policy:(demo_policy ~epsilon:0.3 ~default_epsilon:0.1 ()) ()
  in
  (* three distinct queries fit exactly; the fourth must be rejected *)
  let r1 = submit_ok eng "count" in
  check_close "face value charged under basic" 0.1 r1.Engine.charged.Privacy.epsilon;
  ignore (submit_ok eng "mean(income)");
  ignore (submit_ok eng "quantile(income,0.5)");
  (match Engine.submit_text eng ~dataset:"demo" "sum(income)" with
  | Ok _ -> Alcotest.fail "answered past the budget"
  | Error (Engine.Budget_exceeded rej) ->
      check_close "typed rejection: requested" 0.1
        rej.Ledger.requested.Privacy.epsilon;
      check_close "typed rejection: remaining" 0.
        rej.Ledger.remaining.Privacy.epsilon
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e);
  (* unknown datasets and malformed queries are also typed *)
  (match Engine.submit_text eng ~dataset:"nope" "count" with
  | Error (Engine.Unknown_dataset "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_dataset");
  (match Engine.submit_text eng ~dataset:"demo" "frobnicate" with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "expected Bad_query");
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      Alcotest.(check int) "answered" 3 rep.Engine.answered;
      Alcotest.(check int) "rejected" 1 rep.Engine.rejected;
      check_close "spent the whole budget" 0.3 rep.Engine.spent.Privacy.epsilon;
      check_close "nothing remains" 0. rep.Engine.remaining.Privacy.epsilon

let answers_equal a b =
  match (a, b) with
  | Planner.Scalar x, Planner.Scalar y -> x = y
  | Planner.Vector x, Planner.Vector y -> x = y
  | _ -> false

let test_cache_postprocessing () =
  let eng =
    demo_engine ~policy:(demo_policy ~epsilon:0.25 ~default_epsilon:0.1 ()) ()
  in
  let r1 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "first is a miss" false r1.Engine.cache_hit;
  let r2 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "repeat is a hit" true r2.Engine.cache_hit;
  Alcotest.(check bool)
    "replayed answer is bit-identical" true
    (answers_equal r1.Engine.answer r2.Engine.answer);
  check_close "hit charged zero" 0. r2.Engine.charged.Privacy.epsilon;
  check_close "hit still reports the face value"
    r1.Engine.requested.Privacy.epsilon r2.Engine.requested.Privacy.epsilon;
  Alcotest.(check string)
    "hit reports the original mechanism"
    (Planner.mechanism_name r1.Engine.mechanism)
    (Planner.mechanism_name r2.Engine.mechanism);
  (* same question at a different epsilon is a different release *)
  let r3 = submit_ok eng ~epsilon:0.15 "histogram(age,8)" in
  Alcotest.(check bool) "different eps misses" false r3.Engine.cache_hit;
  (* budget is now exhausted (0.1 + 0.15): fresh queries are rejected
     but cached ones still replay — post-processing is free *)
  (match Engine.submit_text eng ~dataset:"demo" "count" with
  | Error (Engine.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "expected exhaustion");
  let r4 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "cached answer after exhaustion" true r4.Engine.cache_hit;
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      Alcotest.(check int) "cache hits counted" 2 rep.Engine.cache_hits;
      check_close "spent unchanged by hits" 0.25 rep.Engine.spent.Privacy.epsilon;
      Alcotest.(check bool) "hit-rate reported" true (rep.Engine.hit_rate > 0.)

let test_cache_disabled () =
  let eng = demo_engine ~policy:(demo_policy ~cache:false ()) () in
  let r1 = submit_ok eng "count" in
  let r2 = submit_ok eng "count" in
  Alcotest.(check bool) "no hits when disabled" false r2.Engine.cache_hit;
  check_close "both charged" r1.Engine.charged.Privacy.epsilon
    r2.Engine.charged.Privacy.epsilon;
  Alcotest.(check bool)
    "fresh noise drawn" true
    (not (answers_equal r1.Engine.answer r2.Engine.answer))

let test_replay_and_marginals () =
  (* Under advanced composition the marginal charges telescope: replay
     through the basic accountant reproduces the composed spend. *)
  let eng =
    demo_engine
      ~policy:
        (demo_policy
           ~backend:(Ledger.Advanced { slack = 1e-6 })
           ~epsilon:2. ~delta:1e-3 ~default_epsilon:0.05 ())
      ()
  in
  List.iter
    (fun q -> ignore (submit_ok eng q))
    [ "count"; "count(age>40)"; "mean(income)"; "count"; "sum(score)" ];
  match (Engine.replay eng ~dataset:"demo", Engine.report eng ~dataset:"demo") with
  | Ok (Dp_audit.Replay.Consistent replayed), Ok rep ->
      check_close ~tol:1e-6 "replayed spend matches the report"
        rep.Engine.spent.Privacy.epsilon replayed.Privacy.epsilon;
      Alcotest.(check bool)
        "advanced spend below face-value sum" true
        (rep.Engine.spent.Privacy.epsilon < 4. *. 0.05 +. 1e-12)
  | Ok (Dp_audit.Replay.Overdraft _), _ -> Alcotest.fail "audit log overdrafts"
  | Error e, _ | _, Error e -> Alcotest.failf "replay: %a" Engine.pp_error e

let test_leakage_meter () =
  let eng = demo_engine () in
  ignore (submit_ok eng "count");
  ignore (submit_ok eng "mean(income)");
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      let lk = rep.Engine.leakage in
      Alcotest.(check bool) "mi bound positive" true (lk.Meter.mi_bound_nats > 0.);
      check_close "bits are nats over ln 2"
        (lk.Meter.mi_bound_nats /. log 2.)
        lk.Meter.mi_bound_bits;
      Alcotest.(check bool)
        "per-record bound below whole-dataset capacity" true
        (lk.Meter.mi_bound_nats <= lk.Meter.capacity_bound_nats +. 1e-12);
      (* the meter reads the composed spend *)
      check_close "meter reads the ledger" rep.Engine.spent.Privacy.epsilon
        lk.Meter.epsilon

(* ------------------------------------------------------------------ *)
(* Protocol *)

let exec_one eng line =
  match Protocol.exec eng line with
  | [ reply ] -> reply
  | replies ->
      Alcotest.failf "expected one reply to %S, got %d" line
        (List.length replies)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_protocol () =
  let eng = Engine.create ~seed:42 () in
  let reply =
    exec_one eng "register demo rows=200 eps=0.25 default-eps=0.1"
  in
  Alcotest.(check bool) "register ok" true (starts_with "ok registered" reply);
  let reply = exec_one eng "query demo count" in
  Alcotest.(check bool) "query ok" true (starts_with "ok seq=" reply);
  Alcotest.(check bool) "miss reported" true (contains ~sub:"cache=miss" reply);
  let reply = exec_one eng "query demo count" in
  Alcotest.(check bool) "hit reported" true (contains ~sub:"cache=hit" reply);
  Alcotest.(check bool) "hit charged zero" true
    (contains ~sub:"eps-charged=0 " reply);
  let reply = exec_one eng "query demo mean(income)" in
  Alcotest.(check bool) "second query ok" true (starts_with "ok seq=" reply);
  (* 0.25 total - 0.2 spent: the next fresh query must be refused *)
  let reply = exec_one eng "query demo sum(income)" in
  Alcotest.(check bool) "typed budget refusal" true
    (starts_with "err budget-exceeded" reply);
  (match Protocol.exec eng "report demo" with
  | header :: _ ->
      Alcotest.(check bool) "report header" true
        (starts_with "report dataset=demo" header)
  | [] -> Alcotest.fail "empty report");
  let reply = exec_one eng "replay demo" in
  Alcotest.(check bool) "replay consistent" true
    (starts_with "ok replay consistent" reply);
  (* malformed input never raises *)
  List.iter
    (fun line ->
      match Protocol.exec eng line with
      | [] -> if line <> "" && line.[0] <> '#' then Alcotest.failf "no reply to %S" line
      | replies ->
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (Printf.sprintf "reply to %S tagged" line)
                true
                (starts_with "ok" r || starts_with "err" r
                || starts_with "  " r || starts_with "report" r))
            replies)
    [
      "";
      "# comment";
      "bogus";
      "query";
      "query demo";
      "query nosuch count";
      "query demo frobnicate(age)";
      "query demo count eps=abc";
      "register demo";
      "register other rows=-3";
      "register other backend=frob";
      "help";
    ];
  Alcotest.(check bool) "quit detected" true (Protocol.is_quit "quit");
  Alcotest.(check bool) "exit detected" true (Protocol.is_quit " exit ");
  Alcotest.(check bool) "query is not quit" false (Protocol.is_quit "query d c")

let test_determinism () =
  (* same seed, same request sequence -> byte-identical transcript *)
  let transcript () =
    let eng = Engine.create ~seed:99 () in
    List.concat_map (Protocol.exec eng)
      [
        "register demo rows=300 eps=1 backend=advanced";
        "query demo count(age>40)";
        "query demo histogram(score,8)";
        "query demo quantile(income,0.25)";
        "report demo";
      ]
  in
  Alcotest.(check (list string)) "deterministic" (transcript ()) (transcript ())

(* ------------------------------------------------------------------ *)
(* Audit log *)

(* Cache hits are counted per key, not recorded: the log must not grow
   with them. *)
let test_audit_hits_constant_memory () =
  let eng = demo_engine () in
  let q = match Query.parse "count" with Ok q -> q | Error m -> failwith m in
  let submit () =
    match Engine.submit eng ~dataset:"demo" q with
    | Ok r -> r
    | Error e -> Alcotest.failf "submit: %a" Engine.pp_error e
  in
  ignore (submit ());
  let r = submit () in
  Alcotest.(check bool) "second is a hit" true r.Engine.cache_hit;
  let log =
    match Engine.audit_log eng with
    | Some log -> log
    | None -> Alcotest.fail "audit log disabled"
  in
  let words () = Obj.reachable_words (Obj.repr log) in
  let after_one = words () in
  for _ = 2 to 50_000 do
    ignore (submit ())
  done;
  Alcotest.(check int) "audit log words after 50,000 hits" after_one (words ());
  match Audit_log.hits log "demo" with
  | [ h ] -> Alcotest.(check int) "hits counted" 50_000 h.Audit_log.count
  | hs -> Alcotest.failf "expected one hit counter, got %d" (List.length hs)

(* Answered, cached, rejected, withheld and lease-refused decisions on
   two datasets: replies keep their seq numbers, [log] prints each record
   in the exact record format and one counter line per cache key, and
   the audit replay is the same live and after recovery. *)
let test_audit_log_equivalence () =
  let path = Filename.temp_file "dpkit_audit" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let eng = Engine.create ~seed:5 () in
  (match Engine.open_journal eng path with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "open_journal: %s" msg);
  Engine.set_lease_gate eng
    (Some
       (fun ~dataset ~face ->
         if dataset = "b" && face.Privacy.epsilon = 0.07 then
           Engine.Lease_unavailable "test"
         else Engine.Lease_granted));
  let seqs = ref [] in
  let run line =
    match Protocol.exec eng line with
    | first :: _ as reply ->
        (if starts_with "ok seq=" first then
           Scanf.sscanf first "ok seq=%d" (fun n -> seqs := n :: !seqs));
        reply
    | [] -> Alcotest.failf "no reply to %S" line
  in
  List.iter
    (fun line -> ignore (run line))
    [
      "register a rows=100 eps=1 default-eps=0.1";
      "register b rows=100 eps=1 default-eps=0.1";
      "query a count" (* #0 answered *);
      "query a count" (* #1 hit *);
      "query b count" (* #2 answered *);
      "query a count" (* #3 hit *);
      "query a mean(nosuch)" (* #4 rejected at planning *);
      "query a count eps=0.95" (* #5 rejected: budget *);
      "train a eps=0.05 steps=16 burn=0 step-std=1e-12" (* #6 withheld *);
      "query b count eps=0.07" (* #7 lease refused *);
      "query b count" (* #8 hit *);
      "query a count" (* #9 hit *);
      "query b mean(income)" (* #10 answered *);
      "query a count(age>30) eps=0.2" (* #11 answered *);
      "query a count(age>30) eps=0.2" (* #12 hit *);
    ];
  Alcotest.(check (list int)) "ok seq= numbers" [ 0; 1; 2; 3; 8; 9; 10; 11; 12 ]
    (List.rev !seqs);
  let log_a = run "log a" and log_b = run "log b" in
  Alcotest.(check (list string)) "log a"
    [
      "ok log entries=7";
      "  #0 - a count mech=geometric requested=0.1-DP charged=0.1-DP \
       cache=miss answered";
      "  #4 - a mean(nosuch) mech=- requested=0-DP charged=0-DP cache=miss \
       rejected:unknown column \"nosuch\" in dataset \"a\" (have: age, \
       income, score)";
      "  #5 - a count mech=geometric requested=0.95-DP charged=0-DP \
       cache=miss rejected:budget-exceeded";
      "  #6 - a train(gibbs,target=score,eps=0.05,chains=2,steps=16) \
       mech=gibbs requested=0.1-DP charged=0.1-DP cache=miss \
       charged-unreleased:unconverged";
      "  #11 - a count(age>30) mech=geometric requested=0.2-DP \
       charged=0.2-DP cache=miss answered";
      "  hits query=count mech=geometric requested=0.1-DP count=3 first=#1 \
       last=#9";
      "  hits query=count(age>30) mech=geometric requested=0.2-DP count=1 \
       first=#12 last=#12";
    ]
    log_a;
  Alcotest.(check (list string)) "log b"
    [
      "ok log entries=4";
      "  #2 - b count mech=geometric requested=0.1-DP charged=0.1-DP \
       cache=miss answered";
      "  #7 - b count mech=geometric requested=0.07-DP charged=0-DP \
       cache=miss rejected:lease-unavailable";
      "  #10 - b mean(income) mech=laplace requested=0.1-DP charged=0.1-DP \
       cache=miss answered";
      "  hits query=count mech=geometric requested=0.1-DP count=1 first=#8 \
       last=#8";
    ]
    log_b;
  Alcotest.(check bool) "no record of b in log a" false
    (List.exists (contains ~sub:" - b ") log_a);
  let replays e = List.concat_map (Protocol.exec e) [ "replay a"; "replay b" ] in
  let live = replays eng in
  Alcotest.(check (list string)) "live replay"
    [
      "ok replay consistent eps-spent=0.4"; "ok replay consistent eps-spent=0.2";
    ]
    live;
  Engine.close eng;
  let recovered = Engine.create ~seed:5 () in
  (match Engine.open_journal recovered path with
  | Ok r -> Alcotest.(check bool) "recovery verified" true r.Engine.verified
  | Error msg -> Alcotest.failf "recovery: %s" msg);
  Alcotest.(check (list string)) "recovered replay" live (replays recovered);
  Alcotest.(check (list string)) "recovered log a"
    [
      "ok log entries=3";
      "  #0 - a count mech=geometric requested=0.1-DP charged=0.1-DP \
       cache=miss answered";
      "  #2 - a train(gibbs,target=score,eps=0.05,chains=2,steps=16) \
       mech=gibbs requested=0.1-DP charged=0.1-DP cache=miss \
       charged-unreleased:unconverged";
      "  #4 - a count(age>30) mech=geometric requested=0.2-DP \
       charged=0.2-DP cache=miss answered";
    ]
    (Protocol.exec recovered "log a");
  Engine.close recovered

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  let ident_gen = Gen.oneofl [ "age"; "income"; "score"; "x" ] in
  let finite_float = Gen.map (fun x -> Float.of_int (int_of_float (x *. 1e4)) /. 1e4)
      (Gen.float_range (-1e6) 1e6)
  in
  let query_gen =
    Gen.oneof
      [
        Gen.return (Query.Count None);
        Gen.map3
          (fun column op threshold ->
            Query.Count (Some { Query.column; op; threshold }))
          ident_gen
          (Gen.oneofl [ Query.Le; Query.Lt; Query.Ge; Query.Gt ])
          finite_float;
        Gen.map (fun column -> Query.Sum { column }) ident_gen;
        Gen.map (fun column -> Query.Mean { column }) ident_gen;
        Gen.map2
          (fun column bins -> Query.Histogram { column; bins })
          ident_gen (Gen.int_range 1 1000);
        Gen.map2
          (fun column q -> Query.Quantile { column; q })
          ident_gen (Gen.float_range 0. 1.);
        Gen.map2
          (fun column points ->
            match Query.parse
                    (Printf.sprintf "cdf(%s,%s)" column
                       (String.concat ","
                          (List.map (Printf.sprintf "%.4f") points)))
            with
            | Ok q -> q
            | Error _ -> Query.Count None)
          ident_gen
          (Gen.list_size (Gen.int_range 1 6) (Gen.float_range (-100.) 100.));
      ]
  in
  [
    Test.make ~name:"parse . normalize is the identity" ~count:500
      (make ~print:Query.normalize query_gen)
      (fun q ->
        match Query.parse (Query.normalize q) with
        | Ok q' -> Query.normalize q' = Query.normalize q
        | Error msg ->
            Test.fail_reportf "normal form %S does not reparse: %s"
              (Query.normalize q) msg);
    Test.make ~name:"ledger: spent + remaining = total (epsilon)" ~count:200
      (pair (float_range 0.5 5.)
         (list_of_size (Gen.int_range 0 30) (float_range 0.001 0.4)))
      (fun (total, epsilons) ->
        let t =
          Ledger.create ~total:(Privacy.pure total) ~backend:Ledger.Basic ()
        in
        List.iter
          (fun e ->
            ignore (Ledger.spend t { Ledger.budget = Privacy.pure e; rdp = None }))
          epsilons;
        let spent = (Ledger.spent t).Privacy.epsilon
        and remaining = (Ledger.remaining t).Privacy.epsilon in
        Dp_math.Numeric.approx_equal ~rel_tol:1e-9 ~abs_tol:1e-12 total
          (spent +. remaining)
        && spent <= total +. 1e-9);
    Test.make ~name:"ledger: can_afford agrees with spend" ~count:200
      (pair (float_range 0.2 2.)
         (list_of_size (Gen.int_range 1 15) (float_range 0.01 0.5)))
      (fun (total, epsilons) ->
        let t =
          Ledger.create ~total:(Privacy.pure total) ~backend:Ledger.Basic ()
        in
        List.for_all
          (fun e ->
            let c = { Ledger.budget = Privacy.pure e; rdp = None } in
            let afford = Ledger.can_afford t c in
            match Ledger.spend t c with
            | Ok () -> afford
            | Error _ -> not afford)
          epsilons);
    Test.make ~name:"advanced ledger never exceeds basic" ~count:100
      (list_of_size (Gen.int_range 1 25) (float_range 0.01 0.3))
      (fun epsilons ->
        let spend_all backend =
          let t =
            Ledger.create ~total:(Privacy.approx ~epsilon:100. ~delta:0.1)
              ~backend ()
          in
          List.iter
            (fun e ->
              ignore
                (Ledger.spend t { Ledger.budget = Privacy.pure e; rdp = None }))
            epsilons;
          (Ledger.spent t).Privacy.epsilon
        in
        spend_all (Ledger.Advanced { slack = 1e-6 }) <= spend_all Ledger.Basic +. 1e-12);
  ]

let () =
  Alcotest.run "dp_engine"
    [
      ( "query",
        [
          Alcotest.test_case "parse and normalize" `Quick test_query_parse;
        ] );
      ( "planner",
        [
          Alcotest.test_case "mechanism and sensitivity" `Quick
            test_planner_choices;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "composition backends" `Quick test_ledger_backends;
          Alcotest.test_case "analyst sub-budgets" `Quick test_analyst_budgets;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "cache is free post-processing" `Quick
            test_cache_postprocessing;
          Alcotest.test_case "cache can be disabled" `Quick test_cache_disabled;
          Alcotest.test_case "replay matches marginals" `Quick
            test_replay_and_marginals;
          Alcotest.test_case "leakage meter" `Quick test_leakage_meter;
        ] );
      ( "audit log",
        [
          Alcotest.test_case "hits do not grow the log" `Quick
            test_audit_hits_constant_memory;
          Alcotest.test_case "records, hit counters and replay" `Quick
            test_audit_log_equivalence;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "line protocol" `Quick test_protocol;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
