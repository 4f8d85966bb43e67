(* The static analyzer's contract: `dpkit analyze` must price a
   workload bit-identically to a live serving run — same per-query
   charges, same composed totals — while never touching column data.
   These tests run the same workload through the serve protocol (live)
   and Analyzer.analyze (static) under all three composition backends
   and compare the float bits of the spent budgets. *)

open Dp_mechanism
module A = Dp_engine.Analyzer
module E = Dp_engine.Engine
module Registry = Dp_engine.Registry
module Ledger = Dp_engine.Ledger
module Planner = Dp_engine.Planner
module Query = Dp_engine.Query
module Protocol = Dp_engine.Protocol

(* The workload as a live client sends it (after `query d`) and as a
   workload file spells it: stat queries, one train and one stream. *)
let workload =
  [
    "count";
    "count(age>=65) eps=0.05";
    "mean(income) eps=0.2";
    "histogram(age,8) eps=0.2";
    "quantile(income,0.5) eps=0.1";
    "cdf(score,-1,0,1) eps=0.15";
    "sum(score) eps=0.05";
    "train target=score eps=0.05 steps=40 burn=40";
    "stream eps=0.01 N=64 window=8";
  ]

let policy backend =
  {
    (Registry.default_policy ~total:(Privacy.approx ~epsilon:10. ~delta:1e-6))
    with
    backend;
  }

(* The synthetic dataset's schema, written down independently — the
   analyzer must price from bounds alone, never from values. *)
let schema backend =
  match
    Registry.schema ~name:"d" ~rows:500 ~policy:(policy backend)
      [
        { Registry.col = "age"; lo = 18.; hi = 80. };
        { Registry.col = "income"; lo = 0.; hi = 200_000. };
        { Registry.col = "score"; lo = -4.; hi = 4. };
      ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* The live side goes through the serve protocol, so the option parsing
   of `query`, `train` and `stream new` is part of what must agree. A
   train the gate withholds still stands charged. *)
let live_line line =
  match String.split_on_char ' ' line with
  | "train" :: opts -> String.concat " " ("train d" :: opts)
  | "stream" :: opts -> String.concat " " ("stream new d" :: opts)
  | _ -> "query d " ^ line

let live_spent backend =
  let eng = E.create ~seed:7 () in
  (match E.register_synthetic eng ~name:"d" ~rows:500 ~policy:(policy backend) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun line ->
      match Protocol.exec eng (live_line line) with
      | reply :: _
        when String.starts_with ~prefix:"ok " reply
             || String.starts_with ~prefix:"err degraded reason=unconverged"
                  reply ->
          ()
      | reply -> Alcotest.failf "%s: %s" line (String.concat "\n" reply))
    workload;
  match E.report eng ~dataset:"d" with
  | Ok r -> r.E.spent
  | Error e -> Alcotest.failf "report: %a" E.pp_error e

let static_report backend =
  match
    Result.bind
      (A.parse_workload (String.concat "\n" workload))
      (A.analyze (schema backend))
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let bits = Int64.bits_of_float

let check_bits what a b =
  Alcotest.(check int64) (what ^ " epsilon bits") (bits a.Privacy.epsilon)
    (bits b.Privacy.epsilon);
  Alcotest.(check int64) (what ^ " delta bits") (bits a.Privacy.delta)
    (bits b.Privacy.delta)

let test_bit_exact backend () =
  let live = live_spent backend in
  let r = static_report backend in
  Alcotest.(check bool) "verdict PASS" true r.A.pass;
  Alcotest.(check int) "all accepted" (List.length workload) r.A.accepted;
  check_bits "static vs live spent" live r.A.spent;
  let rows = List.map (fun (row : A.row) -> row.A.mechanism) r.A.rows in
  Alcotest.(check bool) "train and stream rows priced" true
    (List.mem "gibbs" rows && List.mem "tree" rows)

(* The analyzer reports all three composed totals; each must equal the
   live total under a policy using that backend (same workload, same
   per-backend mechanism selection). *)
let test_composed_cross_backend () =
  let r = static_report Ledger.Basic in
  List.iter
    (fun (c : A.composed) -> check_bits "composed" (live_spent c.A.backend) c.A.spent)
    r.A.composed

let test_spec_is_static () =
  (* A schema with column bounds but an absurd row count still prices:
     nothing reads values. *)
  let s = schema Ledger.Basic in
  let s = { s with Registry.rows = 1_000_000_000 } in
  match Planner.spec s ~epsilon:0.1 (Query.Mean { column = "income" }) with
  | Error e -> Alcotest.fail e
  | Ok sp ->
      Alcotest.(check (float 0.)) "mean sensitivity scales with rows"
        (200_000. /. 1e9) sp.Planner.sensitivity

let test_parse_schema () =
  let text =
    "# demo\ndataset d rows=10 eps=2 backend=advanced slack=0.01\n\
     column age lo=0 hi=99\n"
  in
  (match A.parse_schema text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "name" "d" s.Registry.name;
      Alcotest.(check int) "rows" 10 s.Registry.rows;
      (match s.Registry.policy.backend with
      | Ledger.Advanced { slack } ->
          Alcotest.(check (float 0.)) "slack" 0.01 slack
      | _ -> Alcotest.fail "expected advanced backend"));
  (match A.parse_schema "dataset d rows=0\ncolumn a lo=0 hi=1\n" with
  | Ok _ -> Alcotest.fail "rows=0 accepted"
  | Error e ->
      Alcotest.(check bool) "error cites line 1" true
        (String.length e >= 7 && String.sub e 0 7 = "line 1:"));
  match A.parse_schema "column a lo=1 hi=0\n" with
  | Ok _ -> Alcotest.fail "lo>hi accepted"
  | Error _ -> ()

let test_parse_workload () =
  (match A.parse_workload "# w\ncount eps=0.5\nmean(income)\n" with
  | Error e -> Alcotest.fail e
  | Ok [ A.Stat a; A.Stat b ] ->
      Alcotest.(check string) "q1" "count" (Query.normalize a.query);
      Alcotest.(check (option (float 0.))) "q1 eps" (Some 0.5) a.epsilon;
      Alcotest.(check (option (float 0.))) "q2 default" None b.epsilon
  | Ok l -> Alcotest.failf "expected 2 stat items, got %d" (List.length l));
  (match A.parse_workload "train target=score eps=0.2 chains=2\n" with
  | Ok [ A.Train { train_opts; _ } ] ->
      Alcotest.(check (option (option string)))
        "target parsed" (Some (Some "score"))
        (List.assoc_opt "target" train_opts)
  | Ok _ -> Alcotest.fail "expected one train item"
  | Error e -> Alcotest.fail e);
  match A.parse_workload "train bogus=1\n" with
  | Ok _ -> Alcotest.fail "unknown train option accepted"
  | Error e ->
      Alcotest.(check bool) "error cites line 1" true
        (String.length e >= 7 && String.sub e 0 7 = "line 1:")

(* A workload that overdraws must FAIL with the tail rejected, and the
   rejected rows must charge nothing — exactly like the live gate. *)
let test_overdraft_fail () =
  let s =
    match
      Registry.schema ~name:"d" ~rows:100
        ~policy:(Registry.default_policy ~total:(Privacy.pure 0.25))
        [ { Registry.col = "age"; lo = 0.; hi = 99. } ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let items =
    List.map
      (fun text ->
        match Query.parse text with
        | Ok q -> A.Stat { text; query = q; epsilon = Some 0.1 }
        | Error e -> Alcotest.fail e)
      [ "count"; "sum(age)"; "mean(age)"; "count(age>=50)" ]
  in
  match A.analyze s items with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "FAIL" false r.A.pass;
      Alcotest.(check int) "accepted" 2 r.A.accepted;
      Alcotest.(check int) "rejected" 2 r.A.rejected;
      Alcotest.(check (float 0.)) "spent stops at gate" 0.2
        r.A.spent.Privacy.epsilon;
      List.iter
        (fun (row : A.row) ->
          if not row.accepted then
            Alcotest.(check (float 0.)) "rejected row charges nothing" 0.
              row.A.marginal.Privacy.epsilon)
        r.A.rows

(* The exact replies to bad option values: `register`, `train` and
   `stream new` parse their options through one reader, and these are
   its words on the wire. *)
let bad_value_replies =
  [
    ("register e eps=abc", "err bad-argument bad number eps=abc");
    ("register e rows=ten", "err bad-argument bad integer rows=ten");
    ("register e backend=fancy", "err bad-argument backend=fancy");
    ("register e rows=0", "err bad-argument rows must be positive");
    ("register e eps=1 eps=2", "err bad-argument duplicate option eps");
    ("train d eps=abc", "err bad-argument bad number eps=abc");
    ("train d steps=x", "err bad-argument bad integer steps=x");
    ("train d backend=svm", "err bad-argument bad backend=svm (gibbs|objpert)");
    ( "train d steps=4",
      "err bad-argument steps must be >= 8 (the gate splits each chain)" );
    ("stream new d N=abc", "err bad-argument bad integer N=abc");
    ("stream new d eps=inf", "err bad-argument bad number eps=inf");
    ("stream new d N=1", "err bad-argument N must be in [2, 1048576]");
    ( "stream new d bogus=1",
      "err bad-argument unknown option bogus (known: analyst eps N window)" );
  ]

let test_bad_value_replies () =
  let eng = E.create ~seed:7 () in
  (match E.register_synthetic eng ~name:"d" ~rows:50 ~policy:(policy Ledger.Basic) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (line, want) ->
      Alcotest.(check (list string)) line [ want ] (Protocol.exec eng line))
    bad_value_replies;
  match A.parse_schema "dataset d eps=abc\ncolumn a lo=0 hi=1\n" with
  | Ok _ -> Alcotest.fail "eps=abc accepted"
  | Error e ->
      Alcotest.(check string) "schema diagnostic" "line 1: bad number eps=abc" e

let () =
  let backends =
    [
      ("basic", Ledger.Basic);
      ("advanced", Ledger.Advanced { slack = 1e-5 });
      ("rdp", Ledger.Rdp { delta = 1e-6 });
    ]
  in
  Alcotest.run "analyze"
    [
      ( "bit-exact",
        List.map
          (fun (n, b) ->
            Alcotest.test_case ("static = live, " ^ n) `Quick
              (test_bit_exact b))
          backends );
      ( "cross-backend",
        [
          Alcotest.test_case "all composed totals match live" `Quick
            test_composed_cross_backend;
        ] );
      ( "static",
        [ Alcotest.test_case "spec never reads values" `Quick test_spec_is_static ] );
      ( "parsing",
        [
          Alcotest.test_case "schema files" `Quick test_parse_schema;
          Alcotest.test_case "workload files" `Quick test_parse_workload;
        ] );
      ( "verdict",
        [ Alcotest.test_case "overdraft FAILs" `Quick test_overdraft_fail ] );
      ( "replies",
        [ Alcotest.test_case "bad values pinned" `Quick test_bad_value_replies ] );
    ]
