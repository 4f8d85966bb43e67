(* Crash safety: the write-ahead budget journal, fault injection, and
   graceful degradation. The load-bearing invariant everywhere below is
   charge-before-answer: after any crash, replayed spent ε is >= the
   spend at the crash point — the engine may over-count, never
   under-count. *)

open Dp_mechanism
open Dp_engine

let temp_journal () = Filename.temp_file "dpkit_test" ".wal"

let with_journal f =
  let path = temp_journal () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let policy ?(epsilon = 2.) ?(delta = 1e-6) ?(backend = Ledger.Basic)
    ?(low_water = 0.) () =
  {
    (Registry.default_policy ~total:(Privacy.approx ~epsilon ~delta)) with
    backend;
    low_water;
  }

let fresh ?(seed = 42) ?(faults = Faults.none) () =
  Engine.create ~seed ~faults ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let ok_r label = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" label (Format.asprintf "%a" Engine.pp_error e)

let spent eng ~dataset =
  (ok_r "report" (Engine.report eng ~dataset)).Engine.spent

(* --- journal encode/decode --- *)

let sample_records =
  [
    Journal.Register { name = "demo"; rows = 321; seed = 7; policy = policy () };
    Journal.Charge
      {
        dataset = "demo";
        analyst = Some "alice";
        query = "mean(income)";
        mechanism = "laplace";
        face = Privacy.approx ~epsilon:0.125 ~delta:1e-7;
        marginal = Privacy.approx ~epsilon:0.125 ~delta:0.;
        rho = Some (Array.map (fun a -> a /. 2.) Ledger.alpha_grid);
      };
    Journal.Charge
      {
        dataset = "demo";
        analyst = None;
        query = "count";
        mechanism = "geometric";
        face = Privacy.approx ~epsilon:0.1 ~delta:0.;
        marginal = Privacy.approx ~epsilon:0.1 ~delta:0.;
        rho = None;
      };
    Journal.Cache_insert
      {
        dataset = "demo";
        key = "count|eps=0.1";
        answer = Planner.Scalar 317.000000000000057;
        mechanism = Planner.Geometric;
        requested = Privacy.approx ~epsilon:0.1 ~delta:0.;
      };
    Journal.Cache_insert
      {
        dataset = "demo";
        key = "histogram(age,4)";
        answer = Planner.Vector [| 1.5; -0.25; 1e-17; 80.0000000000001 |];
        mechanism = Planner.Laplace;
        requested = Privacy.approx ~epsilon:0.2 ~delta:0.;
      };
    Journal.Withheld { dataset = "demo"; reason = "rng"; frames = [] };
    Journal.Withheld
      { dataset = "demo"; reason = "journal"; frames = [ 1; 2 ] };
  ]

let roundtrip () =
  with_journal (fun path ->
      let j, existing, _ = ok (Journal.open_ path) in
      Alcotest.(check int) "fresh journal empty" 0 (List.length existing);
      List.iter
        (fun r ->
          match Journal.append j r with
          | Ok () -> ()
          | Error (`Transient m | `Fatal m) -> Alcotest.fail m)
        sample_records;
      Journal.close j;
      let loaded, stats = ok (Journal.load path) in
      Alcotest.(check int) "record count" (List.length sample_records)
        stats.Journal.records;
      Alcotest.(check int) "no torn bytes" 0 stats.Journal.torn_bytes;
      (* hex-float encoding means decode . encode is the identity, bit
         for bit — polymorphic equality on the decoded records holds *)
      Alcotest.(check bool) "records identical" true (loaded = sample_records))

let torn_tail () =
  with_journal (fun path ->
      let j, _, _ = ok (Journal.open_ path) in
      List.iter (fun r -> ignore (Journal.append j r)) sample_records;
      Journal.close j;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* chop mid-frame: every cut must recover a clean prefix *)
      let cuts = [ String.length full - 1; String.length full - 9; 17; 9 ] in
      List.iter
        (fun cut ->
          let cut = max 0 (min cut (String.length full)) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          let loaded, stats = ok (Journal.load path) in
          Alcotest.(check bool)
            (Printf.sprintf "cut at %d yields a record prefix" cut)
            true
            (stats.Journal.records <= List.length sample_records
            && loaded
               = List.filteri
                   (fun i _ -> i < stats.Journal.records)
                   sample_records);
          (* open_ repairs the file in place: reopening after the repair
             sees a clean journal with no torn bytes *)
          let j, _, _ = ok (Journal.open_ path) in
          Journal.close j;
          let _, stats' = ok (Journal.load path) in
          Alcotest.(check int)
            (Printf.sprintf "cut at %d repaired" cut)
            0 stats'.Journal.torn_bytes)
        cuts;
      (* garbage appended after valid frames is torn tail, not data *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc full;
          Out_channel.output_string oc "\x00\x01\xfe");
      let loaded, stats = ok (Journal.load path) in
      Alcotest.(check int) "garbage dropped" 3 stats.Journal.torn_bytes;
      Alcotest.(check bool) "records survive garbage" true
        (loaded = sample_records))

(* --- on-disk format, pinned: one frame per record constructor, byte
   for byte. A journal written by any earlier build must stay
   readable, so these literals change only with a deliberate format
   version bump. --- *)

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let golden_frames =
  [
    ( Journal.Register
        {
          name = "demo";
          rows = 321;
          seed = 7;
          policy =
            {
              Registry.total = Privacy.approx ~epsilon:2. ~delta:1e-6;
              backend = Ledger.Advanced { slack = 1e-9 };
              default_epsilon = 0.1;
              analyst_epsilon = Some 0.5;
              universe = 100;
              cache = true;
              low_water = 0.;
            };
        },
      "0000006a038e1bd652343b64656d6f3332313b373b307831702b313b\
       3078312e30633666376130623565643864702d32303b613078312e31\
       326530626538323664363935702d33303b3078312e39393939393939\
       393939393961702d343b31307831702d313b3130303b31307830702b\
       303b" );
    ( Journal.Charge
        {
          dataset = "demo";
          analyst = Some "alice";
          query = "count";
          mechanism = "laplace";
          face = Privacy.approx ~epsilon:0.125 ~delta:1e-7;
          marginal = Privacy.approx ~epsilon:0.125 ~delta:0.;
          rho = Some [| 0.5; 1.5 |];
        },
      "0000005d68111baa43343b64656d6f31353b616c696365353b636f75\
       6e74373b6c61706c616365307831702d333b3078312e616437663239\
       61626361663438702d32343b307831702d333b307830702b303b3132\
       3b307831702d313b3078312e38702b303b" );
    ( Journal.Cache_insert
        {
          dataset = "demo";
          key = "histogram(age,2)";
          answer = Planner.Vector [| 1.5; -0.25 |];
          mechanism = Planner.Laplace;
          requested = Privacy.approx ~epsilon:0.2 ~delta:0.;
        },
      "0000004b5c28154d4b343b64656d6f31363b686973746f6772616d28\
       6167652c32296c3078312e39393939393939393939393961702d333b\
       307830702b303b76323b3078312e38702b303b2d307831702d323b" );
    ( Journal.Withheld { dataset = "demo"; reason = "rng"; frames = [] },
      "0000000c196f042157343b64656d6f333b726e67" );
    ( Journal.Withheld
        { dataset = "demo"; reason = "journal"; frames = [ 3; 12 ] },
      "000000175c5107484d343b64656d6f373b6a6f75726e616c323b333b31323b" );
    ( Journal.Train
        {
          dataset = "demo";
          handle = "demo/m1";
          backend = "gibbs";
          epsilon = 0.1;
          chains = 2;
          steps = 16;
          beta = 0.5;
          face = Privacy.approx ~epsilon:0.2 ~delta:0.;
          target = "income";
          features = [| ("age", 18., 90.) |];
          theta = Some [| 0.25; -1. |];
          rhat = [| 1.25 |];
          ess = [| 12. |];
          acceptance = 0.375;
        },
      "000000a72c732cc054343b64656d6f373b64656d6f2f6d31353b6769\
       6262733078312e39393939393939393939393961702d343b323b3136\
       3b307831702d313b3078312e39393939393939393939393961702d33\
       3b307830702b303b363b696e636f6d65313b333b6167653078312e32\
       702b343b3078312e3638702b363b31323b307831702d323b2d307831\
       702b303b313b3078312e34702b303b313b3078312e38702b333b3078\
       312e38702d323b" );
    ( Journal.Stream_open
        { dataset = "demo"; handle = "demo/s1"; epsilon = 0.5; horizon = 8; window = 0 },
      "0000001b78f0081253343b64656d6f373b64656d6f2f733130783170\
       2d313b383b303b" );
    ( Journal.Stream_append
        { dataset = "demo"; handle = "demo/s1"; bit = 1; nodes = [| 0.75 |] },
      "0000001d855e086041343b64656d6f373b64656d6f2f7331313b313b\
       3078312e38702d313b" );
  ]

let golden_format () =
  List.iter
    (fun (r, expected) ->
      with_journal (fun path ->
          let j, _, _ = ok (Journal.open_ path) in
          (match Journal.append j r with
          | Ok () -> ()
          | Error (`Transient m | `Fatal m) -> Alcotest.fail m);
          Journal.close j;
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check string) "frame bytes" expected (hex bytes);
          let back, _ = ok (Journal.load path) in
          Alcotest.(check bool) "frame decodes back" true (back = [ r ])))
    golden_frames

(* --- engine recovery --- *)

let run_traffic eng =
  List.map
    (fun (analyst, expr) ->
      (expr, Engine.submit_text eng ?analyst ~dataset:"demo" expr))
    [
      (None, "count");
      (Some "alice", "mean(income)");
      (None, "count");  (* cache hit *)
      (Some "bob", "sum(age)");
      (None, "quantile(score,0.5)");
      (None, "histogram(age,4)");
    ]

let recovery_backend name backend () =
  with_journal (fun path ->
      let live = fresh () in
      let r = ok (Engine.open_journal live path) in
      Alcotest.(check bool) (name ^ " empty journal verified") true
        r.Engine.verified;
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:300
              ~policy:(policy ~backend ()))
      in
      let answers = run_traffic live in
      let live_spent = spent live ~dataset:"demo" in
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) (name ^ " recovery verified") true
        r.Engine.verified;
      Alcotest.(check int) (name ^ " datasets rebuilt") 1 r.Engine.datasets;
      let back = spent recovered ~dataset:"demo" in
      Alcotest.(check (float 0.)) (name ^ " spent eps exact")
        live_spent.Privacy.epsilon back.Privacy.epsilon;
      Alcotest.(check (float 0.)) (name ^ " spent delta exact")
        live_spent.Privacy.delta back.Privacy.delta;
      (* every answered query replays from cache, bit-identical *)
      List.iter
        (fun (expr, first) ->
          match first with
          | Error _ -> ()
          | Ok (first : Engine.response) ->
              let again =
                ok_r expr (Engine.submit_text recovered ~dataset:"demo" expr)
              in
              Alcotest.(check bool) (expr ^ " is a cache hit") true
                again.Engine.cache_hit;
              Alcotest.(check bool) (expr ^ " answer bit-identical") true
                (first.Engine.answer = again.Engine.answer))
        answers;
      Engine.close recovered)

(* Recovery replays charges without consuming PRNG draws, so a
   recovered engine that kept the seeded stream would hand its first
   fresh release the exact noise already released before the crash —
   differencing the two answers would cancel the noise. open_journal
   re-keys the stream from OS entropy; with the cache off, the same
   query after recovery is a genuinely fresh (and differently-noised)
   release. *)
let noise_fresh_after_recovery () =
  with_journal (fun path ->
      let no_cache = { (policy ()) with Registry.cache = false } in
      let live = fresh () in
      let _ = ok (Engine.open_journal live path) in
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:200
              ~policy:no_cache)
      in
      let first =
        ok_r "mean" (Engine.submit_text live ~dataset:"demo" "mean(income)")
      in
      Engine.close live;
      let recovered = fresh () in
      (* same seed as [live]! *)
      let _ = ok (Engine.open_journal recovered path) in
      let again =
        ok_r "mean" (Engine.submit_text recovered ~dataset:"demo" "mean(income)")
      in
      Alcotest.(check bool) "fresh release, not a cache hit" false
        again.Engine.cache_hit;
      Alcotest.(check bool) "noise not reused across recovery" true
        (first.Engine.answer <> again.Engine.answer);
      Engine.close recovered)

(* A live withheld charge (rng exhausted after the journaled charge)
   journals a Withheld outcome marker; recovery pairs it with its
   charge, so rebuilt answered/rejected stats and audit verdicts match
   the live run while the budget still includes the charge. *)
let withheld_outcome_recovered () =
  with_journal (fun path ->
      let faults = ok (Faults.parse "rng=always") in
      let live = fresh ~faults () in
      let _ = ok (Engine.open_journal live path) in
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:100
              ~policy:(policy ()))
      in
      (match Engine.submit_text live ~dataset:"demo" "count" with
      | Error (Engine.Transient _) -> ()
      | Ok _ -> Alcotest.fail "rng=always released an answer"
      | Error e ->
          Alcotest.failf "expected transient, got %s"
            (Format.asprintf "%a" Engine.pp_error e));
      let live_r = ok_r "report" (Engine.report live ~dataset:"demo") in
      Alcotest.(check int) "live answered" 0 live_r.Engine.answered;
      Alcotest.(check int) "live rejected" 1 live_r.Engine.rejected;
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) "recovery verified" true r.Engine.verified;
      Alcotest.(check int) "charge replayed" 1 r.Engine.charges;
      let rep = ok_r "report" (Engine.report recovered ~dataset:"demo") in
      Alcotest.(check int) "recovered answered matches live" 0
        rep.Engine.answered;
      Alcotest.(check int) "recovered rejected matches live" 1
        rep.Engine.rejected;
      Alcotest.(check (float 0.)) "withheld charge still spent"
        live_r.Engine.spent.Privacy.epsilon rep.Engine.spent.Privacy.epsilon;
      Alcotest.(check bool) "charged-unreleased verdict rebuilt" true
        (List.exists
           (fun (rc : Audit_log.record) ->
             match rc.Audit_log.verdict with
             | Audit_log.Charged_unreleased _ -> true
             | _ -> false)
           (Engine.records recovered ~dataset:"demo"));
      Engine.close recovered)

(* Observability across recovery: the snapshot-mirrored counters and
   gauges are written from the same authoritative state the journal
   restores, so a recovered engine's metrics agree with the live
   engine's by construction — the monitoring view cannot drift from the
   ledger across a crash. (Cache lookup counters are the deliberate
   exception: they count lookups on *this* process, so a fresh process
   restarts them at zero.) *)
let metrics_snapshot_recovered () =
  with_journal (fun path ->
      let snapshot eng =
        Engine.refresh_metrics eng;
        let d = Dp_obs.Metrics.dataset (Engine.metrics eng) "demo" in
        ( Dp_obs.Metrics.count d Dp_obs.Name.Queries_answered,
          Dp_obs.Metrics.count d Dp_obs.Name.Queries_rejected,
          Dp_obs.Metrics.count d Dp_obs.Name.Queries_withheld,
          Dp_obs.Metrics.gauge d Dp_obs.Name.Eps_spent,
          Dp_obs.Metrics.gauge d Dp_obs.Name.Eps_remaining,
          Dp_obs.Metrics.gauge d Dp_obs.Name.Degraded_mode )
      in
      let status_field line key =
        match
          List.find_opt
            (fun tok ->
              String.length tok > String.length key
              && String.sub tok 0 (String.length key + 1) = key ^ "=")
            (String.split_on_char ' ' (String.trim line))
        with
        | Some tok -> tok
        | None -> Alcotest.failf "status line %S lacks %s=" line key
      in
      let dataset_status eng =
        match
          List.find_opt
            (fun l ->
              match String.split_on_char ' ' (String.trim l) with
              | "dataset" :: "demo" :: _ -> true
              | _ -> false)
            (Protocol.exec eng "status")
        with
        | Some l -> l
        | None -> Alcotest.fail "status has no dataset line"
      in
      let live = fresh () in
      let _ = ok (Engine.open_journal live path) in
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:300
              ~policy:(policy ()))
      in
      let _ = run_traffic live in
      let live_snap = snapshot live in
      let live_status = dataset_status live in
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) "recovery verified" true r.Engine.verified;
      let rec_snap = snapshot recovered in
      let a, rj, w, es, er, dm = live_snap in
      let a', rj', w', es', er', dm' = rec_snap in
      Alcotest.(check int) "answered counter survives recovery" a a';
      Alcotest.(check int) "rejected counter survives recovery" rj rj';
      Alcotest.(check int) "withheld counter survives recovery" w w';
      Alcotest.(check (float 0.)) "eps_spent gauge exact across recovery" es es';
      Alcotest.(check (float 0.)) "eps_remaining gauge exact across recovery" er
        er';
      Alcotest.(check (float 0.)) "degradation gauge agrees" dm dm';
      Alcotest.(check bool) "live traffic answered something" true (a > 0);
      let rec_status = dataset_status recovered in
      List.iter
        (fun key ->
          Alcotest.(check string)
            ("status " ^ key ^ " agrees across recovery")
            (status_field live_status key)
            (status_field rec_status key))
        [ "eps-spent"; "eps-remaining"; "answered"; "mode" ];
      (* hit-rate is reported on both sides even though lookup counters
         restart with the process *)
      ignore (status_field live_status "hit-rate");
      ignore (status_field rec_status "hit-rate");
      (* the full metrics dump of the recovered engine stays inside the
         closed catalogue and parses back *)
      (match Dp_obs.Export.parse (Engine.metrics_lines recovered) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "recovered dump must parse: %s" msg);
      (* answered queries replay from the recovered cache as hits, which
         the mirrored cache_hits counter then reflects *)
      let _ =
        ok_r "count" (Engine.submit_text recovered ~dataset:"demo" "count")
      in
      Engine.refresh_metrics recovered;
      let d = Dp_obs.Metrics.dataset (Engine.metrics recovered) "demo" in
      Alcotest.(check bool) "replayed answer counted as cache hit" true
        (Dp_obs.Metrics.count d Dp_obs.Name.Cache_hits > 0);
      Engine.close recovered)

let raw_register_refused () =
  with_journal (fun path ->
      let eng = fresh () in
      let _ = ok (Engine.open_journal eng path) in
      let ds =
        Registry.synthetic ~name:"raw" ~rows:10
          ~policy:(policy ()) (Dp_rng.Prng.create 1)
      in
      (match Engine.register eng ds with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "raw dataset accepted with journal attached");
      Engine.close eng)

let crash_after_charge () =
  with_journal (fun path ->
      let faults = ok (Faults.parse "crash-after-charge=2") in
      let live = fresh ~faults () in
      let _ = ok (Engine.open_journal live path) in
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:200
              ~policy:(policy ()))
      in
      let first = ok_r "count" (Engine.submit_text live ~dataset:"demo" "count") in
      let spent_before = spent live ~dataset:"demo" in
      (* the second fresh release crashes between the journaled charge
         and the answer *)
      (match Engine.submit_text live ~dataset:"demo" "mean(income)" with
      | exception Faults.Crash Faults.Crash_after_charge -> ()
      | Ok _ -> Alcotest.fail "expected injected crash"
      | Error e -> Alcotest.failf "expected crash, got %s" (Format.asprintf "%a" Engine.pp_error e));
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) "recovery verified" true r.Engine.verified;
      Alcotest.(check int) "both charges replayed" 2 r.Engine.charges;
      let back = spent recovered ~dataset:"demo" in
      (* over-count, never under-count: the crashed query's charge is
         included even though its answer was never released *)
      Alcotest.(check bool) "spent includes crashed charge" true
        (back.Privacy.epsilon > spent_before.Privacy.epsilon +. 0.05);
      let again =
        ok_r "count" (Engine.submit_text recovered ~dataset:"demo" "count")
      in
      Alcotest.(check bool) "pre-crash answer cached" true
        again.Engine.cache_hit;
      Alcotest.(check bool) "pre-crash answer bit-identical" true
        (first.Engine.answer = again.Engine.answer);
      Engine.close recovered)

(* --- fault injection and retries --- *)

let transient_faults_absorbed () =
  with_journal (fun path ->
      let faults = ok (Faults.parse "all-transient") in
      let eng = fresh ~faults () in
      let _ = ok (Engine.open_journal eng path) in
      let _ =
        ok (Engine.register_synthetic eng ~name:"demo" ~rows:100
              ~policy:(policy ()))
      in
      (* every first attempt of journal-write, journal-fsync and rng
         fails; bounded retries must absorb all of it *)
      List.iter
        (fun expr ->
          match Engine.submit_text eng ~dataset:"demo" expr with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "%s failed under all-transient: %s" expr
                (Format.asprintf "%a" Engine.pp_error e))
        [ "count"; "mean(income)"; "sum(age)" ];
      Engine.close eng;
      (* and the journal is still clean and replayable *)
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) "verified after fault soak" true r.Engine.verified;
      Alcotest.(check int) "all charges durable" 3 r.Engine.charges;
      Engine.close recovered)

let with_retries_unit () =
  let calls = ref 0 in
  (match
     Faults.with_retries ~attempts:3 ~backoff_s:0. (fun ~attempt ->
         incr calls;
         if attempt < 3 then raise (Faults.Injected Faults.Rng) else "done")
   with
  | Ok v ->
      Alcotest.(check string) "eventual success" "done" v;
      Alcotest.(check int) "three attempts" 3 !calls
  | Error e -> Alcotest.fail e);
  match
    Faults.with_retries ~attempts:2 ~backoff_s:0. (fun ~attempt:_ ->
        raise (Faults.Injected Faults.Journal_fsync))
  with
  | Ok () -> Alcotest.fail "should have exhausted retries"
  | Error _ -> ()

(* Full-jitter backoff: the schedule must differ across attempts (the
   point of jitter is decorrelating a herd) yet replay deterministically
   under a fixed seed (the point of threading an explicit stream). *)
let backoff_jitter () =
  let attempts = [ 1; 2; 3; 4; 5 ] in
  let sched g =
    List.map
      (fun attempt ->
        Faults.backoff_delay ~jitter:g ~backoff_s:0.001 ~attempt ())
      attempts
  in
  let s1 = sched (Dp_rng.Prng.create 42) in
  let s2 = sched (Dp_rng.Prng.create 42) in
  Alcotest.(check (list (float 0.))) "fixed seed replays exactly" s1 s2;
  let plain =
    List.map
      (fun attempt -> Faults.backoff_delay ~backoff_s:0.001 ~attempt ())
      attempts
  in
  Alcotest.(check bool) "jittered schedule differs from unjittered" true
    (s1 <> plain);
  List.iter2
    (fun j p ->
      Alcotest.(check bool) "full jitter stays in [0, delay)" true
        (j >= 0. && j < p))
    s1 plain;
  let s3 = sched (Dp_rng.Prng.create 43) in
  Alcotest.(check bool) "different seeds decorrelate" true (s1 <> s3);
  Alcotest.(check (float 0.))
    "cap bounds the exponential" 0.5
    (Faults.backoff_delay ~cap_s:0.5 ~backoff_s:0.2 ~attempt:10 ());
  (* with_retries threads the stream through its sleeps *)
  match
    Faults.with_retries ~attempts:3 ~backoff_s:1e-6
      ~jitter:(Dp_rng.Prng.create 7) (fun ~attempt ->
        if attempt < 3 then raise (Faults.Injected Faults.Rng) else attempt)
  with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected success on attempt 3, got %d" n
  | Error e -> Alcotest.fail e

let fault_spec_parsing () =
  Alcotest.(check bool) "off unarmed" false
    (Faults.armed (ok (Faults.parse "off")));
  Alcotest.(check bool) "empty unarmed" false
    (Faults.armed (ok (Faults.parse "")));
  Alcotest.(check bool) "all-transient armed" true
    (Faults.armed (ok (Faults.parse "all-transient")));
  (match Faults.parse "no-such-point" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus point accepted");
  (match Faults.parse "rng=0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rng=0 accepted");
  let t = ok (Faults.parse "journal-write=2") in
  Alcotest.(check bool) "1st opportunity quiet" false
    (Faults.fire t Faults.Journal_write);
  Alcotest.(check bool) "2nd opportunity fires" true
    (Faults.fire t Faults.Journal_write);
  Alcotest.(check bool) "one-shot consumed" false
    (Faults.fire t Faults.Journal_write);
  (* always: fires on every opportunity, retries included *)
  let t = ok (Faults.parse "rng=always") in
  Alcotest.(check bool) "always fires" true (Faults.fire t Faults.Rng);
  Alcotest.(check bool) "always fires on retries" true
    (Faults.fire t ~attempt:3 Faults.Rng);
  match Faults.parse "rng=sometimes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus count accepted"

(* --- graceful degradation --- *)

let degraded_mode () =
  let eng = fresh () in
  let _ =
    ok
      (Engine.register_synthetic eng ~name:"demo" ~rows:100
         ~policy:(policy ~epsilon:0.25 ~delta:0. ~low_water:0.1 ()))
  in
  let first = ok_r "count" (Engine.submit_text eng ~dataset:"demo" "count") in
  let _ = ok_r "mean" (Engine.submit_text eng ~dataset:"demo" "mean(age)") in
  (* remaining 0.05 < low-water 0.1: fresh queries refused softly... *)
  (match Engine.submit_text eng ~dataset:"demo" "sum(income)" with
  | Error (Engine.Degraded { low_water; remaining; _ }) ->
      Alcotest.(check (float 0.)) "low water reported" 0.1 low_water;
      Alcotest.(check bool) "remaining below mark" true
        (remaining.Privacy.epsilon < 0.1)
  | Ok _ -> Alcotest.fail "fresh query served below low-water mark"
  | Error e ->
      Alcotest.failf "expected degraded, got %s"
        (Format.asprintf "%a" Engine.pp_error e));
  (* ...but cache hits are free post-processing and still flow *)
  let again = ok_r "count" (Engine.submit_text eng ~dataset:"demo" "count") in
  Alcotest.(check bool) "cache hit in degraded mode" true again.Engine.cache_hit;
  Alcotest.(check bool) "cached answer unchanged" true
    (first.Engine.answer = again.Engine.answer);
  let report = ok_r "report" (Engine.report eng ~dataset:"demo") in
  Alcotest.(check bool) "report flags degraded" true report.Engine.degraded

(* --- the pool's lease gate, in process --- *)

(* The three fresh releases, each with a predicate on its error: the
   request that a refusing gate must stop before its spend. *)
let gated_requests =
  let train_params =
    match
      Dp_train.Train.params_of_opts ~default_epsilon:0.1
        [ ("backend", Some "objpert"); ("eps", Some "0.1") ]
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let stream_params =
    match
      Dp_stream.Stream.params_of_opts ~default_epsilon:0.1 [ ("N", Some "16") ]
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let drop = function Ok _ -> Ok () | Error e -> Error e in
  [
    ( "query",
      fun eng ->
        drop (Engine.submit_text eng ~epsilon:0.1 ~dataset:"demo" "count") );
    ("train", fun eng -> drop (Engine.train eng ~dataset:"demo" train_params));
    ( "stream open",
      fun eng -> drop (Engine.stream_open eng ~dataset:"demo" stream_params) );
  ]

let gate_verdicts =
  let face = Privacy.pure 0.1 and none = Privacy.pure 0. in
  [
    ( "denied",
      Engine.Lease_denied { requested = face; remaining = none },
      (function Engine.Budget_exceeded _ -> true | _ -> false),
      "budget-exceeded" );
    ( "superseded",
      Engine.Lease_superseded { token = 7 },
      (function Engine.Lease_lost { token = 7; _ } -> true | _ -> false),
      "lease-lost" );
    ( "unavailable",
      Engine.Lease_unavailable "grant timed out",
      (function Engine.Transient _ -> true | _ -> false),
      "lease-unavailable" );
  ]

let last_record eng =
  match List.rev (Engine.records eng ~dataset:"demo") with
  | r :: _ -> r
  | [] -> Alcotest.fail "no audit record"

(* A refusing gate stops each fresh release before its spend: the typed
   error, one more rejection, no spend, no journal frame, and an audit
   record that names the mechanism and the requested face, as a ledger
   rejection does. The face and mechanism are the ones the same request
   is answered with when no gate stands in the way. *)
let lease_refusals () =
  List.iter
    (fun (what, request) ->
      let open_engine path =
        let eng = fresh () in
        ignore (ok (Engine.open_journal eng path));
        ignore
          (ok
             (Engine.register_synthetic eng ~name:"demo" ~rows:400
                ~policy:(policy ())));
        eng
      in
      let answered =
        with_journal (fun path ->
            let eng = open_engine path in
            ok_r what (request eng);
            let r = last_record eng in
            Engine.close eng;
            r)
      in
      List.iter
        (fun (verdict_name, verdict, expected, reason) ->
          with_journal (fun path ->
              let eng = open_engine path in
              Engine.set_lease_gate eng
                (Some (fun ~dataset:_ ~face:_ -> verdict));
              let label = Printf.sprintf "%s, gate %s" what verdict_name in
              let report () = ok_r "report" (Engine.report eng ~dataset:"demo") in
              let appends () =
                Dp_obs.Metrics.count
                  (Dp_obs.Metrics.global (Engine.metrics eng))
                  Dp_obs.Name.Journal_appends
              in
              let before = report () and appends0 = appends () in
              (match request eng with
              | Ok () -> Alcotest.failf "%s: served past a refusing gate" label
              | Error e ->
                  if not (expected e) then
                    Alcotest.failf "%s: wrong error %s" label
                      (Format.asprintf "%a" Engine.pp_error e));
              let after = report () in
              Alcotest.(check int)
                (label ^ ": one more rejection")
                (before.Engine.rejected + 1) after.Engine.rejected;
              Alcotest.(check (float 0.))
                (label ^ ": nothing spent")
                before.Engine.spent.Privacy.epsilon
                after.Engine.spent.Privacy.epsilon;
              Alcotest.(check int)
                (label ^ ": nothing journaled")
                appends0 (appends ());
              let r = last_record eng in
              Alcotest.(check bool)
                (label ^ ": rejected for the lease")
                true
                (r.Audit_log.verdict = Audit_log.Rejected reason);
              Alcotest.(check (option string))
                (label ^ ": mechanism logged")
                answered.Audit_log.mechanism r.Audit_log.mechanism;
              Alcotest.(check (float 0.))
                (label ^ ": requested face logged")
                answered.Audit_log.requested.Privacy.epsilon
                r.Audit_log.requested.Privacy.epsilon;
              Alcotest.(check (float 0.))
                (label ^ ": nothing charged")
                0. r.Audit_log.charged.Privacy.epsilon;
              Engine.close eng))
        gate_verdicts)
    gated_requests

(* --- protocol hardening --- *)

let proto_exec eng line = String.concat "\n" (Protocol.exec eng line)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_prefix name prefix line =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" name line prefix)
    true (starts_with prefix line)

let protocol_taxonomy () =
  let eng = fresh () in
  check_prefix "duplicate key" "err bad-argument duplicate option eps"
    (proto_exec eng "register demo rows=10 eps=1 eps=2");
  check_prefix "unknown key" "err bad-argument unknown option bogus"
    (proto_exec eng "register demo bogus=1");
  check_prefix "unknown query key" "err bad-argument unknown option rows"
    (proto_exec eng "query demo count rows=10");
  check_prefix "bad low-water" "err bad-argument low-water"
    (proto_exec eng "register demo low-water=-1");
  check_prefix "oversized line" "err bad-argument line exceeds"
    (proto_exec eng ("query demo " ^ String.make Protocol.max_line_bytes 'x'));
  check_prefix "register ok" "ok registered"
    (proto_exec eng "register demo rows=50 eps=0.3 low-water=0.1");
  check_prefix "query ok" "ok seq=" (proto_exec eng "query demo count");
  check_prefix "second charge ok" "ok seq="
    (proto_exec eng "query demo mean(age)");
  check_prefix "degraded taxonomy" "err degraded dataset=demo"
    (proto_exec eng "query demo sum(income)");
  check_prefix "unknown dataset" "err unknown-dataset"
    (proto_exec eng "query nope count");
  (match Protocol.exec eng "status" with
  | header :: ds ->
      check_prefix "status header" "ok status datasets=1 journal=off" header;
      Alcotest.(check int) "status lists datasets" 1 (List.length ds);
      Alcotest.(check bool) "status shows degraded" true
        (List.exists
           (fun l -> starts_with "  dataset demo" l
                     && String.length l > 0
                     && Option.is_some
                          (String.index_opt l 'd')
                     && (let n = String.length "mode=degraded" in
                         String.length l >= n
                         && String.sub l (String.length l - n) n
                            = "mode=degraded"))
           ds)
  | [] -> Alcotest.fail "status returned nothing");
  (* exec never lets an exception escape as anything but err fatal *)
  check_prefix "internal errors typed" "err"
    (proto_exec eng "query demo count eps=nan")

(* serve reads with a bounded buffer: a huge newline-free line is
   drained in O(1) memory, rejected with its true byte count, and the
   loop keeps serving the requests after it *)
let serve_bounded_input () =
  let eng = fresh () in
  let in_path = Filename.temp_file "dpkit_in" ".txt" in
  let out_path = Filename.temp_file "dpkit_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ in_path; out_path ])
    (fun () ->
      let huge = "query demo " ^ String.make (300 * 1024) 'x' in
      Out_channel.with_open_bin in_path (fun oc ->
          Out_channel.output_string oc (huge ^ "\nhelp\nquit\n"));
      In_channel.with_open_bin in_path (fun ic ->
          Out_channel.with_open_bin out_path (fun oc ->
              Protocol.serve eng ic oc));
      let out = In_channel.with_open_bin out_path In_channel.input_all in
      match String.split_on_char '\n' out with
      | first :: rest ->
          check_prefix "oversized line over serve"
            (Printf.sprintf "err bad-argument line exceeds %d bytes (got %d)"
               Protocol.max_line_bytes (String.length huge))
            first;
          Alcotest.(check bool) "loop continues past the oversized line" true
            (List.exists (fun l -> l = "ok commands:") rest);
          Alcotest.(check bool) "quit acknowledged" true
            (List.mem "ok bye" rest)
      | [] -> Alcotest.fail "serve produced no output")

(* --- qcheck: replay reconstructs the ledger, even truncated --- *)

let queries_pool =
  [| "count"; "mean(income)"; "sum(age)"; "quantile(score,0.5)";
     "histogram(age,4)"; "count(age>40)" |]

let prop_replay_spent =
  QCheck.Test.make ~count:25 ~name:"journal replay spent = live spent at every prefix"
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 12) (int_bound (Array.length queries_pool - 1)))
        (int_bound 2) (int_bound 10_000))
    (fun (picks, backend_ix, cut_salt) ->
      let backend =
        match backend_ix with
        | 0 -> Ledger.Basic
        | 1 -> Ledger.Advanced { slack = 1e-6 }
        | _ -> Ledger.Rdp { delta = 1e-6 }
      in
      with_journal (fun path ->
          let live = fresh () in
          let _ = ok (Engine.open_journal live path) in
          let _ =
            ok
              (Engine.register_synthetic live ~name:"demo" ~rows:64
                 ~policy:(policy ~epsilon:1.5 ~backend ()))
          in
          (* spends.(k) = spent budget after k journaled charges *)
          let spends = ref [ Privacy.approx ~epsilon:0. ~delta:0. ] in
          List.iter
            (fun i ->
              match
                Engine.submit_text live ~dataset:"demo" queries_pool.(i)
              with
              | Ok r when not r.Engine.cache_hit ->
                  spends := spent live ~dataset:"demo" :: !spends
              | Ok _ | Error _ -> ())
            picks;
          let spends = Array.of_list (List.rev !spends) in
          let live_spent = spent live ~dataset:"demo" in
          Engine.close live;
          (* full replay: exact equality *)
          let r1 = fresh () in
          let rec1 = ok (Engine.open_journal r1 path) in
          let full = spent r1 ~dataset:"demo" in
          Engine.close r1;
          if not rec1.Engine.verified then
            QCheck.Test.fail_report "full recovery not verified";
          if full <> live_spent then
            QCheck.Test.fail_report "full replay spent <> live spent";
          (* truncate a random suffix — a crash mid-write — and replay:
             the rebuilt spend must equal the live spend after exactly
             the charges that survived, and never exceed the full spend *)
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          let cut = cut_salt mod (String.length bytes + 1) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub bytes 0 cut));
          let records, _ = ok (Journal.load path) in
          let survived_register =
            List.exists (function Journal.Register _ -> true | _ -> false) records
          in
          let k =
            List.length
              (List.filter (function Journal.Charge _ -> true | _ -> false) records)
          in
          let r2 = fresh () in
          let rec2 = ok (Engine.open_journal r2 path) in
          let outcome =
            if not rec2.Engine.verified then
              QCheck.Test.fail_report "truncated recovery not verified"
            else if not survived_register then rec2.Engine.datasets = 0
            else begin
              let back = spent r2 ~dataset:"demo" in
              back = spends.(k)
              && back.Privacy.epsilon <= live_spent.Privacy.epsilon
            end
          in
          Engine.close r2;
          outcome))

(* --- loss-safe frames and group commit --- *)

let journal_fsyncs eng =
  Dp_obs.Metrics.count
    (Dp_obs.Metrics.global (Engine.metrics eng))
    Dp_obs.Name.Journal_fsyncs

(* A journal that already holds [demo] (and, with [stream], one open
   stream), written by a fault-free engine: a second engine can then
   serve it under a fault plan that would refuse the registration. *)
let seeded_journal ?(stream = false) ?(appends = 0) path =
  let eng = fresh () in
  let _ = ok (Engine.open_journal eng path) in
  let _ =
    ok
      (Engine.register_synthetic eng ~name:"demo" ~rows:200
         ~policy:(policy ()))
  in
  if stream then begin
    let _ =
      ok_r "stream open"
        (Engine.stream_open eng ~dataset:"demo"
           { Dp_stream.Stream.epsilon = 0.1; horizon = 64; window = 0 })
    in
    for _ = 1 to appends do
      ignore (ok_r "append" (Engine.append eng "demo/s1" 1))
    done
  end;
  Engine.close eng

let cache_insert_rides_next_sync () =
  with_journal (fun path ->
      let live = fresh () in
      let _ = ok (Engine.open_journal live path) in
      let _ =
        ok (Engine.register_synthetic live ~name:"demo" ~rows:200
              ~policy:(policy ()))
      in
      let before = journal_fsyncs live in
      let first = ok_r "count" (Engine.submit_text live ~dataset:"demo" "count") in
      Alcotest.(check int) "a fresh count pays one fsync, for its charge"
        (before + 1) (journal_fsyncs live);
      Engine.close live;
      Alcotest.(check int) "close syncs the unsynced cache frame"
        (before + 2) (journal_fsyncs live);
      let recovered = fresh () in
      let _ = ok (Engine.open_journal recovered path) in
      let again =
        ok_r "count" (Engine.submit_text recovered ~dataset:"demo" "count")
      in
      Alcotest.(check bool) "repeat after restart is a cache hit" true
        again.Engine.cache_hit;
      Alcotest.(check bool) "bit-identical answer" true
        (first.Engine.answer = again.Engine.answer);
      Engine.close recovered)

(* The reproduction of a refused append that used to replay: its frame
   was written, its fsync failed, and the live tree never committed it.
   The marker naming the frame makes recovery skip it. *)
let refused_append_not_replayed () =
  with_journal (fun path ->
      seeded_journal ~stream:true ~appends:3 path;
      let faults = ok (Faults.parse "journal-fsync=always") in
      let live = fresh ~faults () in
      let _ = ok (Engine.open_journal live path) in
      for _ = 1 to 2 do
        match Engine.append live "demo/s1" 1 with
        | Error (Engine.Transient _) -> ()
        | Ok _ -> Alcotest.fail "an append was accepted without a durable frame"
        | Error e ->
            Alcotest.failf "expected transient, got %s"
              (Format.asprintf "%a" Engine.pp_error e)
      done;
      let live_r = ok_r "read" (Engine.stream_read live "demo/s1") in
      Alcotest.(check int) "live stream stays at t=3" 3 live_r.Engine.t_now;
      Engine.close live;
      let recovered = fresh () in
      let _ = ok (Engine.open_journal recovered path) in
      let back = ok_r "read" (Engine.stream_read recovered "demo/s1") in
      Alcotest.(check int) "recovered t_now equals live" live_r.Engine.t_now
        back.Engine.t_now;
      Alcotest.(check (float 0.)) "recovered read equals live"
        live_r.Engine.count back.Engine.count;
      let next = ok_r "append" (Engine.append recovered "demo/s1" 0) in
      Alcotest.(check int) "the stream goes on from t=3" 4 next.Engine.t_now;
      Engine.close recovered)

let verdicts eng =
  List.map
    (fun (rc : Audit_log.record) ->
      match rc.Audit_log.verdict with
      | Audit_log.Answered -> "answered"
      | Audit_log.Charged_unreleased r -> "withheld:" ^ r
      | Audit_log.Rejected r -> "rejected:" ^ r)
    (Engine.records eng ~dataset:"demo")

(* Two charges parked in one group commit share one fsync. When it
   fails, both are withheld, and each marker names its own charge: a
   marker paired with the frame right before it would make recovery
   count the first charge as answered. *)
let failed_batch_sync_withholds_all () =
  with_journal (fun path ->
      seeded_journal path;
      let faults = ok (Faults.parse "journal-fsync=always") in
      let live = fresh ~faults () in
      let _ = ok (Engine.open_journal live path) in
      let results = Array.make 2 None in
      Wal.group
        (List.mapi
           (fun i expr () ->
             results.(i) <- Some (Engine.submit_text live ~dataset:"demo" expr))
           [ "count"; "sum(age)" ]);
      Array.iter
        (function
          | Some (Error (Engine.Transient _)) -> ()
          | Some (Ok _) ->
              Alcotest.fail "an answer left without a durable charge"
          | _ -> Alcotest.fail "expected a transient refusal")
        results;
      let live_r = ok_r "report" (Engine.report live ~dataset:"demo") in
      Alcotest.(check int) "live answered" 0 live_r.Engine.answered;
      Alcotest.(check int) "live rejected" 2 live_r.Engine.rejected;
      let live_verdicts = verdicts live in
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check bool) "recovery verified" true r.Engine.verified;
      Alcotest.(check int) "both charges replayed" 2 r.Engine.charges;
      let rep = ok_r "report" (Engine.report recovered ~dataset:"demo") in
      Alcotest.(check int) "recovered answered matches live"
        live_r.Engine.answered rep.Engine.answered;
      Alcotest.(check int) "recovered rejected matches live"
        live_r.Engine.rejected rep.Engine.rejected;
      Alcotest.(check (float 0.)) "withheld charges still spent"
        live_r.Engine.spent.Privacy.epsilon rep.Engine.spent.Privacy.epsilon;
      Alcotest.(check (list string)) "audit verdicts match live" live_verdicts
        (verdicts recovered);
      Engine.close recovered)

(* In one group commit: distinct fresh queries share one fsync; a repeat
   of a parked query waits and hits the cache; two appends to one
   stream run one after the other. *)
let group_commit_batches () =
  with_journal (fun path ->
      seeded_journal ~stream:true path;
      let live = fresh () in
      let _ = ok (Engine.open_journal live path) in
      let before = journal_fsyncs live in
      let replies = ref [] in
      let query expr () =
        (* bind first: the submit parks, and the other jobs push meanwhile *)
        let r = Engine.submit_text live ~dataset:"demo" expr in
        replies := (expr, r) :: !replies
      in
      Wal.group
        [ query "count"; query "sum(age)"; query "count"; query "mean(income)" ];
      (* without OCaml 5 effects nothing parks: one fsync per charge *)
      let effects = Scanf.sscanf Sys.ocaml_version "%d." Fun.id >= 5 in
      Alcotest.(check int) "one fsync for three charges"
        (before + if effects then 1 else 3)
        (journal_fsyncs live);
      let hits =
        List.filter
          (function
            | _, Ok (r : Engine.response) -> r.Engine.cache_hit
            | _, Error _ -> Alcotest.fail "a batched query failed")
          !replies
      in
      (match hits with
      | [ ("count", _) ] -> ()
      | _ -> Alcotest.fail "the repeated count must be the one cache hit");
      let spent_q = spent live ~dataset:"demo" in
      let ts = ref [] in
      let app () =
        match Engine.append live "demo/s1" 1 with
        | Ok a ->
            let t = a.Engine.t_now in
            ts := t :: !ts
        | Error e ->
            Alcotest.failf "append: %s" (Format.asprintf "%a" Engine.pp_error e)
      in
      Wal.group [ app; app; app ];
      Alcotest.(check (list int)) "appends to one stream serialize" [ 1; 2; 3 ]
        (List.sort compare !ts);
      Alcotest.(check int) "stream at t=3" 3
        (ok_r "read" (Engine.stream_read live "demo/s1")).Engine.t_now;
      Engine.close live;
      let recovered = fresh () in
      let _ = ok (Engine.open_journal recovered path) in
      Alcotest.(check (float 0.)) "recovered spend equals live"
        spent_q.Privacy.epsilon
        (spent recovered ~dataset:"demo").Privacy.epsilon;
      Alcotest.(check int) "recovered stream at t=3" 3
        (ok_r "read" (Engine.stream_read recovered "demo/s1")).Engine.t_now;
      Engine.close recovered)

(* Handle numbers and dataset names are claimed once per batch: two
   stream opens in one group commit get two handles, and a second
   registration of a parked name is refused, as run one after the
   other. *)
let group_commit_unique_names () =
  with_journal (fun path ->
      seeded_journal path;
      let live = fresh () in
      let _ = ok (Engine.open_journal live path) in
      let handles = ref [] and registered = ref [] in
      let open_stream () =
        match
          Engine.stream_open live ~dataset:"demo"
            { Dp_stream.Stream.epsilon = 0.1; horizon = 64; window = 0 }
        with
        | Ok o ->
            let h = o.Engine.stream.Dp_stream.Stream_store.handle in
            handles := h :: !handles
        | Error e ->
            Alcotest.failf "open: %s" (Format.asprintf "%a" Engine.pp_error e)
      in
      let register () =
        let r =
          Engine.register_synthetic live ~name:"other" ~rows:50
            ~policy:(policy ())
        in
        registered := Result.is_ok r :: !registered
      in
      Wal.group [ open_stream; register; open_stream; register ];
      Alcotest.(check (list string))
        "two distinct handles" [ "demo/s1"; "demo/s2" ]
        (List.sort compare !handles);
      Alcotest.(check (list bool)) "one registration wins" [ false; true ]
        (List.sort compare !registered);
      Engine.close live;
      let recovered = fresh () in
      let r = ok (Engine.open_journal recovered path) in
      Alcotest.(check int) "both streams recovered" 2
        r.Engine.streams_recovered;
      Alcotest.(check int) "both datasets recovered" 2 r.Engine.datasets;
      Engine.close recovered)

let () =
  Alcotest.run "dp_durability"
    [
      ( "journal",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick roundtrip;
          Alcotest.test_case "torn tail truncation" `Quick torn_tail;
          Alcotest.test_case "golden frame bytes" `Quick golden_format;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "basic backend" `Quick
            (recovery_backend "basic" Ledger.Basic);
          Alcotest.test_case "advanced backend" `Quick
            (recovery_backend "advanced" (Ledger.Advanced { slack = 1e-6 }));
          Alcotest.test_case "rdp backend" `Quick
            (recovery_backend "rdp" (Ledger.Rdp { delta = 1e-6 }));
          Alcotest.test_case "raw datasets refused" `Quick raw_register_refused;
          Alcotest.test_case "crash between charge and answer" `Quick
            crash_after_charge;
          Alcotest.test_case "noise re-keyed across recovery" `Quick
            noise_fresh_after_recovery;
          Alcotest.test_case "withheld outcome recovered" `Quick
            withheld_outcome_recovered;
          Alcotest.test_case "metrics snapshot recovered" `Quick
            metrics_snapshot_recovered;
          Alcotest.test_case "refused appends do not replay" `Quick
            refused_append_not_replayed;
        ] );
      ( "group sync",
        [
          Alcotest.test_case "cache frame rides the next sync" `Quick
            cache_insert_rides_next_sync;
          Alcotest.test_case "failed batch sync withholds all" `Quick
            failed_batch_sync_withholds_all;
          Alcotest.test_case "one sync per batch, shared state waits" `Quick
            group_commit_batches;
          Alcotest.test_case "handles and names stay unique" `Quick
            group_commit_unique_names;
        ] );
      ( "faults",
        [
          Alcotest.test_case "all-transient absorbed" `Quick
            transient_faults_absorbed;
          Alcotest.test_case "with_retries" `Quick with_retries_unit;
          Alcotest.test_case "backoff jitter" `Quick backoff_jitter;
          Alcotest.test_case "spec parsing" `Quick fault_spec_parsing;
        ] );
      ( "degradation",
        [ Alcotest.test_case "low-water mark" `Quick degraded_mode ] );
      ( "lease gate",
        [
          Alcotest.test_case "refusals stop before the spend" `Quick
            lease_refusals;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "error taxonomy" `Quick protocol_taxonomy;
          Alcotest.test_case "bounded line reader" `Quick serve_bounded_input;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_replay_spent ] );
    ]
