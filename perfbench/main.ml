(* perfbench: the end-to-end benchmark of [dpkit serve].

   perfbench --workload hot|scan|commit|pool|all --seed N --seconds S
             --trace 0|1
   perfbench --compare PARENT CHANGE

   Run from the repository root after building bin/dpkit.exe (run.sh
   does both).

   The last line of a run's output is one JSON object: [correct],
   [attempted], [failed] and [metrics] (the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1). See README.md. *)

let usage =
  "usage: perfbench --workload hot|scan|commit|pool|all --seed N --seconds S \
   --trace 0|1\n\
  \       perfbench --compare PARENT CHANGE"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let ms s = s *. 1e3
let us s = s *. 1e6

(* a latency percentile over all of the run's samples, with the
   sample count and the samples beyond it *)
let pct a p =
  let n = Array.length a in
  if n = 0 then Live.fail "no samples for a percentile";
  let rank = int_of_float (Float.ceil (p *. float n)) in
  (Stats.percentile a p, Printf.sprintf "n=%d, %d beyond" n (n - rank))

type row = { name : string; value : float; note : string }

let print_rows title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun r ->
      let unit_ =
        match Catalog.find r.name with Some m -> m.Catalog.unit_ | None -> ""
      in
      Printf.printf "  %-28s %14.6g %-7s %s\n" r.name r.value unit_ r.note)
    rows

let end_to_end (r : Live.result) =
  let p50, n50 = pct r.lat 0.50 in
  let p99, n99 = pct r.lat 0.99 in
  let rp99, nr = pct r.release 0.99 in
  let fp99, nf = pct r.free 0.99 in
  [
    { name = "throughput_rps"; value = float r.ok /. r.wall_s;
      note = Printf.sprintf "%d ok in %.3f s" r.ok r.wall_s };
    { name = "latency_p50_ms"; value = ms p50; note = n50 };
    { name = "latency_p99_ms"; value = ms p99; note = n99 };
    { name = "release_p99_ms"; value = ms rp99; note = nr };
    { name = "free_p99_ms"; value = ms fp99; note = nf };
    { name = "setup_s"; value = Live.median_of r.setup_s;
      note =
        Printf.sprintf "median of %d set-ups: %s" (List.length r.setup_s)
          (String.concat " " (List.map (Printf.sprintf "%.3f") r.setup_s)) };
    { name = "recovery_s"; value = r.recovery_s; note = "median of 3 restarts" };
    { name = "server_rss_mb"; value = r.rss_mib; note = "VmHWM, all server processes" };
    { name = "journal_bytes_per_req";
      value = float r.journal_bytes /. float r.requests;
      note = Printf.sprintf "%d B over %d requests" r.journal_bytes r.requests };
    { name = "failed_share"; value = float r.failed /. float r.requests;
      note = Printf.sprintf "%d of %d" r.failed r.requests };
  ]

(* ---- the traced run ---- *)

type layer_stat = { calls : int; self_ns : int }

let layer_stats (tr : Traced.tracer) =
  let h = Hashtbl.create 16 in
  for i = 0 to tr.Traced.n - 1 do
    let s = tr.Traced.spans.(i) in
    if s.Traced.parent >= 0 then begin
      let st =
        Option.value ~default:{ calls = 0; self_ns = 0 }
          (Hashtbl.find_opt h s.Traced.name)
      in
      Hashtbl.replace h s.Traced.name
        {
          calls = st.calls + 1;
          self_ns = st.self_ns + (s.Traced.t1 - s.Traced.t0 - s.Traced.child_ns);
        }
    end
  done;
  h

(* One traced run: the in-process replay of the lines the live run
   sent, capped at a third of the run's length of [Protocol.exec]. *)
let traced ~seed ~seconds (r : Live.result) =
  let dir = Live.fresh_dir () in
  let t =
    Traced.replay ~seed ~workers:(Gen.shape r.w).Gen.workers
      ~budget_s:(seconds /. 3.) dir r.log ~timed_from:r.timed_from
  in
  Live.remove_dir dir;
  Traced.write_spans
    (Filename.concat Live.scratch_root ("trace-" ^ Gen.name r.w ^ ".tsv"))
    t.Traced.tr;
  t

let per_layer ~seed ~seconds (r : Live.result) =
  let exec = traced ~seed ~seconds r in
  let tr = exec.Traced.tr and on_s = exec.Traced.on_s and off_s = exec.Traced.off_s in
  let st = layer_stats tr in
  let get name = Option.value ~default:{ calls = 0; self_ns = 0 } (Hashtbl.find_opt st name) in
  let mean_us name =
    let s = get name in
    if s.calls = 0 then 0. else float s.self_ns /. float s.calls /. 1e3
  in
  (* requests traced, and the unattributed share of each *)
  let roots = ref 0 and unattributed = ref 0. in
  for i = 0 to tr.Traced.n - 1 do
    let s = tr.Traced.spans.(i) in
    if s.Traced.parent < 0 then begin
      let d = s.Traced.t1 - s.Traced.t0 in
      incr roots;
      if d > 0 then
        unattributed := !unattributed +. (float (d - s.Traced.child_ns) /. float d)
    end
  done;
  let nreq = float (max 1 !roots) in
  let per_req name = float (get name).self_ns /. nreq /. 1e3 in
  let layers =
    [ "query.parse"; "cache.lookup"; "cache.store"; "planner.plan";
      "planner.quantile_run"; "mechanism.noise"; "ledger.spend";
      "journal.append"; "stream.prepare"; "stream.commit"; "stream.read";
      "train.predict"; "pool.lease_grant"; "pool.grant_wal_append" ]
  in
  let layer_sum = List.fold_left (fun acc l -> acc +. per_req l) 0. layers in
  let exec_all = Array.append exec.Traced.free_us exec.Traced.release_us in
  let exec_mean = Stats.mean exec_all in
  let exec_free = Stats.median exec.Traced.free_us in
  let exec_release = Stats.median exec.Traced.release_us in
  let e2e_free_p50 = us (Stats.median r.free) in
  let e2e_p50 = us (Stats.median r.lat) in
  let requests = float r.requests in
  let d = r.delta in
  let hits = d "cache_hits" and misses = d "cache_misses" in
  let draws =
    List.fold_left (fun acc n -> acc + d n)
      0
      [ "draws_laplace"; "draws_geometric"; "draws_gaussian";
        "draws_discrete_gaussian"; "draws_exponential";
        "draws_randomized_response" ]
  in
  let life = float r.life_requests in
  let nz x = if Float.is_nan x then 0. else x in
  let metrics =
    [
      ("net.frontend_us", e2e_free_p50 -. nz exec_free,
       "live free p50 minus in-process exec p50");
      ("net.pipeline_pair_ms", ms r.pipeline_s,
       "two status lines back to back, until both replies");
      ("net.shed_per_1k", 1000. *. float (d "net_requests_shed") /. requests, "");
      ("protocol.exec_free_us", nz exec_free,
       Printf.sprintf "p50, n=%d" (Array.length exec.Traced.free_us));
      ("protocol.exec_release_us", nz exec_release,
       Printf.sprintf "p50, n=%d" (Array.length exec.Traced.release_us));
      ("query.parse_us", mean_us "query.parse", "");
      ("cache.lookup_us", mean_us "cache.lookup", "");
      ("cache.hit_ratio",
       (if hits + misses = 0 then 0. else float hits /. float (hits + misses)),
       Printf.sprintf "%d hits, %d misses" hits misses);
      ("planner.plan_us", mean_us "planner.plan", "");
      ("planner.quantile_run_us", mean_us "planner.quantile_run", "");
      ("ledger.spend_us", mean_us "ledger.spend", "");
      ("journal.append_us", mean_us "journal.append", "");
      ("journal.fsyncs_per_req", float (d "journal_fsyncs") /. requests, "");
      ("journal.appends_per_req", float (d "journal_appends") /. requests, "");
      ("mechanism.noise_us", mean_us "mechanism.noise", "");
      ("mechanism.draws_per_release",
       (let rel = Array.length r.release in
        if rel = 0 then 0. else float draws /. float rel),
       Printf.sprintf "%d draws" draws);
      ("stream.counter_us",
       (let p = get "stream.prepare" and c = get "stream.commit" in
        if p.calls = 0 then 0.
        else float (p.self_ns + c.self_ns) /. float p.calls /. 1e3),
       "prepare + commit");
      ("stream.read_us", mean_us "stream.read", "");
      ("train.predict_us", mean_us "train.predict", "");
      ("train.objpert_fit_ms", exec.Traced.fit_ms,
       "one default-lambda train, no journal: its time is fixed by the seed");
      ("pool.lease_grant_us", mean_us "pool.lease_grant", "");
      ("pool.grant_wal_append_us", mean_us "pool.grant_wal_append", "");
      ("pool.leases_per_1k",
       1000. *. float (Live.counter r.whole "pool_leases_granted") /. life,
       "whole server life");
      ("pool.leases_denied", float (Live.counter r.whole "pool_leases_denied"),
       "whole server life");
      ("server.cpu_us_per_req", us r.cpu_s /. requests, "");
      ("server.cpu_share", r.cpu_s /. r.wall_s, "");
      ("trace.unattributed_share", !unattributed /. nreq, "");
      ("trace.overhead_ratio", on_s /. off_s,
       Printf.sprintf "%.3f s / %.3f s" on_s off_s);
    ]
  in
  print_rows
    (Printf.sprintf
       "per-layer (traced replay of %d timed requests of %d sent; mirror \
        matched exec's cache outcome and journal appends on %d requests)"
       !roots r.requests exec.Traced.checked)
    (List.map (fun (name, value, note) -> { name; value; note }) metrics);
  Printf.printf "layer self time (mirror, spans on)\n";
  Printf.printf "  %-22s %8s %12s %12s\n" "layer" "calls" "us/call" "us/request";
  List.iter
    (fun l ->
      let s = get l in
      if s.calls > 0 then
        Printf.printf "  %-22s %8d %12.3f %12.3f\n" l s.calls (mean_us l) (per_req l))
    layers;
  let largest =
    List.fold_left
      (fun (bn, bv) l ->
        let v = per_req l in
        if v > bv then (l, v) else (bn, bv))
      ("none", 0.) layers
  in
  Printf.printf "  largest layer per request: %s (%.3f us)\n" (fst largest) (snd largest);
  Printf.printf
    "reconcile: layers %.3f us/req | Protocol.exec %.3f us/req (in-process, \
     n=%d) | live p50 %.3f us\n"
    layer_sum exec_mean (Array.length exec_all) e2e_p50;
  Printf.printf
    "  unattributed: exec - layers = %.3f us/req (%.1f%% of exec: engine work \
     outside the listed layers: meter, audit log, metrics); live p50 - exec \
     p50 = %.3f us (frontend: socket, event loop, reply framing, client)\n"
    (exec_mean -. layer_sum)
    (100. *. (exec_mean -. layer_sum) /. exec_mean)
    (e2e_p50 -. nz (Stats.median exec_all));
  List.map (fun (name, value, _) -> (name, value)) metrics

(* ---- output ---- *)

let json_num v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value) ->
        let unit_ =
          match Catalog.find name with Some c -> c.Catalog.unit_ | None -> ""
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* Every metric of the run, for [--compare]: space-separated
   [key=value] tokens after the word [report]. *)
let report_line w ~seed metrics =
  String.concat " "
    ("report"
    :: Printf.sprintf "workload=%s" (Gen.name w)
    :: Printf.sprintf "seed=%d" seed
    :: List.map (fun (name, v) -> Printf.sprintf "%s=%s" name (json_num v)) metrics)

let run_one ~dpkit ~seed ~seconds ~trace w =
  let shape = Gen.shape w in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d: dpkit serve --tcp \
     --journal%s, %d connections, closed loop\n%!"
    (Gen.name w) seed seconds (Bool.to_int trace)
    (if shape.Gen.workers > 1 then Printf.sprintf " --workers %d" shape.Gen.workers else "")
    Gen.conns;
  let r = Live.run ~dpkit ~seed ~seconds ~probe:trace w in
  let e2e = end_to_end r in
  print_rows "end-to-end" e2e;
  Printf.printf "checks\n";
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  %-4s %s: %s\n" (if ok then "ok" else "FAIL") name detail)
    r.checks;
  let correct = List.for_all (fun (_, ok, _) -> ok) r.checks in
  let e2e = List.map (fun row -> (row.name, row.value)) e2e in
  let layers = if trace then per_layer ~seed ~seconds r else [] in
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then Live.fail "metric %s is not finite" name)
    (e2e @ layers);
  print_endline (report_line w ~seed (e2e @ layers));
  let metrics =
    if trace then layers
    else List.filter (fun (name, _) -> List.exists (fun m -> m.Catalog.name = name) Catalog.gated) e2e
  in
  print_endline
    (result_line ~correct ~attempted:r.requests ~failed:r.failed metrics);
  correct

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--compare"; parent; change ] -> (
      try Compare.run parent change
      with Compare.Bad_report msg | Sys_error msg -> die msg)
  | _ -> (
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            opts ((k, v) :: acc) rest
        | [] -> acc
        | x :: _ -> die ("unexpected argument " ^ x)
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> die ("missing " ^ k) in
      let int_of k = match int_of_string_opt (get k) with Some i -> i | None -> die ("bad " ^ k) in
      let workloads =
        match get "--workload" with
        | "all" -> Gen.all
        | n -> ( match Gen.of_name n with Some w -> [ w ] | None -> die ("unknown workload " ^ n))
      in
      let seed = int_of "--seed" in
      let seconds = float (int_of "--seconds") in
      let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> die "bad --trace" in
      let dpkit = "_build/default/bin/dpkit.exe" in
      if not (Sys.file_exists dpkit) then die ("no dpkit binary at " ^ dpkit);
      if seconds <= 0. then die "--seconds must be positive";
      at_exit Live.cleanup;
      (* a signal must still reap the servers and remove the directories *)
      List.iter
        (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm; Sys.sighup ];
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let ok =
        List.for_all
          (fun w ->
            match run_one ~dpkit ~seed ~seconds ~trace w with
            | ok -> ok
            | exception e ->
                let msg =
                  match e with Live.Run_failed m -> m | e -> Printexc.to_string e
                in
                Printf.printf "perfbench: %s run failed: %s\n%!" (Gen.name w) msg;
                false)
          workloads
      in
      exit (if ok then 0 else 1))
