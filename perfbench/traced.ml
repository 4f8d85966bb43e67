(* The traced run: per-layer times for one workload.

   It replays, in-process, the request lines the live run sent, in the
   order it sent them, through three executors side by side:

   - [exec]: the real [Protocol.exec] on engines configured like the
     server (same seed, journal in a scratch directory, same datasets,
     streams and model; at N=2 one engine and journal per shard, with
     [register] lines sent to both as the pool coordinator does, but no
     lease gate), timed per request with no spans. It gives
     [protocol.exec_*_us] and the exec side of the reconcile line.
   - [mirror], spans on: each request re-enacted through the public
     functions of the layers [Protocol.exec] passes through — parse,
     cache lookup, plan, ledger, journal, noise, stream counter,
     predict, and at N=2 the lease grant and grant WAL of the request's
     shard — on state of the benchmark's own (cache, ledger, journal,
     counters, lease table). A root span covers the request; a child
     span covers each call into a layer. Spans are kept in memory and
     written to [.perfbench_run/trace-WORKLOAD.tsv] at the end.
   - [mirror], spans off: the same code on state of its own, timing
     only the root, for the tracing overhead.

   The mirror copies the engine's request path (cache key, frame order,
   lease demand), so it is checked against [exec] on every request it
   re-enacts: the same cache outcome as exec's [cache=] reply, and the
   same number of journal appends as exec's [journal_appends] counter
   grew by. A mismatch fails the run.

   Nothing here is instrumented inside the library: every span is
   opened and closed in this file, around a call. *)

open Dp_engine
module P = Dp_mechanism.Privacy

let now_ns = Live.now_ns

(* ---- spans ---- *)

type span = {
  req : int;  (** request id shared by every span of the request *)
  parent : int;  (** index of the parent span, -1 for a root *)
  name : string;
  t0 : int;
  mutable t1 : int;
  mutable child_ns : int;  (** time covered by direct children *)
}

type tracer = {
  mutable on : bool;
  mutable spans : span array;
  mutable n : int;
  mutable cur : int;  (** the open root, or -1 *)
}

let tracer on = { on; spans = [||]; n = 0; cur = -1 }

let push tr sp =
  if tr.n = Array.length tr.spans then
    tr.spans <- Array.append tr.spans (Array.make (max 1024 tr.n) sp);
  tr.spans.(tr.n) <- sp;
  tr.n <- tr.n + 1;
  tr.n - 1

(* A child span around one call into a layer. *)
let layer tr name f =
  if not tr.on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    let p = tr.spans.(tr.cur) in
    ignore
      (push tr { req = p.req; parent = tr.cur; name; t0; t1; child_ns = 0 });
    p.child_ns <- p.child_ns + (t1 - t0);
    r
  end

(* The root span of request [req]; with spans off only its time is kept. *)
let root tr ~req f =
  let t0 = now_ns () in
  let i =
    push tr { req; parent = -1; name = "request"; t0; t1 = t0; child_ns = 0 }
  in
  tr.cur <- i;
  let r = f () in
  tr.spans.(i).t1 <- now_ns ();
  tr.cur <- -1;
  r

let write_spans path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\treq\tparent\tname\tstart_ns\tend_ns\n";
      for i = 0 to tr.n - 1 do
        let s = tr.spans.(i) in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i s.req s.parent s.name
          s.t0 s.t1
      done)

(* ---- the mirror ---- *)

type shard = {
  ledger : Ledger.t;
  cache : Cache.t;
  streams : (string, Dp_stream.Counter.t) Hashtbl.t;
  mutable n_streams : int;
  mutable used : float;  (** face ε approved, for the lease demand *)
  mutable leased : float;
}

type mirror = {
  tr : tracer;
  eng : Engine.t;  (** holds the datasets and the trained model *)
  journal : Journal.t;
  rng : Dp_rng.Prng.t;
  stream_rng : Dp_rng.Prng.t;
  shards : shard array;
  lease : (Dp_pool.Lease.t * Dp_pool.Grant_wal.t) option;  (** N=2 only *)
  mutable appends : int;  (** journal appends of the current request *)
}

(* the lease sizing a pool worker gets from [dpkit serve --workers] *)
let pool_config = Dp_pool.Pool.default_config ~workers:2 ~port:0 ~journal:""

let new_mirror ~on ~workers ~seed dir tag =
  let eng = Engine.create ~seed ~faults:Faults.none () in
  let journal =
    match Journal.open_ (Filename.concat dir ("mirror-journal" ^ tag)) with
    | Ok (j, _, _) -> j
    | Error msg -> Live.fail "mirror journal: %s" msg
  in
  let lease =
    if workers < 2 then None
    else
      match Dp_pool.Grant_wal.open_ (Filename.concat dir ("mirror-grants" ^ tag)) with
      | Ok (wal, _, _) -> Some (Dp_pool.Lease.create ~total:Gen.budget ~shards:workers, wal)
      | Error msg -> Live.fail "mirror grant wal: %s" msg
  in
  Option.iter
    (fun (l, _) ->
      for k = 0 to workers - 1 do
        Dp_pool.Lease.new_incarnation l ~shard:k ~token:1
      done)
    lease;
  {
    tr = tracer on;
    eng;
    journal;
    rng = Dp_rng.Prng.create seed;
    stream_rng = Dp_rng.Prng.create (seed + 1);
    shards =
      Array.init workers (fun _ ->
          {
            ledger =
              Ledger.create ~total:(P.pure Gen.budget) ~backend:Ledger.Basic ();
            cache = Cache.create ();
            streams = Hashtbl.create 4;
            n_streams = 0;
            used = 0.;
            leased = 0.;
          });
    lease;
    appends = 0;
  }

let journal_append m record =
  m.appends <- m.appends + 1;
  match layer m.tr "journal.append" (fun () -> Journal.append m.journal record) with
  | Ok () -> ()
  | Error (`Transient msg | `Fatal msg) -> Live.fail "mirror journal: %s" msg

(* At N=2 a charge first draws on the shard's lease, asking the lease
   table for more when it runs short, exactly as a pool worker does. *)
let lease_demand m k eps =
  match m.lease with
  | None -> ()
  | Some (l, wal) ->
      let sh = m.shards.(k) in
      if sh.leased -. sh.used +. 1e-9 < eps then begin
        let need = sh.used +. eps in
        match
          layer m.tr "pool.lease_grant" (fun () ->
              Dp_pool.Lease.grant l ~shard:k ~token:1 ~need
                ~quantum:pool_config.Dp_pool.Pool.quantum
                ~now:(Unix.gettimeofday ()) ~ttl:pool_config.Dp_pool.Pool.ttl)
        with
        | Dp_pool.Lease.Granted { leased; deadline } -> (
            sh.leased <- leased;
            match
              layer m.tr "pool.grant_wal_append" (fun () ->
                  Dp_pool.Grant_wal.append wal
                    (Dp_pool.Grant_wal.Grant
                       { shard = k; token = 1; dataset = Gen.dataset; leased; deadline }))
            with
            | Ok () -> ()
            | Error msg -> Live.fail "mirror grant wal: %s" msg)
        | _ -> Live.fail "mirror lease refused"
      end;
      sh.used <- sh.used +. eps

let opts_of toks = Protocol.parse_opts ~known:[ "eps"; "w"; "analyst" ] toks

let query m k ds_name expr opts =
  let sh = m.shards.(k) in
  let ds =
    match Engine.find m.eng ds_name with
    | Some ds -> ds
    | None -> Live.fail "mirror: unknown dataset %s" ds_name
  in
  let q =
    match layer m.tr "query.parse" (fun () -> Query.parse expr) with
    | Ok q -> q
    | Error msg -> Live.fail "mirror: %s" msg
  in
  let eps =
    match opts_of opts with
    | Ok kv -> (
        match List.assoc_opt "eps" kv with
        | Some (Some e) -> float_of_string e
        | _ -> ds.Registry.policy.Registry.default_epsilon)
    | Error msg -> Live.fail "mirror: %s" msg
  in
  (* the engine's cache key: dataset, requested ε, normal form *)
  let key = Printf.sprintf "%s|eps=%.12g|%s" ds_name eps (Query.normalize q) in
  match layer m.tr "cache.lookup" (fun () -> Cache.lookup sh.cache key) with
  | Some _ -> true
  | None ->
      let plan =
        match layer m.tr "planner.plan" (fun () -> Planner.plan ds ~epsilon:eps q) with
        | Ok p -> p
        | Error msg -> Live.fail "mirror: %s" msg
      in
      let sp = plan.Planner.spec in
      let face = sp.Planner.charge.Ledger.budget in
      lease_demand m k face.P.epsilon;
      let before = Ledger.spent sh.ledger in
      (match layer m.tr "ledger.spend" (fun () -> Ledger.spend sh.ledger sp.Planner.charge) with
      | Ok () -> ()
      | Error _ -> Live.fail "mirror: budget exceeded");
      let after = Ledger.spent sh.ledger in
      let norm = Query.normalize q in
      let mech = Planner.mechanism_name sp.Planner.mechanism in
      journal_append m
        (Journal.Charge
           {
             Journal.dataset = ds_name;
             analyst = None;
             query = norm;
             mechanism = mech;
             face;
             marginal =
               { P.epsilon = after.P.epsilon -. before.P.epsilon; delta = 0. };
             rho = Ledger.rho_of_charge sp.Planner.charge;
           });
      let run_layer =
        match q with
        | Query.Quantile _ -> "planner.quantile_run"
        | _ -> "mechanism.noise"
      in
      let answer = layer m.tr run_layer (fun () -> plan.Planner.run m.rng) in
      let entry = { Cache.answer; mechanism = sp.Planner.mechanism; requested = face } in
      layer m.tr "cache.store" (fun () -> Cache.store sh.cache key entry);
      journal_append m
        (Journal.Cache_insert
           {
             Journal.dataset = ds_name;
             key;
             answer;
             mechanism = sp.Planner.mechanism;
             requested = face;
           });
      false

let find_stream m k handle =
  match Hashtbl.find_opt m.shards.(k).streams handle with
  | Some c -> c
  | None -> Live.fail "mirror: unknown stream %s" handle

(* As [Engine.stream_open]: charge the whole-lifetime face, then a
   [Charge] and a [Stream_open] frame. Set-up only, so untimed. *)
let stream_new m k ds_name opts =
  let sh = m.shards.(k) in
  let p =
    match Protocol.parse_opts ~known:Dp_stream.Stream.keys opts with
    | Error msg -> Live.fail "mirror: %s" msg
    | Ok kv -> (
        match Dp_stream.Stream.params_of_opts ~default_epsilon:0.01 kv with
        | Error msg -> Live.fail "mirror: %s" msg
        | Ok p -> p)
  in
  let spec =
    match Dp_stream.Stream.spec p with
    | Ok spec -> spec
    | Error msg -> Live.fail "mirror: %s" msg
  in
  let face = spec.Dp_stream.Stream.face in
  let charge = { Ledger.budget = face; rdp = None } in
  lease_demand m k face.P.epsilon;
  let before = Ledger.spent sh.ledger in
  (match Ledger.spend sh.ledger charge with
  | Ok () -> ()
  | Error _ -> Live.fail "mirror: budget exceeded");
  let after = Ledger.spent sh.ledger in
  journal_append m
    (Journal.Charge
       {
         Journal.dataset = ds_name;
         analyst = None;
         query = Dp_stream.Stream.normalize p;
         mechanism = Dp_stream.Stream.mechanism_name;
         face;
         marginal = { P.epsilon = after.P.epsilon -. before.P.epsilon; delta = 0. };
         rho = Ledger.rho_of_charge charge;
       });
  sh.n_streams <- sh.n_streams + 1;
  let handle = Printf.sprintf "%s/s%d" ds_name sh.n_streams in
  let open Dp_stream.Stream in
  journal_append m
    (Journal.Stream_open
       {
         Journal.dataset = ds_name;
         handle;
         epsilon = p.epsilon;
         horizon = p.horizon;
         window = p.window;
       });
  Hashtbl.replace sh.streams handle
    (Dp_stream.Counter.create ~epsilon:p.epsilon ~horizon:p.horizon)

let append m k handle bit =
  let c = find_stream m k handle in
  let scale = Dp_stream.Counter.noise_scale c in
  let nodes =
    layer m.tr "stream.prepare" (fun () ->
        Dp_stream.Counter.prepare c ~bit ~noise:(fun () ->
            Dp_rng.Sampler.laplace ~mean:0. ~scale m.stream_rng))
  in
  journal_append m
    (Journal.Stream_append { Journal.dataset = Gen.dataset; handle; bit; nodes });
  layer m.tr "stream.commit" (fun () -> Dp_stream.Counter.commit c ~bit nodes)

(* Lines the mirror hands to the real engine instead of re-enacting. *)
let delegated line =
  match Reply.words line with "register" :: _ | "train" :: _ -> true | _ -> false

(* Re-enact one request line on connection [conn]'s shard. Returns the
   cache outcome of a query: [Some true] on a hit. *)
let step m ~conn line =
  let k = conn mod Array.length m.shards in
  m.appends <- 0;
  match Reply.words line with
  | "register" :: _ | "train" :: _ ->
      ignore (Protocol.exec m.eng line);
      None
  | "query" :: ds :: expr :: opts -> Some (query m k ds expr opts)
  | "stream" :: "new" :: ds :: opts ->
      stream_new m k ds opts;
      None
  | [ "append"; handle; bit ] ->
      append m k handle (int_of_string bit);
      None
  | [ "stream"; "read"; handle ] ->
      let c = find_stream m k handle in
      ignore (layer m.tr "stream.read" (fun () -> Dp_stream.Counter.read c));
      None
  | "stream" :: "window" :: handle :: opts ->
      let c = find_stream m k handle in
      let w =
        match opts_of opts with
        | Ok kv -> (
            match List.assoc_opt "w" kv with
            | Some (Some w) -> int_of_string w
            | _ -> 64)
        | Error msg -> Live.fail "mirror: %s" msg
      in
      ignore (layer m.tr "stream.read" (fun () -> Dp_stream.Counter.window c ~w));
      None
  | [ "predict"; handle; point ] ->
      let x =
        String.split_on_char ',' point |> List.map float_of_string |> Array.of_list
      in
      ignore (layer m.tr "train.predict" (fun () -> Engine.predict m.eng handle x));
      None
  | _ -> Live.fail "mirror: unexpected line %S" line

(* ---- the replay ---- *)

type result = {
  free_us : float array;  (** [Protocol.exec] per free request *)
  release_us : float array;  (** [Protocol.exec] per charged request *)
  tr : tracer;  (** the mirror with spans on *)
  on_s : float;  (** its root time over the timed lines *)
  off_s : float;  (** the spans-off mirror's root time *)
  fit_ms : float;
      (** the default-λ objective-perturbation train on the spans-on
          mirror's engine, when the workload trains a model; else 0 *)
  checked : int;  (** requests whose mirror was checked against exec *)
}

let root_total tr =
  let t = ref 0 in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    if s.parent < 0 then t := !t + (s.t1 - s.t0)
  done;
  Live.secs !t

let exec_appends eng =
  Dp_obs.Metrics.count
    (Dp_obs.Metrics.global (Engine.metrics eng))
    Dp_obs.Name.Journal_appends

(* Fail unless the mirror did what [exec] did on this line. *)
let check_mirror line ~hit ~appends reply ~exec_appends =
  (match (Reply.parse reply, hit) with
  | Ok (Reply.Query { hit = h; _ }), Some h' when h = h' -> ()
  | Ok (Reply.Query { hit = h; _ }), _ ->
      Live.fail "mirror and exec disagree on %S: exec cache=%s, mirror %s" line
        (if h then "hit" else "miss")
        (match hit with Some true -> "hit" | Some false -> "miss" | None -> "no query")
  | _, Some _ -> Live.fail "mirror ran a query for %S, exec did not" line
  | _, None -> ());
  if appends <> exec_appends then
    Live.fail "mirror and exec disagree on %S: exec appended %d journal frames, mirror %d"
      line exec_appends appends

(* Time the default-λ objective-perturbation train on [eng], which has
   no journal, so its noise, and with it the time, is fixed by the
   seed. *)
let objpert_fit eng =
  let t0 = now_ns () in
  let reply = Protocol.exec eng (Gen.objpert_train ~lambda:0.1) in
  let dt = now_ns () - t0 in
  match Reply.parse reply with
  | Ok (Reply.Trained _) -> float dt /. 1e6
  | _ -> Live.fail "objpert train: %s" (String.concat "|" reply)

(* Every line before [timed_from] is replayed untimed, for state. Then
   each timed line runs through the three replays in turn, rotating
   which goes first, so that all three see the same machine; this stops
   once [Protocol.exec] has taken [budget_s] or the lines run out. The
   spans-on mirror is checked against exec on every line. *)
let replay ~seed ~workers ~budget_s dir (log : (int * string) array) ~timed_from =
  Gc.compact ();
  let engines =
    Array.init workers (fun k ->
        let eng = Engine.create ~seed ~faults:Faults.none () in
        (match
           Engine.open_journal eng (Filename.concat dir (Printf.sprintf "exec-journal%d" k))
         with
        | Ok _ -> ()
        | Error msg -> Live.fail "replay journal: %s" msg);
        eng)
  in
  let on = new_mirror ~on:false ~workers ~seed dir "-on" in
  let off = new_mirror ~on:false ~workers ~seed dir "-off" in
  let free = Live.Fvec.create () and release = Live.Fvec.create () in
  let checked = ref 0 in
  (* exec one line on the connection's shard, [register] on every
     shard; returns the time, the reply and the shard's journal appends *)
  let exec ~conn line =
    let eng = engines.(conn mod workers) in
    if delegated line then
      Array.iter (fun e -> if e != eng then ignore (Protocol.exec e line)) engines;
    let a0 = exec_appends eng in
    let t0 = now_ns () in
    let reply = Protocol.exec eng line in
    let dt = now_ns () - t0 in
    match Reply.parse reply with
    | Ok r when Reply.is_ok r -> (dt, reply, r, exec_appends eng - a0)
    | Ok _ | Error _ ->
        Live.fail "in-process replay: %S -> %s" line (String.concat "|" reply)
  in
  let check line (reply, exec_appends) (hit, appends) =
    if not (delegated line) then begin
      check_mirror line ~hit ~appends reply ~exec_appends;
      incr checked
    end
  in
  for i = 0 to timed_from - 1 do
    let conn, line = log.(i) in
    let _, reply, _, a = exec ~conn line in
    let hit = step on ~conn line in
    check line (reply, a) (hit, on.appends);
    ignore (step off ~conn line)
  done;
  on.tr.on <- true;
  let budget = int_of_float (budget_s *. 1e9) in
  let spent = ref 0 in
  let i = ref timed_from in
  while !i < Array.length log && !spent < budget do
    let conn, line = log.(!i) in
    let req = !i in
    let by_exec = ref None and by_mirror = ref None in
    let runs =
      [| (fun () ->
           let dt, reply, r, a = exec ~conn line in
           spent := !spent + dt;
           Live.Fvec.push (if Reply.is_release r then release else free) (float dt /. 1e3);
           by_exec := Some (reply, a));
         (fun () ->
           let hit = root on.tr ~req (fun () -> step on ~conn line) in
           by_mirror := Some (hit, on.appends));
         (fun () -> root off.tr ~req (fun () -> ignore (step off ~conn line))) |]
    in
    for k = 0 to 2 do
      runs.((req + k) mod 3) ()
    done;
    (match (!by_exec, !by_mirror) with
    | Some e, Some m -> check line e m
    | _ -> assert false);
    incr i
  done;
  let fit_ms =
    if Array.exists (fun (_, l) -> String.starts_with ~prefix:"train " l) log then
      objpert_fit on.eng
    else 0.
  in
  Array.iter Engine.close engines;
  List.iter
    (fun m ->
      Journal.close m.journal;
      Option.iter (fun (_, wal) -> Dp_pool.Grant_wal.close wal) m.lease)
    [ on; off ];
  {
    free_us = Live.Fvec.to_array free;
    release_us = Live.Fvec.to_array release;
    tr = on.tr;
    on_s = root_total on.tr;
    off_s = root_total off.tr;
    fit_ms;
    checked = !checked;
  }
