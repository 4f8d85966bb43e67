open Dp_mechanism
module Train = Dp_train.Train
module Gates = Dp_train.Gates
module Model_store = Dp_train.Model_store
module Stream = Dp_stream.Stream
module Counter = Dp_stream.Counter
module Stream_store = Dp_stream.Stream_store

(* What the pool's ε-lease arbitration says about a prospective charge.
   The gate is consulted immediately before every ledger spend; a
   worker whose lease is expired, superseded, or too small must not
   spend even though its local ledger (which mirrors the full global
   budget) would admit the charge. *)
type lease_verdict =
  | Lease_granted
  | Lease_superseded of { token : int }
      (** this worker's fencing token is stale: a newer incarnation
          holds the shard — refuse and let the supervisor recycle us *)
  | Lease_denied of {
      requested : Dp_mechanism.Privacy.budget;
      remaining : Dp_mechanism.Privacy.budget;
    }  (** the coordinator has no unleased ε left: global exhaustion *)
  | Lease_unavailable of string
      (** the coordinator could not be reached (dropped grant, timeout):
          transient, the client may retry *)

type serving = {
  dataset : Registry.dataset;
  ledger : Ledger.t;
  cache : Cache.t;
  models : Model_store.t;
  streams : Stream_store.t;
  scope : Dp_obs.Metrics.scope;
  mutable answered : int;
  mutable rejected : int;
  mutable withheld : int;
}

(* State one request may hold while it is parked in a group commit. *)
type hold =
  | Cache_key of string
  | Stream_handle of string
  | Next_model of string  (** a dataset's next model handle *)
  | Next_stream of string  (** a dataset's next stream handle *)
  | Dataset_name of string

type t = {
  registry : Registry.t;
  servings : (string, serving) Hashtbl.t;
  log : Audit_log.t option;
  obs : Dp_obs.Metrics.t;
  trace : Dp_obs.Span.t;
  mutable rng : Dp_rng.Prng.t;
  mutable stream_rng : Dp_rng.Prng.t;
  retry_rng : Dp_rng.Prng.t;
  seed : int;
  faults : Faults.t;
  mutable journal : Journal.t option;
  mutable journal_failed : bool;
  in_flight : (hold, unit) Hashtbl.t;
      (** what requests parked in a group commit hold; see [holding] *)
  mutable lease_gate :
    (dataset:string -> face:Privacy.budget -> lease_verdict) option;
}

(* Fresh noise key for journaled serving. Recovery replays charges
   without consuming any draws, so a restarted engine that kept the
   seeded stream would hand its first fresh releases the very noise
   values already released before the crash — an analyst who can induce
   restarts could difference pre- and post-crash answers and cancel the
   noise exactly. Noise, unlike cached answers, never needs to be
   reproducible, so every journal attach re-keys the stream from OS
   entropy. *)
let entropy_seed () =
  match
    In_channel.with_open_bin "/dev/urandom" (fun ic ->
        let b = Bytes.create 8 in
        really_input ic b 0 8;
        Int64.to_int (Bytes.get_int64_le b 0))
  with
  | n -> n land max_int
  | exception (Sys_error _ | End_of_file) ->
      (* no urandom: time-and-pid is weaker but still unique per
         process, which is all noise freshness needs *)
      Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ())

let create ?(seed = 20120330) ?(audit = true) ?(obs = true) ?faults () =
  let faults = match faults with Some f -> f | None -> Faults.of_env () in
  {
    registry = Registry.create ();
    servings = Hashtbl.create 8;
    log = (if audit then Some (Audit_log.create ()) else None);
    obs = Dp_obs.Metrics.create ~enabled:obs ();
    trace = Dp_obs.Span.create ~enabled:obs ();
    rng = Dp_rng.Prng.create seed;
    (* Tree-node noise for continual streams draws from its own
       dedicated stream: append traffic must not shift the noise
       positions of one-shot queries (and vice versa), and recovery
       re-keys both independently. The xor constant ("STRM") just keys
       a distinct stream off the same seed. *)
    stream_rng = Dp_rng.Prng.create (seed lxor 0x5354524d);
    (* Backoff jitter draws from a dedicated stream, never the noise
       stream: retry timing is externally observable, so sharing the
       noise stream would leak its position (and shift noise values,
       breaking seed-determinism). Seeded from [seed] so retry schedules
       replay deterministically; the xor constant ("RETR") just keys a
       distinct stream. Journal re-keying deliberately leaves this
       stream alone — it carries no privacy. *)
    retry_rng = Dp_rng.Prng.create (seed lxor 0x52455452);
    seed;
    faults;
    journal = None;
    journal_failed = false;
    in_flight = Hashtbl.create 8;
    lease_gate = None;
  }

let set_lease_gate t gate = t.lease_gate <- gate

let metrics t = t.obs
let trace t = t.trace

let faults t = t.faults
let journal_path t = Option.map Journal.path t.journal

let close t =
  Option.iter Journal.close t.journal;
  t.journal <- None

(* Synthetic datasets are regenerated on recovery, so their generator
   must depend only on stable registration-time facts — never on how
   much of the engine's noise stream other queries have consumed. *)
let dataset_seed t name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0x3FFFFFFF)
    name;
  (t.seed * 31 + !h) land 0x3FFFFFFF

type error =
  | Unknown_dataset of string
  | Bad_query of string
  | Budget_exceeded of Ledger.rejection
  | Degraded of {
      dataset : string;
      remaining : Privacy.budget;
      low_water : float;
    }
  | Unconverged of {
      dataset : string;
      handle : string;
      worst_rhat : float;
      min_ess : float;
      charged : Privacy.budget;
    }
  | Unknown_model of string
  | Unknown_stream of string
  | Lease_lost of { dataset : string; token : int }
  | Transient of string
  | Fatal of string

let pp_error fmt = function
  | Unknown_dataset name -> Format.fprintf fmt "unknown dataset %S" name
  | Bad_query msg -> Format.fprintf fmt "bad query: %s" msg
  | Budget_exceeded r ->
      Format.fprintf fmt "budget exceeded%s: requested %a, remaining %a"
        (match r.Ledger.analyst with
        | Some a -> Printf.sprintf " for analyst %S" a
        | None -> "")
        Privacy.pp_budget r.Ledger.requested Privacy.pp_budget
        r.Ledger.remaining
  | Degraded { dataset; remaining; low_water } ->
      Format.fprintf fmt
        "dataset %S degraded: remaining %a below low-water %g (cache hits only)"
        dataset Privacy.pp_budget remaining low_water
  | Unconverged { dataset; handle; worst_rhat; min_ess; charged } ->
      Format.fprintf fmt
        "training on %S did not converge (model %s withheld): worst split-R̂ \
         %g, min ESS %g; %a remains charged"
        dataset handle worst_rhat min_ess Privacy.pp_budget charged
  | Unknown_model handle -> Format.fprintf fmt "unknown model %S" handle
  | Unknown_stream handle -> Format.fprintf fmt "unknown stream %S" handle
  | Lease_lost { dataset; token } ->
      Format.fprintf fmt
        "lease on %S lost (fencing token %d superseded or expired): this \
         worker refuses fresh charges until restarted"
        dataset token
  | Transient msg -> Format.fprintf fmt "transient failure: %s" msg
  | Fatal msg -> Format.fprintf fmt "fatal failure: %s" msg

(* Journaling. An [Error] from here means the record is not durable:
   for budget charges the caller must withhold the answer (the in-memory
   ledger stays charged, so the accounting can only over-count).
   [written] gets the frame's ordinal when the frame was written, even
   if its fsync then failed: a refusal marker names the frame by it. A
   failed write adds no frame and never parks, so the log has grown
   past [ord] exactly when this frame is at [ord]. [~sync:false] is for
   loss-safe records only (see [Journal.append]). *)
let journal_append ?sync ?(written = ignore) t record =
  match t.journal with
  | None -> Ok ()
  | Some j -> (
      let ord = Journal.frames j in
      let appended = Journal.append ?sync j record in
      if Journal.frames j > ord then written ord;
      match appended with
      | Ok () -> Ok ()
      | Error (`Transient msg) -> Error (Transient msg)
      | Error (`Fatal msg) ->
          t.journal_failed <- true;
          Error (Fatal msg))

(* A best-effort, loss-safe marker naming frames whose effect the live
   engine refused (see [Journal.Withheld]); with nothing to name there
   is nothing to write. *)
let refuse_frames t ~dataset reason frames =
  if frames <> [] then
    ignore
      (journal_append ~sync:false t
         (Journal.Withheld { dataset; reason; frames }))

(* A durable append whose failure names the frame, if it was written,
   in a marker: recovery then skips it, as the live engine did. *)
let journal_append_or_refuse t ~dataset record =
  let written = ref [] in
  match journal_append t ~written:(fun o -> written := [ o ]) record with
  | Ok () -> Ok ()
  | Error _ as e ->
      refuse_frames t ~dataset "journal" !written;
      e

(* Group commit ([Wal.group]) parks a request inside a durable append.
   Another request that needs what the parked one holds — the same
   cache key, the same stream, the next handle of a dataset, the same
   dataset name — waits for the batch, so every request sees the state
   a sequential run would have shown it. Outside a group nothing is
   ever held when a request starts, so nothing waits. *)
let await_free t key =
  while Hashtbl.mem t.in_flight key do
    Wal.await ()
  done

let hold t key f =
  Hashtbl.replace t.in_flight key ();
  Fun.protect ~finally:(fun () -> Hashtbl.remove t.in_flight key) f

let holding t key f =
  await_free t key;
  hold t key f

let register_serving t (ds : Registry.dataset) =
  match Registry.register t.registry ds with
  | Error _ as e -> e
  | Ok () ->
      let ledger =
        Ledger.create ~total:ds.policy.total ~backend:ds.policy.backend
          ?analyst_epsilon:ds.policy.analyst_epsilon ()
      in
      Hashtbl.replace t.servings ds.name
        {
          dataset = ds;
          ledger;
          cache = Cache.create ();
          models = Model_store.create ();
          streams = Stream_store.create ();
          scope = Dp_obs.Metrics.dataset t.obs ds.name;
          answered = 0;
          rejected = 0;
          withheld = 0;
        };
      Ok ()

let register t (ds : Registry.dataset) =
  if t.journal <> None then
    Error
      (Printf.sprintf
         "dataset %S: raw datasets cannot be made durable (the journal \
          records a regeneration seed, not column data); use \
          register_synthetic"
         ds.name)
  else register_serving t ds

let register_synthetic t ~name ~rows ~policy =
  holding t (Dataset_name name) @@ fun () ->
  match Registry.find t.registry name with
  | Some _ -> Error (Printf.sprintf "dataset %S already registered" name)
  | None -> (
      (* a [BASE~flipN] neighbour must share BASE's generator stream —
         seeding from the full name would give unrelated data, not a
         pair differing in one record *)
      let seed =
        dataset_seed t
          (match Registry.neighbor_flip name with
          | Some (base, _) -> base
          | None -> name)
      in
      match
        Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed)
      with
      | exception Invalid_argument msg -> Error msg
      | ds -> (
          (* never servable without being durable: the frame goes first,
             and the held name keeps a second registration out *)
          match
            journal_append_or_refuse t ~dataset:name
              (Journal.Register { name; rows; seed; policy })
          with
          | Error e -> Error (Format.asprintf "%a" pp_error e)
          | Ok () -> Result.map (fun () -> ds) (register_serving t ds)))

let datasets t = Registry.names t.registry
let find t name = Registry.find t.registry name

type response = {
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;
  charged : Privacy.budget;
  cache_hit : bool;
  seq : int;
}

let zero = { Privacy.epsilon = 0.; delta = 0. }

let log_decision t ?analyst ?mechanism ~dataset ~query ~requested ~charged
    ~verdict () =
  match t.log with
  | None -> -1
  | Some log ->
      (Audit_log.append log ?analyst ?mechanism ~dataset ~query ~requested
         ~charged ~verdict ())
        .Audit_log.seq

let degraded_for t (sv : serving) =
  t.journal_failed
  ||
  let lw = sv.dataset.Registry.policy.low_water in
  lw > 0. && (Ledger.remaining sv.ledger).Privacy.epsilon < lw

(* ------------------------------------------------------------------ *)
(* Fresh releases: one charge-before-release pipeline.

   A query, a training run and a stream open are each a fresh release.
   Before any planning, [refuse_fresh] turns it away while the journal
   is down or the dataset is below its low-water mark. Then
   [charge_fresh] pays for it, and the caller releases only in that
   call's [Ok] arm. [charge_fresh] is the single owner of the
   pay-then-release order; flow's F2 checks every release site against
   it. *)

(* The pool's ε-lease gate, consulted immediately before every ledger
   spend (one-shot queries, training, stream opens — appends are
   pre-paid). [None] is the single-process fast path: no gate, no
   behavior change. A pool worker's local ledger mirrors the full
   global budget (so composed accounting replays identically on
   merge), which means budget safety across workers rests entirely on
   this gate: the coordinator never leases, in aggregate, more than
   the global ε. *)
let lease_check t ~dataset (face : Privacy.budget) =
  match t.lease_gate with
  | None -> Ok ()
  | Some gate -> (
      match gate ~dataset ~face with
      | Lease_granted -> Ok ()
      | Lease_superseded { token } -> Error (Lease_lost { dataset; token })
      | Lease_denied { requested; remaining } ->
          Error
            (Budget_exceeded { Ledger.requested; remaining; analyst = None })
      | Lease_unavailable msg -> Error (Transient msg))

let lease_reject_reason = function
  | Lease_lost _ -> "lease-lost"
  | Budget_exceeded _ -> "budget-exceeded"
  | _ -> "lease-unavailable"

(* One fresh release as its audit records and its [Charge] frame name
   it. *)
type fresh = {
  analyst : string option;
  name : string;  (** the dataset *)
  query : string;  (** normalized request text *)
  mech : string;
  charge : Ledger.charge;
  mutable frames : int list;
      (** ordinals of the frames it wrote: what a withheld marker names *)
}

let fresh_of ?analyst ~dataset (p : _ Planner.priced) =
  {
    analyst;
    name = dataset;
    query = p.Planner.text;
    mech = p.Planner.mechanism_name;
    charge = p.Planner.charge;
    frames = [];
  }

let note (f : fresh) o = f.frames <- o :: f.frames

let log_fresh t (f : fresh) ~charged verdict =
  log_decision t ?analyst:f.analyst ~mechanism:f.mech ~dataset:f.name
    ~query:f.query ~requested:f.charge.Ledger.budget ~charged ~verdict ()

(* A request turned away before planning or charging: counted as
   rejected, logged with no face. *)
let reject_early t (sv : serving) ?analyst ~dataset ~query reason =
  sv.rejected <- sv.rejected + 1;
  ignore
    (log_decision t ?analyst ~dataset ~query ~requested:zero ~charged:zero
       ~verdict:(Audit_log.Rejected reason) ())

let reject_bad t sv ?analyst ~dataset ~query msg =
  reject_early t sv ?analyst ~dataset ~query msg;
  Error (Bad_query msg)

let journal_down =
  Fatal "journal unavailable: refusing fresh releases, serving cache hits only"

let refuse_fresh t (sv : serving) ~analyst ~dataset ~query =
  if t.journal_failed then Some journal_down
  else if degraded_for t sv then begin
    reject_early t sv ?analyst ~dataset ~query "degraded";
    Some
      (Degraded
         {
           dataset;
           remaining = Ledger.remaining sv.ledger;
           low_water = sv.dataset.Registry.policy.low_water;
         })
  end
  else None

(* A charged request whose answer may not leave the engine. The ledger
   stays charged, and the audit log and a best-effort [Withheld] marker
   naming the release's frames record the spend, so nothing can
   under-count: losing the marker only makes recovery over-count
   [answered], never the budget. *)
let withhold t (sv : serving) (f : fresh) ~charged reason err =
  sv.rejected <- sv.rejected + 1;
  sv.withheld <- sv.withheld + 1;
  ignore (log_fresh t f ~charged (Audit_log.Charged_unreleased reason));
  refuse_frames t ~dataset:f.name reason f.frames;
  Error err

(* A released answer, counted and logged; returns its audit seq. *)
let answered t (sv : serving) (f : fresh) ~charged =
  sv.answered <- sv.answered + 1;
  log_fresh t f ~charged Audit_log.Answered

(* Charge-before-release: the lease gate, the ledger spend, the durable
   [Charge] frame and the crash-after-charge fault point, in that order.
   [Ok charged] is the marginal increase of the composed spend. The
   charge is durable before the caller draws any noise, touches the data
   or creates a handle, so a crash from here on can only over-count
   spent epsilon. Every [Error] is already counted and logged: a refusal
   before the spend as rejected, a charge whose frame failed as
   withheld. *)
let charge_fresh t (sv : serving) (f : fresh) =
  let face = f.charge.Ledger.budget in
  let refused reason =
    sv.rejected <- sv.rejected + 1;
    ignore (log_fresh t f ~charged:zero (Audit_log.Rejected reason))
  in
  match lease_check t ~dataset:f.name face with
  | Error e ->
      refused (lease_reject_reason e);
      Error e
  | Ok () -> (
      let before = Ledger.spent sv.ledger in
      let c0 = Dp_obs.Clock.now_ns () in
      let spent =
        Dp_obs.Span.with_ t.trace ~dataset:f.name Dp_obs.Name.Sp_charge
          (fun () -> Ledger.spend sv.ledger ?analyst:f.analyst f.charge)
      in
      Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Charge_ns
        (Dp_obs.Clock.elapsed_ns c0);
      match spent with
      | Error rejection ->
          refused "budget-exceeded";
          Error (Budget_exceeded rejection)
      | Ok () -> (
          let after = Ledger.spent sv.ledger in
          let charged =
            {
              Privacy.epsilon =
                Float.max 0. (after.Privacy.epsilon -. before.Privacy.epsilon);
              delta = Float.max 0. (after.Privacy.delta -. before.Privacy.delta);
            }
          in
          match
            journal_append t ~written:(note f)
              (Journal.Charge
                 {
                   Journal.dataset = f.name;
                   analyst = f.analyst;
                   query = f.query;
                   mechanism = f.mech;
                   face;
                   marginal = charged;
                   rho = Ledger.rho_of_charge f.charge;
                 })
          with
          | Error e -> withhold t sv f ~charged "journal" e
          | Ok () ->
              Faults.check t.faults Faults.Crash_after_charge;
              Ok charged))

(* The span/latency wrapper of [submit] and [train] lives outside the
   serving body so that every exit path — cache hit, rejection, withheld
   answer, even an injected crash — ends the span and records end-to-end
   latency. [tag] adds a success's span tags. The latency histogram is
   picked here from [entry], not passed in: flow's F1 ties every
   argument of a call to every sink its parameters reach, so a metric
   name passed next to [serve] would count as tainted by its result. *)
let traced t ~dataset entry serve tag =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv ->
      let latency =
        match entry with
        | `Submit -> Dp_obs.Name.Submit_ns
        | `Train -> Dp_obs.Name.Train_ns
      in
      let t0 = Dp_obs.Clock.now_ns () in
      let h = Dp_obs.Span.begin_ t.trace ~dataset Dp_obs.Name.Sp_submit in
      Fun.protect
        ~finally:(fun () ->
          Dp_obs.Span.end_ t.trace h;
          Dp_obs.Metrics.observe sv.scope latency (Dp_obs.Clock.elapsed_ns t0))
        (fun () ->
          let result = serve sv in
          Result.iter (tag h) result;
          result)

let submit_serving t (sv : serving) ?analyst ?epsilon ~dataset query =
  let ds = sv.dataset in
  let eps =
    match epsilon with Some e -> e | None -> ds.policy.default_epsilon
  in
  let norm = Query.normalize query in
  (* Cache before planning: a hit replays the stored release without
     touching the raw data (planning is an O(n) scan), and without
     consulting the ledger — post-processing is free even after the
     budget is exhausted, and still served in degraded mode. *)
  let key = Printf.sprintf "%s|eps=%.12g|%s" ds.name eps norm in
  await_free t (Cache_key key);
  let cached =
    if ds.policy.cache then begin
      let c0 = Dp_obs.Clock.now_ns () in
      let hit = Cache.lookup sv.cache key in
      Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Cache_lookup_ns
        (Dp_obs.Clock.elapsed_ns c0);
      hit
    end
    else None
  in
  match cached with
  | Some entry ->
      (* a hit is free post-processing: it only bumps its key's counter *)
      let seq =
        match t.log with
        | None -> -1
        | Some log ->
            Audit_log.hit log
              ~mechanism:(Planner.mechanism_name entry.Cache.mechanism)
              ~dataset ~query:norm ~requested:entry.Cache.requested
      in
      Ok
        {
          answer = entry.Cache.answer;
          mechanism = entry.Cache.mechanism;
          requested = entry.Cache.requested;
          charged = zero;
          cache_hit = true;
          seq;
        }
  | None -> (
      (* a miss holds its key until the answer is cached, so a repeat
         that arrives while this release is parked hits the cache *)
      hold t (Cache_key key) @@ fun () ->
      match refuse_fresh t sv ~analyst ~dataset ~query:norm with
      | Some e -> Error e
      | None -> (
          let p0 = Dp_obs.Clock.now_ns () in
          let planned =
            Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_plan (fun () ->
                Planner.price (Registry.schema_of ds) (Planner.Query (query, eps))
                |> Result.map (fun p -> (p, Planner.plan_of ds p.Planner.spec)))
          in
          Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Plan_ns
            (Dp_obs.Clock.elapsed_ns p0);
          match planned with
          | Error msg ->
              ignore
                (log_decision t ?analyst ~dataset ~query:norm ~requested:zero
                   ~charged:zero ~verdict:(Audit_log.Rejected msg) ());
              Error (Bad_query msg)
          | Ok (priced, plan) -> (
              let sp = priced.Planner.spec in
              let f = fresh_of ?analyst ~dataset priced in
              match charge_fresh t sv f with
              | Error e -> Error e
              | Ok charged -> (
                  let face = sp.Planner.charge.Ledger.budget in
                  let n0 = Dp_obs.Clock.now_ns () in
                  let drawn =
                    Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_noise
                      (fun () ->
                        Faults.with_retries ~jitter:t.retry_rng
                          (fun ~attempt ->
                            Faults.check t.faults ~attempt Faults.Rng;
                            plan.Planner.run t.rng))
                  in
                  Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Noise_ns
                    (Dp_obs.Clock.elapsed_ns n0);
                  match drawn with
                  | Error msg ->
                      withhold t sv f ~charged "rng"
                        (Transient ("rng exhausted: " ^ msg))
                  | Ok answer ->
                      if ds.policy.cache then begin
                        Cache.store sv.cache key
                          {
                            Cache.answer;
                            mechanism = sp.Planner.mechanism;
                            requested = face;
                          };
                        (* a lost cache record is safe (a future miss
                           re-charges: over-counting), so it rides the
                           next fsync and a failure here does not
                           withhold the answer *)
                        ignore
                          (journal_append ~sync:false t
                             (Journal.Cache_insert
                                {
                                  Journal.dataset;
                                  key;
                                  answer;
                                  mechanism = sp.Planner.mechanism;
                                  requested = face;
                                }))
                      end;
                      let seq = answered t sv f ~charged in
                      Ok
                        {
                          answer;
                          mechanism = sp.Planner.mechanism;
                          requested = face;
                          charged;
                          cache_hit = false;
                          seq;
                        }))))

let submit t ?analyst ?epsilon ~dataset query =
  traced t ~dataset `Submit
    (fun sv -> submit_serving t sv ?analyst ?epsilon ~dataset query)
    (fun h (r : response) ->
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_face
        r.requested.Privacy.epsilon;
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_charged
        r.charged.Privacy.epsilon;
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_cache_hit
        (if r.cache_hit then 1. else 0.))

let submit_text t ?analyst ?epsilon ~dataset text =
  match Query.parse text with
  | Error msg -> Error (Bad_query msg)
  | Ok q -> submit t ?analyst ?epsilon ~dataset q

type report = {
  dataset : string;
  rows : int;
  queries : int;
  answered : int;
  cache_hits : int;
  rejected : int;
  hit_rate : float;
  backend : Ledger.backend;
  total : Privacy.budget;
  spent : Privacy.budget;
  remaining : Privacy.budget;
  leakage : Meter.reading;
  degraded : bool;
}

let report t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv ->
      let spent = Ledger.spent sv.ledger in
      let hits = Cache.hits sv.cache in
      Ok
        {
          dataset;
          rows = sv.dataset.Registry.rows;
          queries = sv.answered + sv.rejected + hits;
          answered = sv.answered;
          cache_hits = hits;
          rejected = sv.rejected;
          hit_rate = Cache.hit_rate sv.cache;
          backend = Ledger.backend sv.ledger;
          total = Ledger.total sv.ledger;
          spent;
          remaining = Ledger.remaining sv.ledger;
          leakage =
            Meter.reading ~rows:sv.dataset.Registry.rows
              ~universe:sv.dataset.Registry.policy.universe spent;
          degraded = degraded_for t sv;
        }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>dataset %s (%d rows, %a composition)%s@,\
     queries: %d (%d answered, %d cached, %d rejected), cache hit-rate %.3f@,\
     budget: total %a, spent %a, remaining %a@,\
     leakage: %a@]"
    r.dataset r.rows Ledger.pp_backend r.backend
    (if r.degraded then " [degraded]" else "")
    r.queries r.answered r.cache_hits r.rejected r.hit_rate Privacy.pp_budget
    r.total Privacy.pp_budget r.spent Privacy.pp_budget r.remaining Meter.pp
    r.leakage

let audit_log t = t.log

let records t ~dataset =
  match t.log with
  | None -> []
  | Some log -> Audit_log.for_dataset log dataset

let replay t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> (
      match t.log with
      | None -> Ok (Dp_audit.Replay.Consistent zero)
      | Some log ->
          Ok
            (Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
               (Audit_log.to_events log dataset)))

let analyst_spent t ~dataset ~analyst =
  match Hashtbl.find_opt t.servings dataset with
  | None -> zero
  | Some sv -> Ledger.analyst_spent sv.ledger analyst

(* ------------------------------------------------------------------ *)
(* Served learning: train / predict / model *)

type trained = {
  model : Model_store.model;
  charged : Privacy.budget;
  seq : int;
}

let train_journal_record (m : Model_store.model) =
  Journal.Train
    {
      Journal.dataset = m.Model_store.dataset;
      handle = m.Model_store.handle;
      backend = m.Model_store.backend;
      epsilon = m.Model_store.epsilon;
      chains = m.Model_store.chains;
      steps = m.Model_store.steps;
      beta = m.Model_store.beta;
      face = m.Model_store.face;
      target = m.Model_store.target;
      features = m.Model_store.features;
      theta = m.Model_store.theta;
      rhat = m.Model_store.rhat;
      ess = m.Model_store.ess;
      acceptance = m.Model_store.acceptance;
    }

let train_serving t (sv : serving) ?analyst ~dataset (params : Train.params) =
  let ds = sv.dataset in
  let request = Planner.Train params in
  let norm = Planner.text request in
  match refuse_fresh t sv ~analyst ~dataset ~query:norm with
  | Some e -> Error e
  | None -> (
      match Planner.price (Registry.schema_of ds) request with
      | Error msg -> reject_bad t sv ?analyst ~dataset ~query:norm msg
      | Ok priced -> (
          let spec = priced.Planner.spec in
          let columns =
            Array.map
              (fun (c : Registry.column) ->
                (c.Registry.name, c.Registry.lo, c.Registry.hi, c.Registry.values))
              ds.columns
          in
          match Train.design ~columns ~target:params.Train.target with
          | Error msg -> reject_bad t sv ?analyst ~dataset ~query:norm msg
          | Ok design -> (
              let face = spec.Train.face in
              let f = fresh_of ?analyst ~dataset priced in
              (* the spend is durable before any chain touches the data *)
              match charge_fresh t sv f with
              | Error e -> Error e
              | Ok charged -> (
                  let gate_hook check =
                    let g0 = Dp_obs.Clock.now_ns () in
                    let report =
                      Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_gate
                        check
                    in
                    Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Gate_ns
                      (Dp_obs.Clock.elapsed_ns g0);
                    report
                  in
                  let outcome =
                    Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_train
                      (fun () -> Train.run ~gate_hook spec design t.rng)
                  in
                  (* the next handle stays ours until the model is in
                     the store *)
                  holding t (Next_model dataset) @@ fun () ->
                  let handle =
                    Printf.sprintf "%s/m%d" dataset
                      (Model_store.size sv.models + 1)
                  in
                  let model_of ~theta ~acceptance (report : Gates.report) =
                    {
                      Model_store.handle;
                      dataset;
                      backend = priced.Planner.mechanism_name;
                      epsilon = params.Train.epsilon;
                      chains = params.Train.chains;
                      steps = params.Train.steps;
                      beta = spec.Train.beta;
                      face;
                      target = params.Train.target;
                      features = Train.public_facts design;
                      theta;
                      rhat =
                        Array.map
                          (fun (c : Gates.coord) -> c.Gates.rhat)
                          report.Gates.coords;
                      ess =
                        Array.map
                          (fun (c : Gates.coord) -> c.Gates.ess)
                          report.Gates.coords;
                      acceptance;
                    }
                  in
                  match outcome with
                  | Train.Released { theta; report; acceptance } -> (
                      let m = model_of ~theta:(Some theta) ~acceptance report in
                      (* the handle exists iff its frame is durable: a
                         model that cannot be journaled is withheld,
                         never released from memory alone *)
                      match
                        journal_append t ~written:(note f)
                          (train_journal_record m)
                      with
                      | Error e -> withhold t sv f ~charged "journal" e
                      | Ok () ->
                          Model_store.add sv.models m;
                          let seq = answered t sv f ~charged in
                          Ok { model = m; charged; seq })
                  | Train.Withheld { report; acceptance } -> (
                      let m = model_of ~theta:None ~acceptance report in
                      let unconverged =
                        Unconverged
                          {
                            dataset;
                            handle;
                            worst_rhat = Gates.worst_rhat report;
                            min_ess = Gates.min_ess report;
                            charged;
                          }
                      in
                      (* outcome marker for the charge, then the
                         durable withheld handle; the charge stands
                         either way — never a refund, never a biased
                         sample *)
                      ignore (withhold t sv f ~charged "unconverged" unconverged);
                      match
                        journal_append_or_refuse t ~dataset
                          (train_journal_record m)
                      with
                      | Error e -> Error e
                      | Ok () ->
                          Model_store.add sv.models m;
                          Error unconverged)))))

let train t ?analyst ~dataset params =
  traced t ~dataset `Train
    (fun sv -> train_serving t sv ?analyst ~dataset params)
    (fun h (r : trained) ->
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_face
        r.model.Model_store.face.Privacy.epsilon;
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_charged
        r.charged.Privacy.epsilon;
      Dp_obs.Span.tag t.trace h Dp_obs.Name.T_chains
        (float_of_int r.model.Model_store.chains))

let serving_of_handle t handle =
  match String.index_opt handle '/' with
  | None -> None
  | Some i -> Hashtbl.find_opt t.servings (String.sub handle 0 i)

let find_model t handle =
  match serving_of_handle t handle with
  | None -> None
  | Some sv -> Model_store.find sv.models handle

(* Prediction is post-processing of the released θ: no data access, no
   ledger charge, served even in degraded mode and after exhaustion. *)
let predict t handle x =
  match serving_of_handle t handle with
  | None -> Error (Unknown_model handle)
  | Some sv -> (
      if Model_store.find sv.models handle = None then
        Error (Unknown_model handle)
      else
        let p0 = Dp_obs.Clock.now_ns () in
        match Model_store.predict sv.models handle x with
        | Ok v ->
            Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Predict_ns
              (Dp_obs.Clock.elapsed_ns p0);
            Ok v
        | Error msg -> Error (Bad_query msg))

let models t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> Ok sv.models

(* ------------------------------------------------------------------ *)
(* Continual observation: stream open / append / read / window.

   The lifecycle inverts the one-shot query shape: the whole privacy
   cost (ε per level × ⌈log₂ N⌉ levels, Stream.spec) is charged once
   when the stream opens; from then on appends mutate long-lived tree
   state and reads are free post-processing of already-noised nodes.
   Durability ordering per append: journal the closing nodes' noisy
   values first, then commit them to the in-memory tree — no read can
   ever release noise that a kill -9 would lose. *)

type stream_opened = {
  stream : Stream_store.stream;
  charged : Privacy.budget;
  seq : int;
}

type appended = { handle : string; t_now : int; nodes_closed : int }

type stream_count = {
  handle : string;
  t_now : int;
  count : float;
  window : int option;  (* None: whole-prefix read *)
  face : Privacy.budget;
  leak : Meter.stream_reading;
}

let stream_open t ?analyst ~dataset (params : Stream.params) =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> (
      let request = Planner.Stream params in
      let norm = Planner.text request in
      match refuse_fresh t sv ~analyst ~dataset ~query:norm with
      | Some e -> Error e
      | None -> (
          match Planner.price (Registry.schema_of sv.dataset) request with
          | Error msg -> reject_bad t sv ?analyst ~dataset ~query:norm msg
          | Ok priced -> (
              let spec = priced.Planner.spec in
              let f = fresh_of ?analyst ~dataset priced in
              (* the whole-lifetime face is durable before the handle
                 exists *)
              match charge_fresh t sv f with
              | Error e -> Error e
              | Ok charged -> (
                  holding t (Next_stream dataset) @@ fun () ->
                  let handle =
                    Printf.sprintf "%s/s%d" dataset
                      (Stream_store.size sv.streams + 1)
                  in
                  (* the handle exists iff its frame is durable, like
                     model handles *)
                  match
                    journal_append t ~written:(note f)
                      (Journal.Stream_open
                         {
                           Journal.dataset;
                           handle;
                           epsilon = params.Stream.epsilon;
                           horizon = params.Stream.horizon;
                           window = params.Stream.window;
                         })
                  with
                  | Error e -> withhold t sv f ~charged "journal" e
                  | Ok () ->
                      let stream =
                        {
                          Stream_store.handle;
                          dataset;
                          spec;
                          counter =
                            Counter.create ~epsilon:params.Stream.epsilon
                              ~horizon:params.Stream.horizon;
                          reads = 0;
                        }
                      in
                      Stream_store.add sv.streams stream;
                      let seq = answered t sv f ~charged in
                      Ok { stream; charged; seq }))))

(* The one stream-handle lookup: the handle's serving and stream. *)
let stream_lookup t handle =
  match serving_of_handle t handle with
  | None -> None
  | Some sv ->
      Option.map (fun s -> (sv, s)) (Stream_store.find sv.streams handle)

let find_stream t handle = Option.map snd (stream_lookup t handle)

let streams t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> Ok sv.streams

(* Appends are pre-paid (the open charged the whole lifetime), so they
   are served even in low-water degraded mode — like cache hits, they
   consume no fresh budget. They do need durability: without a working
   journal the closing nodes' noise could be lost after a later read
   released it, so a failed journal refuses appends outright. A refused
   append whose frame was written anyway (its fsync failed) is named by
   a marker, so recovery skips it and commits exactly what the live
   tree did. *)
let append t handle bit =
  match stream_lookup t handle with
  | None -> Error (Unknown_stream handle)
  | Some (sv, s) ->
      let a0 = Dp_obs.Clock.now_ns () in
      (* the tree's next step is this append's until it commits *)
      holding t (Stream_handle handle) @@ fun () ->
      if t.journal_failed then Error journal_down
      else if bit <> 0 && bit <> 1 then Error (Bad_query "append expects 0 or 1")
      else if Counter.t_now s.Stream_store.counter
              >= s.Stream_store.spec.Stream.params.Stream.horizon
      then
        Error
          (Bad_query
             (Printf.sprintf "stream %s is past its horizon N=%d" handle
                s.Stream_store.spec.Stream.params.Stream.horizon))
      else
        let c = s.Stream_store.counter in
        let dataset = s.Stream_store.dataset in
        let scale = Counter.noise_scale c in
        let nodes =
          Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_noise (fun () ->
              Counter.prepare c ~bit ~noise:(fun () ->
                  Dp_rng.Sampler.laplace ~mean:0. ~scale t.stream_rng))
        in
        (* noise-before-release, durably: the frame carrying the noisy
           node values is fsynced before the tree mutates *)
        match
          journal_append_or_refuse t ~dataset
            (Journal.Stream_append { Journal.dataset; handle; bit; nodes })
        with
        | Error e -> Error e
        | Ok () ->
            Faults.check t.faults Faults.Crash_after_charge;
            Counter.commit c ~bit nodes;
            Stream_store.record_append sv.streams;
            Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Append_ns
              (Dp_obs.Clock.elapsed_ns a0);
            Ok { handle; t_now = Counter.t_now c; nodes_closed = Array.length nodes }

(* Reads are deterministic post-processing of durable node values: no
   data access, no ledger charge, no fresh noise — served even in
   degraded mode, after budget exhaustion, and with the journal down. *)
let stream_count_of (sv : serving) (s : Stream_store.stream) ~window count =
  s.Stream_store.reads <- s.Stream_store.reads + 1;
  let face = s.Stream_store.spec.Stream.face in
  let t_now = Counter.t_now s.Stream_store.counter in
  {
    handle = s.Stream_store.handle;
    t_now;
    count;
    window;
    face;
    leak =
      Meter.stream_reading ~rows:sv.dataset.Registry.rows
        ~universe:sv.dataset.Registry.policy.universe ~steps:t_now face;
  }

let stream_read t handle =
  match stream_lookup t handle with
  | None -> Error (Unknown_stream handle)
  | Some (sv, s) ->
      let r0 = Dp_obs.Clock.now_ns () in
      let count = Counter.read s.Stream_store.counter in
      let r = stream_count_of sv s ~window:None count in
      Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Stream_read_ns
        (Dp_obs.Clock.elapsed_ns r0);
      Ok r

let stream_window t handle ?w () =
  match stream_lookup t handle with
  | None -> Error (Unknown_stream handle)
  | Some (sv, s) -> (
      let declared = s.Stream_store.spec.Stream.params.Stream.window in
      match (w, declared) with
      | None, 0 ->
          Error
            (Bad_query "stream declared no default window; pass an explicit one")
      | _ -> (
          let w = match w with Some w -> w | None -> declared in
          let r0 = Dp_obs.Clock.now_ns () in
          match Counter.window s.Stream_store.counter ~w with
          | Error msg -> Error (Bad_query msg)
          | Ok count ->
              let r = stream_count_of sv s ~window:(Some w) count in
              Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Stream_read_ns
                (Dp_obs.Clock.elapsed_ns r0);
              Ok r))

(* ------------------------------------------------------------------ *)
(* Recovery *)

type recovery = {
  journal_path : string;
  records : int;
  torn_bytes : int;
  datasets : int;
  charges : int;
  cache_entries : int;
  models_recovered : int;
  streams_recovered : int;
  verified : bool;
}

exception Recovery_failed of string

type replay_counts = {
  mutable rc_charges : int;
  mutable rc_cache : int;
  mutable rc_models : int;
  mutable rc_streams : int;
}

(* The live outcome of each frame, by ordinal. A [Withheld] marker
   names the frames whose effect the live engine refused: a named
   charge is rebuilt as withheld with the marker's reason, and any
   other named frame is dropped, since the live engine never applied
   it. A legacy marker names nothing and pairs with the charge right
   before it. The one remaining divergence is a genuine crash between
   charge and answer: no marker could be written, so recovery
   conservatively counts that charge as answered (budget-wise the two
   outcomes are identical). *)
let live_outcomes records =
  let refused = Hashtbl.create 8 in
  let rec scan i prev = function
    | [] -> ()
    | r :: rest ->
        (match (r, prev) with
        | ( Journal.Withheld { frames = []; dataset; reason },
            Some (Journal.Charge c) )
          when dataset = c.Journal.dataset ->
            Hashtbl.replace refused (i - 1) reason
        | Journal.Withheld { frames; reason; _ }, _ ->
            List.iter (fun o -> Hashtbl.replace refused o reason) frames
        | _ -> ());
        scan (i + 1) (Some r) rest
  in
  scan 0 None records;
  List.mapi (fun i r -> (r, Hashtbl.find_opt refused i)) records
  |> List.filter (function
       | Journal.Charge _, _ | _, None -> true
       | _, Some _ -> false)

(* The serving a journal record names; recovery fails on an unknown
   dataset. *)
let recovered_serving t ~what dataset =
  match Hashtbl.find_opt t.servings dataset with
  | Some sv -> sv
  | None ->
      raise
        (Recovery_failed
           (Printf.sprintf "journal %s unknown dataset %S" what dataset))

let apply_record t counts (record, withheld) =
  match record with
  | Journal.Register { name; rows; seed; policy } -> (
      if Registry.find t.registry name <> None then
        raise
          (Recovery_failed
             (Printf.sprintf "journal registers %S but it already exists" name));
      let ds =
        try Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed)
        with Invalid_argument msg -> raise (Recovery_failed msg)
      in
      match register_serving t ds with
      | Ok () -> ()
      | Error msg -> raise (Recovery_failed msg))
  | Journal.Charge c ->
      let sv = recovered_serving t ~what:"charges" c.Journal.dataset in
      (try
         Ledger.replay_charge sv.ledger ?analyst:c.Journal.analyst
           ~face:c.Journal.face ~rho:c.Journal.rho ()
       with
      | Invalid_argument msg -> raise (Recovery_failed msg)
      | Privacy.Budget_exceeded _ ->
          raise
            (Recovery_failed
               (Printf.sprintf "journaled charge overdraws analyst budget on %S"
                  c.Journal.dataset)));
      let verdict =
        match withheld with
        | None ->
            sv.answered <- sv.answered + 1;
            Audit_log.Answered
        | Some reason ->
            sv.rejected <- sv.rejected + 1;
            sv.withheld <- sv.withheld + 1;
            Audit_log.Charged_unreleased reason
      in
      ignore
        (log_decision t ?analyst:c.Journal.analyst
           ~mechanism:c.Journal.mechanism ~dataset:c.Journal.dataset
           ~query:c.Journal.query ~requested:c.Journal.face
           ~charged:c.Journal.marginal ~verdict ());
      counts.rc_charges <- counts.rc_charges + 1
  | Journal.Cache_insert k ->
      let sv = recovered_serving t ~what:"caches" k.Journal.dataset in
      Cache.store sv.cache k.Journal.key
        {
          Cache.answer = k.Journal.answer;
          mechanism = k.Journal.mechanism;
          requested = k.Journal.requested;
        };
      counts.rc_cache <- counts.rc_cache + 1
  | Journal.Withheld _ -> ()
  | Journal.Train m -> (
      let sv = recovered_serving t ~what:"trains" m.Journal.dataset in
      match
        Model_store.add sv.models
          {
            Model_store.handle = m.Journal.handle;
            dataset = m.Journal.dataset;
            backend = m.Journal.backend;
            epsilon = m.Journal.epsilon;
            chains = m.Journal.chains;
            steps = m.Journal.steps;
            beta = m.Journal.beta;
            face = m.Journal.face;
            target = m.Journal.target;
            features = m.Journal.features;
            theta = m.Journal.theta;
            rhat = m.Journal.rhat;
            ess = m.Journal.ess;
            acceptance = m.Journal.acceptance;
          }
      with
      | () -> counts.rc_models <- counts.rc_models + 1
      | exception Invalid_argument msg -> raise (Recovery_failed msg))
  | Journal.Stream_open o -> (
      let sv = recovered_serving t ~what:"opens stream on" o.Journal.dataset in
      let params =
        {
          Stream.epsilon = o.Journal.epsilon;
          horizon = o.Journal.horizon;
          window = o.Journal.window;
        }
      in
      match Stream.spec params with
      | exception Invalid_argument msg -> raise (Recovery_failed msg)
      | Error msg -> raise (Recovery_failed msg)
      | Ok spec -> (
          match
            Stream_store.add sv.streams
              {
                Stream_store.handle = o.Journal.handle;
                dataset = o.Journal.dataset;
                spec;
                counter =
                  Counter.create ~epsilon:o.Journal.epsilon
                    ~horizon:o.Journal.horizon;
                reads = 0;
              }
          with
          | () -> counts.rc_streams <- counts.rc_streams + 1
          | exception Invalid_argument msg -> raise (Recovery_failed msg)))
  | Journal.Stream_append a -> (
      (* replay goes through [commit] alone — the journaled noisy node
         values are applied verbatim, consuming zero PRNG draws, so the
         rebuilt tree releases bit-identical counts *)
      let sv = recovered_serving t ~what:"appends to" a.Journal.dataset in
      match Stream_store.find sv.streams a.Journal.handle with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal appends to unknown stream %S"
                  a.Journal.handle))
      | Some s -> (
          match
            Counter.commit s.Stream_store.counter ~bit:a.Journal.bit
              a.Journal.nodes
          with
          | () -> Stream_store.record_append sv.streams
          | exception Invalid_argument msg -> raise (Recovery_failed msg)))

(* The rebuilt audit trace must re-verify: replaying the journaled
   marginals through the plain basic accountant (Dp_audit.Replay) has
   to land on the rebuilt ledger's composed spend, exactly as for a
   live engine. With auditing off there is no rebuilt log, so the
   events come straight from the journal's charge records instead. *)
let verify_recovered t journal_records =
  let journal_events name =
    List.filter_map
      (function
        | Journal.Charge c when c.Journal.dataset = name ->
            Some
              {
                Dp_audit.Replay.label = c.Journal.query;
                budget = c.Journal.marginal;
              }
        | _ -> None)
      journal_records
  in
  Hashtbl.fold
    (fun name (sv : serving) acc ->
      acc
      &&
      let outcome =
        match t.log with
        | Some log ->
            Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
              (Audit_log.to_events log name)
        | None ->
            Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
              (journal_events name)
      in
      match outcome with
      | Dp_audit.Replay.Overdraft _ -> false
      | Dp_audit.Replay.Consistent replayed ->
          let spent = Ledger.spent sv.ledger in
          Float.abs (replayed.Privacy.epsilon -. spent.Privacy.epsilon)
          <= 1e-9 *. Float.max 1. spent.Privacy.epsilon)
    t.servings true

let open_journal_inner t path =
  (
    match
      Journal.open_ ~faults:t.faults
        ~obs:(Dp_obs.Metrics.global t.obs)
        ~jitter:t.retry_rng path
    with
    | Error msg -> Error msg
    | Ok (j, records, stats) -> (
        let counts =
          { rc_charges = 0; rc_cache = 0; rc_models = 0; rc_streams = 0 }
        in
        let n_datasets_before = Hashtbl.length t.servings in
        match List.iter (apply_record t counts) (live_outcomes records) with
        | exception Recovery_failed msg ->
            Journal.close j;
            Error (Printf.sprintf "journal %s: recovery failed: %s" path msg)
        | () ->
            let verified = verify_recovered t records in
            if not verified then begin
              Journal.close j;
              Error
                (Printf.sprintf
                   "journal %s: recovered state failed audit replay \
                    verification"
                   path)
            end
            else begin
              (* replay consumed no draws: re-key both noise streams so
                 post-recovery releases (answers and tree nodes alike)
                 can never repeat pre-crash ones *)
              t.rng <- Dp_rng.Prng.create (entropy_seed ());
              t.stream_rng <- Dp_rng.Prng.create (entropy_seed ());
              t.journal <- Some j;
              Ok
                {
                  journal_path = path;
                  records = stats.Journal.records;
                  torn_bytes = stats.Journal.torn_bytes;
                  datasets = Hashtbl.length t.servings - n_datasets_before;
                  charges = counts.rc_charges;
                  cache_entries = counts.rc_cache;
                  models_recovered = counts.rc_models;
                  streams_recovered = counts.rc_streams;
                  verified;
                }
            end))

let[@dp.sanitizer] open_journal t path =
  if t.journal <> None then Error "a journal is already attached"
  else begin
    let r0 = Dp_obs.Clock.now_ns () in
    let h = Dp_obs.Span.begin_ t.trace Dp_obs.Name.Sp_recovery in
    let result =
      Fun.protect
        ~finally:(fun () ->
          Dp_obs.Span.end_ t.trace h;
          Dp_obs.Metrics.observe
            (Dp_obs.Metrics.global t.obs)
            Dp_obs.Name.Recovery_ns
            (Dp_obs.Clock.elapsed_ns r0))
        (fun () -> open_journal_inner t path)
    in
    (match result with
    | Ok r -> Dp_obs.Span.tag t.trace h Dp_obs.Name.T_records (float_of_int r.records)
    | Error _ -> ());
    result
  end

(* ------------------------------------------------------------------ *)
(* Metrics snapshot *)

let draws_counter = function
  | Draws.Laplace -> Dp_obs.Name.Draws_laplace
  | Draws.Geometric -> Dp_obs.Name.Draws_geometric
  | Draws.Gaussian -> Dp_obs.Name.Draws_gaussian
  | Draws.Discrete_gaussian -> Dp_obs.Name.Draws_discrete_gaussian
  | Draws.Exponential -> Dp_obs.Name.Draws_exponential
  | Draws.Randomized_response -> Dp_obs.Name.Draws_randomized_response

(* Counters that mirror privacy-critical engine state (answered counts,
   spent/remaining ε, degradation) are written at snapshot time from the
   authoritative sources — ledger, cache, serving stats — rather than
   incremented on the hot path. That keeps submit cheap and, more
   importantly, makes recovered and live snapshots agree by
   construction: whatever the journal replay rebuilt is what gets
   exported. Latency histograms and journal/draw counters accumulate
   live. *)
let refresh_metrics t =
  if Dp_obs.Metrics.enabled t.obs then begin
    let g = Dp_obs.Metrics.global t.obs in
    Dp_obs.Metrics.set_gauge g Dp_obs.Name.Datasets_serving
      (float_of_int (Hashtbl.length t.servings));
    Dp_obs.Metrics.set_gauge g Dp_obs.Name.Journal_attached
      (match t.journal with
      | Some _ when not t.journal_failed -> 1.
      | _ -> 0.);
    Array.iter
      (fun k -> Dp_obs.Metrics.set_counter g (draws_counter k) (Draws.count k))
      Draws.all;
    Hashtbl.iter
      (fun _ sv ->
        let s = sv.scope in
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_answered sv.answered;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_rejected sv.rejected;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_withheld sv.withheld;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Cache_hits (Cache.hits sv.cache);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Cache_misses
          (Cache.misses sv.cache);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Trains_released
          (Model_store.released sv.models);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Trains_withheld
          (Model_store.withheld sv.models);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Predicts_served
          (Model_store.predicts sv.models);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Models_stored
          (float_of_int (Model_store.size sv.models));
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Stream_appends
          (Stream_store.appends sv.streams);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Stream_reads
          (Stream_store.reads sv.streams);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Streams_open
          (float_of_int (Stream_store.size sv.streams));
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Stream_depth
          (float_of_int (Stream_store.max_depth sv.streams));
        let spent = Ledger.spent sv.ledger in
        let remaining = Ledger.remaining sv.ledger in
        let total = Ledger.total sv.ledger in
        let m0 = Dp_obs.Clock.now_ns () in
        let leak =
          Meter.reading ~rows:sv.dataset.Registry.rows
            ~universe:sv.dataset.Registry.policy.universe spent
        in
        Dp_obs.Metrics.observe s Dp_obs.Name.Meter_ns
          (Dp_obs.Clock.elapsed_ns m0);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_total total.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_spent spent.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_remaining
          remaining.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Delta_spent spent.Privacy.delta;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Cache_entries
          (float_of_int (Cache.size sv.cache));
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Cache_hit_rate
          (Cache.hit_rate sv.cache);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Degraded_mode
          (if degraded_for t sv then 1. else 0.);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Mi_bound_nats
          leak.Meter.mi_bound_nats;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Capacity_bound_nats
          leak.Meter.capacity_bound_nats;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Min_entropy_leakage_bits
          (match leak.Meter.min_entropy_leakage_bits with
          | Some b -> b
          | None -> 0.))
      t.servings
  end

let metrics_lines ?(spans = true) t =
  refresh_metrics t;
  if spans then Dp_obs.Export.dump ~trace:t.trace t.obs
  else Dp_obs.Export.dump t.obs
