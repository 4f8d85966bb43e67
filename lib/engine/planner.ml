open Dp_mechanism

type answer = Scalar of float | Vector of float array

type mechanism = Laplace | Geometric | Exponential | Discrete_gaussian

let mechanism_name = function
  | Laplace -> "laplace"
  | Geometric -> "geometric"
  | Exponential -> "exponential"
  | Discrete_gaussian -> "discrete-gaussian"

type spec = {
  query : Query.t;
  mechanism : mechanism;
  sensitivity : float;
  epsilon : float;
  charge : Ledger.charge;
}

type plan = { spec : spec; run : Dp_rng.Prng.t -> answer }

let rdp_delta (s : Registry.schema) =
  match s.policy.backend with Ledger.Rdp { delta } -> Some delta | _ -> None

(* Classical Gaussian calibration: sigma achieving (eps, delta) for the
   given L2 sensitivity; the charge is then re-derived through the RDP
   conversion, which only tightens it. *)
let gaussian_sigma ~l2 ~epsilon ~delta =
  l2 *. sqrt (2. *. log (1.25 /. delta)) /. epsilon

(* Monomorphic on purpose: float comparison compiles inline, where the
   polymorphic one calls caml_lessequal once per scanned row. *)
let satisfies op (threshold : float) (v : float) =
  match op with
  | Query.Le -> v <= threshold
  | Query.Lt -> v < threshold
  | Query.Ge -> v >= threshold
  | Query.Gt -> v > threshold

(* ------------------------------------------------------------------ *)
(* Static half: mechanism selection and pricing. Everything below is a
   function of the schema and the query alone — no column data, no
   sampling — so the same code prices a live release and a purely
   static `dpkit analyze` pass, bit-identically. *)

(* An integer release with sensitivity [isens]: geometric under
   basic/advanced composition, discrete Gaussian under RDP. *)
let integer_spec s ~epsilon ~isens =
  match rdp_delta s with
  | None -> (Geometric, { Ledger.budget = Privacy.pure epsilon; rdp = None })
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(float_of_int isens) ~epsilon ~delta in
      let m = Discrete_gaussian.create ~sensitivity:isens ~sigma in
      ( Discrete_gaussian,
        {
          Ledger.budget = Discrete_gaussian.budget m ~delta;
          rdp = Some (Discrete_gaussian.rdp m);
        } )

(* A nonnegative-count vector release with L1 sensitivity 2 (one record
   moves between two cells; L2 sensitivity sqrt 2 for the Gaussian
   path). *)
let cell_spec s ~epsilon =
  match rdp_delta s with
  | None ->
      ( Laplace,
        {
          Ledger.budget = Privacy.pure epsilon;
          rdp = Some (Rdp.laplace ~sensitivity:1. ~epsilon);
        } )
  | Some delta ->
      let l2 = sqrt 2. in
      let sigma = gaussian_sigma ~l2 ~epsilon ~delta in
      let curve = Rdp.gaussian ~l2_sensitivity:l2 ~std:sigma in
      ( Discrete_gaussian,
        { Ledger.budget = Rdp.to_dp ~delta curve; rdp = Some curve } )

let laplace_charge ~epsilon =
  {
    Ledger.budget = Privacy.pure epsilon;
    rdp = Some (Rdp.laplace ~sensitivity:1. ~epsilon);
  }

let spec (s : Registry.schema) ~epsilon query =
  if (not (Float.is_finite epsilon)) || epsilon <= 0. then
    Error (Printf.sprintf "epsilon must be positive and finite, got %g" epsilon)
  else
    let with_column name k =
      match Registry.schema_column s name with
      | Some c -> k c
      | None ->
          Error
            (Printf.sprintf "unknown column %S in dataset %S (have: %s)" name
               s.name
               (String.concat ", "
                  (Array.to_list
                     (Array.map
                        (fun (c : Registry.col_schema) -> c.col)
                        s.cols))))
    in
    match query with
    | Query.Count pred ->
        let build () =
          let mechanism, charge = integer_spec s ~epsilon ~isens:1 in
          Ok
            {
              query;
              mechanism;
              sensitivity = Sensitivity.count ();
              epsilon;
              charge;
            }
        in
        (match pred with
        | None -> build ()
        | Some { column; _ } -> with_column column (fun _ -> build ()))
    | Query.Sum { column } ->
        with_column column (fun c ->
            Ok
              {
                query;
                mechanism = Laplace;
                sensitivity = Sensitivity.bounded_sum ~lo:c.lo ~hi:c.hi;
                epsilon;
                charge = laplace_charge ~epsilon;
              })
    | Query.Mean { column } ->
        with_column column (fun c ->
            Ok
              {
                query;
                mechanism = Laplace;
                sensitivity =
                  Sensitivity.bounded_mean ~lo:c.lo ~hi:c.hi ~n:s.rows;
                epsilon;
                charge = laplace_charge ~epsilon;
              })
    | Query.Histogram { column; bins } ->
        if bins <= 0 then Error "histogram needs a positive bin count"
        else
          with_column column (fun _ ->
              let mechanism, charge = cell_spec s ~epsilon in
              Ok
                {
                  query;
                  mechanism;
                  sensitivity = Sensitivity.histogram ();
                  epsilon;
                  charge;
                })
    | Query.Quantile { column; _ } ->
        with_column column (fun _ ->
            Ok
              {
                query;
                mechanism = Exponential;
                sensitivity = 1.;
                epsilon;
                charge = { Ledger.budget = Privacy.pure epsilon; rdp = None };
              })
    | Query.Cdf { column; points } ->
        if Array.length points = 0 then Error "cdf needs at least one point"
        else
          with_column column (fun _ ->
              let mechanism, charge = cell_spec s ~epsilon in
              Ok
                {
                  query;
                  mechanism;
                  sensitivity = Sensitivity.histogram ();
                  epsilon;
                  charge;
                })

(* ------------------------------------------------------------------ *)
(* Pricing: every fresh release, whatever its kind, as the ledger and
   the audit log see it. The engine builds each fresh release from
   [price] and `dpkit analyze` pushes the same [charge] through its
   ledger, so static and live totals agree because they are one
   function. *)

type _ request =
  | Query : Query.t * float -> spec request
  | Train : Dp_train.Train.params -> Dp_train.Train.spec request
  | Stream : Dp_stream.Stream.params -> Dp_stream.Stream.spec request

type any_request = Any : _ request -> any_request

type 'a priced = {
  text : string;
  mechanism_name : string;
  sensitivity : float;
  epsilon : float;
  charge : Ledger.charge;
  spec : 'a;
}

let text : type a. a request -> string = function
  | Query (q, _) -> Query.normalize q
  | Train p -> Dp_train.Train.normalize p
  | Stream p -> Dp_stream.Stream.normalize p

let price : type a. Registry.schema -> a request -> (a priced, string) result
    =
 fun s req ->
  let priced ~mechanism_name ~sensitivity ~epsilon ~charge spec =
    Ok { text = text req; mechanism_name; sensitivity; epsilon; charge; spec }
  in
  let face_charge budget = { Ledger.budget; rdp = None } in
  match req with
  | Query (query, epsilon) ->
      Result.bind (spec s ~epsilon query) (fun sp ->
          priced ~mechanism_name:(mechanism_name sp.mechanism)
            ~sensitivity:sp.sensitivity ~epsilon ~charge:sp.charge sp)
  | Train p ->
      let cols =
        Array.to_list (Array.map (fun (c : Registry.col_schema) -> c.col) s.cols)
      in
      Result.bind (Dp_train.Train.spec ~rows:s.rows ~cols p) (fun sp ->
          priced
            ~mechanism_name:(Dp_train.Train.backend_name p.backend)
            ~sensitivity:sp.sensitivity ~epsilon:p.epsilon
            ~charge:(face_charge sp.face) sp)
  | Stream p ->
      Result.bind (Dp_stream.Stream.spec p) (fun sp ->
          priced ~mechanism_name:Dp_stream.Stream.mechanism_name
            ~sensitivity:sp.sensitivity ~epsilon:p.epsilon
            ~charge:(face_charge sp.face) sp)

(* ------------------------------------------------------------------ *)
(* Dynamic half: attach a fresh-noise closure to a priced spec. This is
   the only place that touches column values, and it re-derives each
   mechanism from the same (epsilon, policy) facts the spec was priced
   from, so the closure can never drift from the charge. *)

let integer_run s ~epsilon ~isens ~value =
  match rdp_delta s with
  | None ->
      let m = Geometric_mech.create ~sensitivity:isens ~epsilon in
      fun g -> Scalar (float_of_int (Geometric_mech.release m ~value g))
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(float_of_int isens) ~epsilon ~delta in
      let m = Discrete_gaussian.create ~sensitivity:isens ~sigma in
      fun g -> Scalar (float_of_int (Discrete_gaussian.release m ~value g))

(* per-cell noising is the mechanism itself (the discrete-gaussian arm
   adds noise with a bare +.), so the flow analyzer treats this closure
   factory as a declared sanitizer *)
let[@dp.sanitizer] cell_run s ~epsilon (counts : float array) =
  match rdp_delta s with
  | None ->
      let lap = Laplace.create ~sensitivity:(Sensitivity.histogram ()) ~epsilon in
      fun g -> Laplace.release_vector lap ~value:counts g
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(sqrt 2.) ~epsilon ~delta in
      fun g ->
        Array.map
          (fun c -> c +. float_of_int (Discrete_gaussian.sample_noise ~sigma g))
          counts

let runner (ds : Registry.dataset) (sp : spec) =
  let s = Registry.schema_of ds in
  let epsilon = sp.epsilon in
  let col name =
    (* spec already validated the column, so this cannot fail *)
    match Registry.column ds name with
    | Some c -> c
    | None -> invalid_arg ("Planner.runner: missing column " ^ name)
  in
  match sp.query with
  | Query.Count pred ->
      let value =
        match pred with
        | None -> ds.rows
        | Some { column; op; threshold } ->
            Array.fold_left
              (fun acc v -> if satisfies op threshold v then acc + 1 else acc)
              0 (col column).values
      in
      integer_run s ~epsilon ~isens:1 ~value
  | Query.Sum { column } ->
      let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
      let value = Dp_math.Summation.sum (col column).values in
      fun g -> Scalar (Laplace.release lap ~value g)
  | Query.Mean { column } ->
      let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
      let value = Dp_math.Summation.mean (col column).values in
      fun g -> Scalar (Laplace.release lap ~value g)
  | Query.Histogram { column; bins } ->
      let c = col column in
      let h = Dp_stats.Histogram.of_samples ~lo:c.lo ~hi:c.hi ~bins c.values in
      let counts = Array.init bins (Dp_stats.Histogram.count h) in
      let noisy = cell_run s ~epsilon counts in
      fun g ->
        (* clamping at zero is post-processing *)
        Vector (Array.map (Float.max 0.) (noisy g))
  | Query.Quantile { column; q } ->
      let c = col column in
      fun g ->
        Scalar (Dp_learn.Quantile.estimate ~epsilon ~q ~lo:c.lo ~hi:c.hi c.values g)
  | Query.Cdf { column; points } ->
      let c = col column in
      (* Cell counts between consecutive thresholds; noising the cells
         (L1 sensitivity 2) and post-processing a running sum beats
         noising the k cumulative counts directly. *)
      let sorted = Array.copy c.values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank t =
        (* #values <= t via binary search on the sorted copy *)
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if sorted.(mid) <= t then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let k = Array.length points in
      let cum = Array.map rank points in
      let cells =
        Array.init (k + 1) (fun i ->
            let prev = if i = 0 then 0 else cum.(i - 1) in
            let next = if i = k then n else cum.(i) in
            float_of_int (next - prev))
      in
      let noisy = cell_run s ~epsilon cells in
      fun g ->
        let noisy_cells = noisy g in
        let fn = float_of_int n in
        let acc = ref 0. and best = ref 0. in
        Vector
          (Array.init k (fun i ->
               acc := !acc +. Float.max 0. noisy_cells.(i);
               let v = Dp_math.Numeric.clamp ~lo:0. ~hi:1. (!acc /. fn) in
               best := Float.max !best v;
               !best))

let plan_of ds sp = { spec = sp; run = runner ds sp }

let plan (ds : Registry.dataset) ~epsilon query =
  Result.map (plan_of ds) (spec (Registry.schema_of ds) ~epsilon query)
