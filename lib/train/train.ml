(* All models live on the L2 ball of this radius, matching the
   clipping convention of Loss_fn (the logistic range bound [0,4] holds
   for ‖θ‖ ≤ 3, ‖x‖ ≤ 1). *)
let radius = 3.0
let loss = Dp_learn.Loss_fn.logistic

type backend = Gibbs | Objpert

let backend_name = function
  | Gibbs -> "gibbs"
  | Objpert -> "objective-perturbation"

type params = {
  backend : backend;
  epsilon : float;
  chains : int;
  steps : int;
  burn_in : int;
  step_std : float;
  lambda : float;
  target : string;
  rhat_max : float;
  ess_min : float;
}

let keys =
  [
    "backend"; "eps"; "chains"; "steps"; "burn"; "step-std"; "lambda";
    "target"; "rhat-max"; "ess-min";
  ]

let ( let* ) = Result.bind

module Opts = Dp_mechanism.Opts

let params_of_opts ~default_epsilon opts =
  let* backend =
    match Opts.find "backend" opts with
    | None | Some "gibbs" -> Ok Gibbs
    | Some "objpert" -> Ok Objpert
    | Some other -> Error (Printf.sprintf "bad backend=%s (gibbs|objpert)" other)
  in
  let* epsilon = Opts.float "eps" ~default:default_epsilon opts in
  let* chains =
    Opts.int "chains" ~default:(match backend with Gibbs -> 2 | Objpert -> 1) opts
  in
  let* steps = Opts.int "steps" ~default:400 opts in
  let* burn_in = Opts.int "burn" ~default:400 opts in
  let* step_std = Opts.float "step-std" ~default:0.25 opts in
  let* lambda = Opts.float "lambda" ~default:0.1 opts in
  let target = Option.value (Opts.find "target" opts) ~default:"score" in
  let* rhat_max = Opts.float "rhat-max" ~default:1.1 opts in
  let* ess_min = Opts.float "ess-min" ~default:20. opts in
  if epsilon <= 0. then Error "eps must be positive"
  else if steps < 8 then Error "steps must be >= 8 (the gate splits each chain)"
  else if burn_in < 0 then Error "burn must be >= 0"
  else if step_std <= 0. then Error "step-std must be positive"
  else if lambda <= 0. then Error "lambda must be positive"
  else if rhat_max < 1. then Error "rhat-max must be >= 1"
  else if ess_min < 1. then Error "ess-min must be >= 1"
  else
    match backend with
    | Gibbs when chains < 2 ->
        Error "chains must be >= 2 for backend=gibbs (the gate compares chains)"
    | Gibbs when chains > 64 -> Error "chains must be <= 64"
    | Objpert when chains <> 1 -> Error "chains must be 1 for backend=objpert"
    | Gibbs | Objpert ->
        Ok
          {
            backend;
            epsilon;
            chains;
            steps;
            burn_in;
            step_std;
            lambda;
            target;
            rhat_max;
            ess_min;
          }

let normalize p =
  Printf.sprintf "train(%s,target=%s,eps=%.12g,chains=%d,steps=%d)"
    (backend_name p.backend) p.target p.epsilon p.chains p.steps

type spec = {
  params : params;
  beta : float;
  sensitivity : float;
  face : Dp_mechanism.Privacy.budget;
  features : string list;
}

let spec ~rows ~cols p =
  if rows <= 0 then Error "dataset has no rows"
  else if not (List.mem p.target cols) then
    Error (Printf.sprintf "unknown target column %s" p.target)
  else
    let features = List.filter (fun c -> c <> p.target) cols in
    if features = [] then
      Error "no feature columns besides the target"
    else
      let range = Dp_learn.Loss_fn.range_width loss in
      let n = float_of_int rows in
      match p.backend with
      | Gibbs ->
          Ok
            {
              params = p;
              beta =
                Dp_learn.Private_erm.gibbs_beta ~epsilon:p.epsilon ~n:rows
                  ~loss_range:range;
              sensitivity = range /. n;
              face =
                Dp_mechanism.Privacy.pure (float_of_int p.chains *. p.epsilon);
              features;
            }
      | Objpert ->
          Ok
            {
              params = p;
              beta = 0.;
              sensitivity = 2. *. loss.Dp_learn.Loss_fn.lipschitz /. (n *. p.lambda);
              face = Dp_mechanism.Privacy.pure p.epsilon;
              features;
            }

type design = {
  data : Dp_dataset.Dataset.t;
  features : (string * float * float) array;
}

(* Per-column affine map into [-1,1] from the public bounds, then unit
   L2 clip — shared verbatim by training and prediction. *)
let scale_raw ~features x =
  let d = Array.length features in
  let scaled =
    Array.init d (fun j ->
        let _, lo, hi = features.(j) in
        let v = Float.min hi (Float.max lo x.(j)) in
        (2. *. ((v -. lo) /. (hi -. lo))) -. 1.)
  in
  Dp_linalg.Vec.project_l2_ball ~radius:1. scaled

let scale_point ~features x =
  if Array.length x <> Array.length features then
    Error
      (Printf.sprintf "expected %d feature values, got %d"
         (Array.length features) (Array.length x))
  else Ok (scale_raw ~features x)

(* the design's public half: names and policy bounds only, so readers
   of journal records never touch the scaled rows *)
let[@dp.sanitizer] public_facts (d : design) = d.features

let design ~columns ~target =
  match
    Array.find_opt (fun (name, _, _, _) -> name = target) columns
  with
  | None -> Error (Printf.sprintf "unknown target column %s" target)
  | Some (_, t_lo, t_hi, t_values) ->
      let feats =
        Array.of_list
          (List.filter_map
             (fun (name, lo, hi, values) ->
               if name = target then None else Some (name, lo, hi, values))
             (Array.to_list columns))
      in
      if Array.length feats = 0 then
        Error "no feature columns besides the target"
      else
        let bounds = Array.map (fun (n, lo, hi, _) -> (n, lo, hi)) feats in
        let mid = (t_lo +. t_hi) /. 2. in
        let rows = Array.length t_values in
        let xs =
          Array.init rows (fun i ->
              scale_raw ~features:bounds
                (Array.map (fun (_, _, _, vs) -> vs.(i)) feats))
        in
        let ys =
          Array.map (fun v -> if v > mid then 1. else -1.) t_values
        in
        Ok { data = Dp_dataset.Dataset.create xs ys; features = bounds }

type outcome =
  | Released of {
      theta : float array;
      report : Gates.report;
      acceptance : float;
    }
  | Withheld of { report : Gates.report; acceptance : float }

let predict_margin ~theta x = Dp_linalg.Vec.dot theta x

(* Overdispersed chain initialisation inside the ball: each coordinate
   uniform in [-0.9 r/sqrt d, 0.9 r/sqrt d], so chains start in
   different basins and split-R̂ can actually see a failure to mix. *)
let init_point ~dim g =
  let s = 0.9 *. radius /. sqrt (float_of_int dim) in
  Array.init dim (fun _ -> s *. ((2. *. Dp_rng.Prng.float g) -. 1.))

let clipped_risk data theta =
  let n = Dp_dataset.Dataset.size data in
  Dp_math.Numeric.float_sum_range n (fun i ->
      let x, y = Dp_dataset.Dataset.row data i in
      Dp_learn.Loss_fn.clip loss ~theta ~x ~y)
  /. float_of_int n

(* the Gibbs-posterior / objective-perturbation samplers below ARE the
   mechanism: the released theta depends on the design only through the
   calibrated sampling, so this is a declared dataflow sanitizer *)
let[@dp.sanitizer] run ?(gate_hook = fun check -> check ()) sp design g =
  let p = sp.params in
  match p.backend with
  | Objpert ->
      let model =
        Dp_learn.Private_erm.objective_perturbation ~epsilon:p.epsilon
          ~lambda:p.lambda ~loss design.data g
      in
      let report =
        Gates.deterministic ~rhat_max:p.rhat_max ~ess_min:p.ess_min
      in
      Released
        { theta = model.Dp_learn.Private_erm.theta; report; acceptance = 1. }
  | Gibbs ->
      let dim = Dp_dataset.Dataset.dim design.data in
      let log_density theta =
        if Dp_linalg.Vec.norm2 theta > radius then neg_infinity
        else -.sp.beta *. clipped_risk design.data theta
      in
      let config =
        { Dp_pac_bayes.Mcmc.step_std = p.step_std; burn_in = p.burn_in; thin = 1 }
      in
      let runs =
        Array.init p.chains (fun _ ->
            Dp_pac_bayes.Mcmc.run ~config ~log_density
              ~init:(init_point ~dim g) ~n_samples:p.steps g)
      in
      let chains = Array.map (fun r -> r.Dp_pac_bayes.Mcmc.samples) runs in
      let acceptance =
        Dp_math.Summation.mean
          (Array.map (fun r -> r.Dp_pac_bayes.Mcmc.acceptance_rate) runs)
      in
      let report =
        gate_hook (fun () ->
            Gates.check ~rhat_max:p.rhat_max ~ess_min:p.ess_min chains)
      in
      if Gates.converged report then
        let draws = chains.(0) in
        Released
          { theta = draws.(Array.length draws - 1); report; acceptance }
      else Withheld { report; acceptance }
