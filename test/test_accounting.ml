(* Tests for RDP accounting, DP-SGD, private quantiles, MCMC
   diagnostics and the hypothesis-testing (tradeoff) auditor. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if not (Dp_math.Numeric.approx_equal ~rel_tol:tol ~abs_tol:tol expected actual)
  then Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

(* ------------------------------------------------------------------ *)
(* RDP *)

let test_rdp_gaussian_curve () =
  let c = Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:2. in
  check_close ~tol:1e-12 "rho(2)" (2. /. 8.) (c 2.);
  check_close ~tol:1e-12 "linear in alpha" (2. *. c 2.) (c 4.);
  (* matches the Renyi divergence between the actual shifted gaussians:
     D_alpha(N(0,s)||N(1,s)) = alpha/(2 s^2) *)
  try
    ignore (c 1.);
    Alcotest.fail "accepted alpha = 1"
  with Invalid_argument _ -> ()

let test_rdp_laplace_curve () =
  let eps = 0.8 in
  let c = Dp_mechanism.Rdp.laplace ~sensitivity:1. ~epsilon:eps in
  (* the curve is below eps (RDP of Laplace is at most the pure eps) *)
  List.iter
    (fun a ->
      let r = c a in
      Alcotest.(check bool)
        (Printf.sprintf "rho(%g)=%g <= eps" a r)
        true
        (r <= eps +. 1e-9);
      Alcotest.(check bool) "nonnegative" true (r >= 0.))
    [ 1.5; 2.; 4.; 16.; 128. ];
  (* alpha -> infinity approaches eps *)
  Alcotest.(check bool) "limit" true (eps -. c 4096. < 0.01)

let test_rdp_monotone_in_alpha () =
  let c = Dp_mechanism.Rdp.laplace ~sensitivity:1. ~epsilon:1.2 in
  let prev = ref 0. in
  List.iter
    (fun a ->
      let r = c a in
      Alcotest.(check bool) "nondecreasing" true (r >= !prev -. 1e-12);
      prev := r)
    [ 1.1; 1.5; 2.; 3.; 8.; 32.; 256. ]

let test_rdp_to_dp () =
  (* single Gaussian release: the RDP conversion is within a few
     percent of the classical calibration (slightly looser for one
     release — its advantage is under composition, tested below) *)
  let sigma = 5. and delta = 1e-5 in
  let classical = sqrt (2. *. log (1.25 /. delta)) /. sigma in
  let b =
    Dp_mechanism.Rdp.to_dp ~delta
      (Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:sigma)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rdp %.3f ~ classical %.3f" b.Dp_mechanism.Privacy.epsilon classical)
    true
    (b.Dp_mechanism.Privacy.epsilon <= classical *. 1.05);
  (* ...but at 10-fold composition RDP clearly beats k * classical *)
  let composed =
    Dp_mechanism.Rdp.to_dp ~delta
      (Dp_mechanism.Rdp.scale 10
         (Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:sigma))
  in
  Alcotest.(check bool) "wins under composition" true
    (composed.Dp_mechanism.Privacy.epsilon < 10. *. classical /. 2.);
  check_close "delta recorded" delta b.Dp_mechanism.Privacy.delta

let test_rdp_composition_beats_basic () =
  let k = 100 in
  let eps0 = 0.1 and delta = 1e-5 in
  let lap = Dp_mechanism.Rdp.laplace ~sensitivity:1. ~epsilon:eps0 in
  let composed = Dp_mechanism.Rdp.to_dp ~delta (Dp_mechanism.Rdp.scale k lap) in
  Alcotest.(check bool) "beats basic at k=100" true
    (composed.Dp_mechanism.Privacy.epsilon < float_of_int k *. eps0);
  (* scale k = compose k copies *)
  let c2 = Dp_mechanism.Rdp.compose [ lap; lap ] in
  check_close ~tol:1e-12 "compose = scale 2"
    ((Dp_mechanism.Rdp.scale 2 lap) 3.)
    (c2 3.)

let test_rdp_sgm () =
  let e1 = Dp_mechanism.Rdp.gaussian_sgm_epsilon ~noise_multiplier:2. ~steps:10 ~delta:1e-5 in
  let e2 = Dp_mechanism.Rdp.gaussian_sgm_epsilon ~noise_multiplier:4. ~steps:10 ~delta:1e-5 in
  let e3 = Dp_mechanism.Rdp.gaussian_sgm_epsilon ~noise_multiplier:2. ~steps:100 ~delta:1e-5 in
  Alcotest.(check bool) "more noise, less eps" true (e2 < e1);
  Alcotest.(check bool) "more steps, more eps" true (e3 > e1);
  Alcotest.(check bool) "positive" true (e2 > 0.)

(* ------------------------------------------------------------------ *)
(* Discrete Gaussian *)

let test_discrete_gaussian_pmf () =
  let m = Dp_mechanism.Discrete_gaussian.create ~sensitivity:1 ~sigma:2. in
  (* pmf normalizes over a wide window *)
  let total =
    Dp_math.Numeric.float_sum_range 81 (fun i ->
        Dp_mechanism.Discrete_gaussian.pmf m (i - 40))
  in
  check_close ~tol:1e-9 "normalizes" 1. total;
  (* symmetric, unimodal at 0 *)
  check_close ~tol:1e-12 "symmetric"
    (Dp_mechanism.Discrete_gaussian.pmf m 3)
    (Dp_mechanism.Discrete_gaussian.pmf m (-3));
  Alcotest.(check bool) "mode at 0" true
    (Dp_mechanism.Discrete_gaussian.pmf m 0
    > Dp_mechanism.Discrete_gaussian.pmf m 1)

let test_discrete_gaussian_sampler () =
  let g = Dp_rng.Prng.create 20 in
  let sigma = 2.5 in
  let m = Dp_mechanism.Discrete_gaussian.create ~sensitivity:1 ~sigma in
  let n = 100_000 in
  let counts = Hashtbl.create 64 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let k = Dp_mechanism.Discrete_gaussian.sample_noise ~sigma g in
    sum := !sum +. float_of_int k;
    sumsq := !sumsq +. float_of_int (k * k);
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let fn = float_of_int n in
  (* mean 0, variance close to (slightly below) sigma^2 *)
  if Float.abs (!sum /. fn) > 0.05 then Alcotest.failf "mean %g" (!sum /. fn);
  let var = !sumsq /. fn in
  Alcotest.(check bool) (Printf.sprintf "variance %.3f ~ %.3f" var (sigma *. sigma))
    true
    (Float.abs (var -. (sigma *. sigma)) < 0.3);
  (* empirical frequencies match the exact pmf near the mode *)
  List.iter
    (fun k ->
      let f =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. fn
      in
      let p = Dp_mechanism.Discrete_gaussian.pmf m k in
      if Float.abs (f -. p) > 5. *. sqrt (p /. fn) +. 1e-3 then
        Alcotest.failf "freq at %d: %g vs %g" k f p)
    [ -2; -1; 0; 1; 2 ]

let test_discrete_gaussian_privacy_exact () =
  (* the pmf ratio between shifted noise distributions at distance 1:
     log ratio at k is (2k-1)/(2 sigma^2), unbounded in k but the
     RDP/(eps,delta) accounting captures it; check the RDP curve and
     the pmf-ratio identity *)
  let sigma = 3. in
  let m = Dp_mechanism.Discrete_gaussian.create ~sensitivity:1 ~sigma in
  List.iter
    (fun k ->
      let r =
        log (Dp_mechanism.Discrete_gaussian.pmf m k)
        -. log (Dp_mechanism.Discrete_gaussian.pmf m (k - 1))
      in
      check_close ~tol:1e-9
        (Printf.sprintf "log ratio at %d" k)
        (-.float_of_int ((2 * k) - 1) /. (2. *. sigma *. sigma))
        r)
    [ -3; 0; 2; 5 ];
  (* budget consistent with a continuous gaussian of the same sigma *)
  let b = Dp_mechanism.Discrete_gaussian.budget m ~delta:1e-6 in
  let cont =
    Dp_mechanism.Rdp.to_dp ~delta:1e-6
      (Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:sigma)
  in
  check_close ~tol:1e-12 "matches continuous accounting"
    cont.Dp_mechanism.Privacy.epsilon b.Dp_mechanism.Privacy.epsilon

(* ------------------------------------------------------------------ *)
(* DP-SGD *)

let test_dp_sgd_learns () =
  let g = Dp_rng.Prng.create 1 in
  let d =
    Dp_dataset.Dataset.clip_rows_l2 ~radius:1.
      (Dp_dataset.Synthetic.two_gaussians ~separation:3. ~std:1. ~dim:3 ~n:1000 g)
  in
  let r =
    Dp_learn.Dp_sgd.train ~epochs:10 ~noise_multiplier:0.8 ~delta:1e-5
      ~loss:Dp_learn.Loss_fn.logistic d g
  in
  let acc = Dp_learn.Erm.accuracy r.Dp_learn.Dp_sgd.theta d in
  Alcotest.(check bool) (Printf.sprintf "acc %.3f" acc) true (acc > 0.8);
  Alcotest.(check bool) "budget recorded" true
    (r.Dp_learn.Dp_sgd.budget.Dp_mechanism.Privacy.epsilon > 0.
    && r.Dp_learn.Dp_sgd.budget.Dp_mechanism.Privacy.delta = 1e-5);
  Alcotest.(check bool) "steps counted" true (r.Dp_learn.Dp_sgd.steps = 10 * (1000 / 50))

let test_dp_sgd_noise_hurts () =
  let g = Dp_rng.Prng.create 2 in
  let d =
    Dp_dataset.Dataset.clip_rows_l2 ~radius:1.
      (Dp_dataset.Synthetic.two_gaussians ~separation:3. ~std:1. ~dim:3 ~n:500 g)
  in
  let acc sigma =
    Dp_math.Summation.mean
      (Array.init 5 (fun _ ->
           let r =
             Dp_learn.Dp_sgd.train ~epochs:5 ~noise_multiplier:sigma
               ~delta:1e-5 ~loss:Dp_learn.Loss_fn.logistic d g
           in
           Dp_learn.Erm.accuracy r.Dp_learn.Dp_sgd.theta d))
  in
  Alcotest.(check bool) "huge noise is worse" true (acc 200. < acc 0.5);
  (* accounted epsilon decreases in sigma *)
  Alcotest.(check bool) "eps decreases" true
    (Dp_learn.Dp_sgd.epsilon_for ~noise_multiplier:200. ~epochs:5 ~delta:1e-5
    < Dp_learn.Dp_sgd.epsilon_for ~noise_multiplier:0.5 ~epochs:5 ~delta:1e-5)

(* ------------------------------------------------------------------ *)
(* Quantile *)

let test_quantile_utility () =
  let g = Dp_rng.Prng.create 3 in
  let xs = Array.init 500 (fun _ -> Dp_rng.Sampler.uniform ~lo:0. ~hi:10. g) in
  (* at high epsilon the private median has tiny rank error *)
  let errs =
    Array.init 50 (fun _ ->
        let est = Dp_learn.Quantile.estimate ~epsilon:5. ~q:0.5 ~lo:0. ~hi:10. xs g in
        Dp_learn.Quantile.rank_error ~q:0.5 ~estimate:est xs)
  in
  let mean_err =
    Dp_math.Summation.mean (Array.map float_of_int errs)
  in
  Alcotest.(check bool) (Printf.sprintf "mean rank err %.1f" mean_err) true
    (mean_err < 5.);
  (* low epsilon is worse *)
  let errs_lo =
    Array.init 50 (fun _ ->
        let est = Dp_learn.Quantile.estimate ~epsilon:0.05 ~q:0.5 ~lo:0. ~hi:10. xs g in
        Dp_learn.Quantile.rank_error ~q:0.5 ~estimate:est xs)
  in
  let mean_lo = Dp_math.Summation.mean (Array.map float_of_int errs_lo) in
  Alcotest.(check bool) "low eps worse" true (mean_lo > mean_err);
  (* output always inside [lo, hi] *)
  for _ = 1 to 100 do
    let est = Dp_learn.Quantile.estimate ~epsilon:1. ~q:0.9 ~lo:0. ~hi:10. xs g in
    Alcotest.(check bool) "in range" true (est >= 0. && est <= 10.)
  done

let test_quantile_privacy_sanity () =
  (* exact audit at tiny data size: build the output distribution over
     a fine grid by integrating the gap mixture analytically via many
     draws is noisy; instead verify the DP property directly on the
     gap-level categorical: replacing one record changes each gap's
     quality by at most 1 and boundaries shift, so we check the
     end-to-end released value's distribution via binned frequencies. *)
  let g = Dp_rng.Prng.create 4 in
  let xs = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let xs' = Array.copy xs in
  xs'.(0) <- 7.5;
  let eps = 1.0 in
  let report =
    Dp_audit.Auditor.audit_continuous ~trials:100_000 ~bins:10 ~lo:0. ~hi:10.
      ~epsilon_theory:eps
      ~run:(fun g' -> Dp_learn.Quantile.estimate ~epsilon:eps ~q:0.5 ~lo:0. ~hi:10. xs g')
      ~run':(fun g' -> Dp_learn.Quantile.estimate ~epsilon:eps ~q:0.5 ~lo:0. ~hi:10. xs' g')
      g
  in
  Alcotest.(check bool)
    (Printf.sprintf "quantile audit eps_lower %.3f" report.Dp_audit.Auditor.epsilon_lower)
    true
    (Dp_audit.Auditor.passes report ~slack:0.15)

let test_quantile_degenerate () =
  let g = Dp_rng.Prng.create 5 in
  (* all data identical: still returns something in range *)
  let xs = Array.make 20 5. in
  let est = Dp_learn.Quantile.estimate ~epsilon:1. ~q:0.5 ~lo:0. ~hi:10. xs g in
  Alcotest.(check bool) "in range" true (est >= 0. && est <= 10.)

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

let test_autocorrelation_iid () =
  let g = Dp_rng.Prng.create 6 in
  let xs = Array.init 20_000 (fun _ -> Dp_rng.Sampler.gaussian ~mean:0. ~std:1. g) in
  check_close ~tol:1e-12 "lag 0" 1. (Dp_pac_bayes.Diagnostics.autocorrelation xs 0);
  let r1 = Dp_pac_bayes.Diagnostics.autocorrelation xs 1 in
  Alcotest.(check bool) (Printf.sprintf "iid lag1 %.3f ~ 0" r1) true
    (Float.abs r1 < 0.03);
  (* iid chain: ESS ~ n *)
  let ess = Dp_pac_bayes.Diagnostics.effective_sample_size xs in
  Alcotest.(check bool) (Printf.sprintf "iid ESS %.0f" ess) true
    (ess > 15_000.)

let test_ess_correlated () =
  (* AR(1) with coefficient 0.9: tau = (1+rho)/(1-rho) = 19, ESS ~ n/19 *)
  let g = Dp_rng.Prng.create 7 in
  let n = 50_000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.9 *. xs.(i - 1)) +. Dp_rng.Sampler.gaussian ~mean:0. ~std:1. g
  done;
  let ess = Dp_pac_bayes.Diagnostics.effective_sample_size xs in
  let expected = float_of_int n /. 19. in
  Alcotest.(check bool)
    (Printf.sprintf "AR(1) ESS %.0f ~ %.0f" ess expected)
    true
    (ess > expected /. 2. && ess < expected *. 2.)

let test_diagnostics_on_mcmc () =
  let g = Dp_rng.Prng.create 9 in
  let r =
    Dp_pac_bayes.Mcmc.run
      ~config:{ Dp_pac_bayes.Mcmc.step_std = 1.0; burn_in = 1000; thin = 1 }
      ~log_density:(fun th -> -0.5 *. th.(0) *. th.(0))
      ~init:[| 0. |] ~n_samples:20_000 g
  in
  let s = Dp_pac_bayes.Diagnostics.summarize r ~coordinate:0 in
  Alcotest.(check bool) "ess positive and below n" true
    (s.Dp_pac_bayes.Diagnostics.ess > 100.
    && s.Dp_pac_bayes.Diagnostics.ess <= 20_000.);
  Alcotest.(check bool) "mean near 0" true
    (Float.abs s.Dp_pac_bayes.Diagnostics.mean < 0.1);
  Alcotest.(check bool) "split rhat near 1" true
    (s.Dp_pac_bayes.Diagnostics.rhat < 1.05)

(* Pinned fixtures for the rank-normalized split statistics: fully
   deterministic chains, so the converged / stuck verdicts can never
   drift with a sampler change. *)

(* A deterministic LCG stream — white enough that two chains from
   different seeds look like draws from the same distribution. *)
let lcg_chain seed n =
  let s = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      (float_of_int !s /. float_of_int 0x3FFFFFFF) -. 0.5)

let test_split_rhat_converged_fixture () =
  let chains = [| lcg_chain 1 512; lcg_chain 99 512 |] in
  let r = Dp_pac_bayes.Diagnostics.split_rhat chains in
  Alcotest.(check bool) (Printf.sprintf "converged fixture R %.4f" r) true
    (r < 1.01);
  let ess = Dp_pac_bayes.Diagnostics.ess_rank_normalized chains in
  Alcotest.(check bool) (Printf.sprintf "near-iid ESS %.0f" ess) true
    (ess > 500. && ess <= 1024.)

let test_split_rhat_stuck_fixture () =
  (* two frozen chains at different values: W = 0, B > 0 must read as
     divergence, not convergence — the gate's load-bearing case *)
  let r =
    Dp_pac_bayes.Diagnostics.split_rhat
      [| Array.make 64 0.; Array.make 64 1. |]
  in
  Alcotest.(check bool) "frozen disagreeing chains diverge" true
    (r = infinity);
  (* both frozen at the same value: no evidence of divergence *)
  let r =
    Dp_pac_bayes.Diagnostics.split_rhat
      [| Array.make 64 2.; Array.make 64 2. |]
  in
  Alcotest.(check (float 0.)) "frozen agreeing chains" 1. r;
  (* a within-chain drift is what split-R catches that pooled R misses:
     one chain still trending vs one stationary *)
  let drift = Array.init 256 (fun i -> float_of_int i /. 256.) in
  let r = Dp_pac_bayes.Diagnostics.split_rhat [| drift; lcg_chain 3 256 |] in
  Alcotest.(check bool) (Printf.sprintf "drifting chain flagged R %.3f" r) true
    (r > 1.1)

let test_rank_normalize_shape () =
  (* rank normalization is monotone and distribution-free: the ranks of
     a heavy-tailed chain map onto the same normal scores as any other
     chain of the same length *)
  let a = Dp_pac_bayes.Diagnostics.rank_normalize [| [| 1.; 10.; 1e6; -3. |] |] in
  let b = Dp_pac_bayes.Diagnostics.rank_normalize [| [| 0.2; 0.3; 0.4; 0.1 |] |] in
  Array.iteri
    (fun i x -> check_close ~tol:1e-12 "same scores" x b.(0).(i))
    a.(0);
  Alcotest.(check bool) "order preserved" true
    (a.(0).(3) < a.(0).(0) && a.(0).(0) < a.(0).(1) && a.(0).(1) < a.(0).(2))

let test_ess_rejects_nan () =
  let xs = Array.init 64 (fun i -> float_of_int i) in
  xs.(17) <- Float.nan;
  (try
     ignore (Dp_pac_bayes.Diagnostics.effective_sample_size xs);
     Alcotest.fail "NaN chain accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Dp_pac_bayes.Diagnostics.split_rhat [| xs; xs |]);
    Alcotest.fail "NaN chain accepted by split_rhat"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Tradeoff region *)

let test_region_floor () =
  check_close ~tol:1e-12 "at alpha=0" 1. (Dp_audit.Tradeoff.region_floor ~epsilon:1. ~fpr:0.);
  check_close "at alpha=1" 0. (Dp_audit.Tradeoff.region_floor ~epsilon:1. ~fpr:1.);
  (* eps = 0: no test can do better than random: floor is 1 - alpha *)
  check_close ~tol:1e-12 "perfect privacy" 0.7
    (Dp_audit.Tradeoff.region_floor ~epsilon:0. ~fpr:0.3)

let test_exact_roc_randomized_response () =
  let eps = 1.5 in
  let rr = Dp_mechanism.Randomized_response.create ~epsilon:eps in
  let ch = Dp_mechanism.Randomized_response.channel_matrix rr in
  let roc = Dp_audit.Tradeoff.roc_of_distributions ~p:ch.(0) ~q:ch.(1) in
  (* every exact ROC point respects the region *)
  List.iter
    (fun pt ->
      Alcotest.(check bool) "in region" true
        (pt.Dp_audit.Tradeoff.fnr
        >= Dp_audit.Tradeoff.region_floor ~epsilon:eps
             ~fpr:pt.Dp_audit.Tradeoff.fpr
           -. 1e-12))
    roc;
  (* RR achieves the minimum total error floor 2/(1+e^eps) *)
  let min_err =
    List.fold_left
      (fun acc pt -> Float.min acc (pt.Dp_audit.Tradeoff.fpr +. pt.Dp_audit.Tradeoff.fnr))
      infinity roc
  in
  check_close ~tol:1e-12 "extremal" (2. /. (1. +. exp eps)) min_err

let test_tradeoff_audit_flags_leak () =
  let g = Dp_rng.Prng.create 10 in
  (* a deterministic leak has an ROC hitting (0,0): many violations *)
  let report =
    Dp_audit.Tradeoff.audit ~trials:5000 ~outcomes:2 ~epsilon_theory:1.
      ~run:(fun _ -> 0)
      ~run':(fun _ -> 1)
      g
  in
  Alcotest.(check bool) "violations found" true
    (report.Dp_audit.Tradeoff.region_violations > 0);
  Alcotest.(check bool) "min error ~ 0" true
    (report.Dp_audit.Tradeoff.min_total_error < 0.01)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rdp to_dp epsilon decreases in delta" ~count:100
      (pair (float_range 0.5 10.) (float_range (-12.) (-2.)))
      (fun (sigma, log10_delta) ->
        let c = Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:sigma in
        let d1 = 10. ** log10_delta in
        let d2 = Float.min 0.5 (d1 *. 100.) in
        (Dp_mechanism.Rdp.to_dp ~delta:d1 c).Dp_mechanism.Privacy.epsilon
        >= (Dp_mechanism.Rdp.to_dp ~delta:d2 c).Dp_mechanism.Privacy.epsilon
           -. 1e-9);
    Test.make ~name:"quantile estimate within clamp range" ~count:100
      (pair (int_range 0 1000) (float_range 0.05 0.95))
      (fun (seed, q) ->
        let g = Dp_rng.Prng.create seed in
        let xs = Array.init 30 (fun _ -> Dp_rng.Sampler.gaussian ~mean:0. ~std:3. g) in
        let est = Dp_learn.Quantile.estimate ~epsilon:1. ~q ~lo:(-5.) ~hi:5. xs g in
        est >= -5. && est <= 5.);
    Test.make ~name:"region floor decreasing in fpr and eps" ~count:200
      (triple (float_range 0. 3.) (float_range 0. 1.) (float_range 0. 1.))
      (fun (eps, a1, a2) ->
        let lo = Float.min a1 a2 and hi = Float.max a1 a2 in
        Dp_audit.Tradeoff.region_floor ~epsilon:eps ~fpr:lo
        >= Dp_audit.Tradeoff.region_floor ~epsilon:eps ~fpr:hi -. 1e-12);
    Test.make ~name:"ESS bounded by chain length" ~count:30
      (int_range 0 1000)
      (fun seed ->
        let g = Dp_rng.Prng.create seed in
        let xs = Array.init 500 (fun _ -> Dp_rng.Prng.float g) in
        let ess = Dp_pac_bayes.Diagnostics.effective_sample_size xs in
        ess >= 1. && ess <= 500.);
  ]

let () =
  Alcotest.run "dp_accounting"
    [
      ( "rdp",
        [
          Alcotest.test_case "gaussian curve" `Quick test_rdp_gaussian_curve;
          Alcotest.test_case "laplace curve" `Quick test_rdp_laplace_curve;
          Alcotest.test_case "monotone in alpha" `Quick test_rdp_monotone_in_alpha;
          Alcotest.test_case "to_dp" `Quick test_rdp_to_dp;
          Alcotest.test_case "composition beats basic" `Quick
            test_rdp_composition_beats_basic;
          Alcotest.test_case "sgm helper" `Quick test_rdp_sgm;
        ] );
      ( "discrete gaussian",
        [
          Alcotest.test_case "pmf" `Quick test_discrete_gaussian_pmf;
          Alcotest.test_case "sampler" `Slow test_discrete_gaussian_sampler;
          Alcotest.test_case "privacy & accounting" `Quick
            test_discrete_gaussian_privacy_exact;
        ] );
      ( "dp-sgd",
        [
          Alcotest.test_case "learns" `Slow test_dp_sgd_learns;
          Alcotest.test_case "noise/privacy tradeoff" `Slow test_dp_sgd_noise_hurts;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "utility" `Quick test_quantile_utility;
          Alcotest.test_case "privacy audit" `Slow test_quantile_privacy_sanity;
          Alcotest.test_case "degenerate data" `Quick test_quantile_degenerate;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "autocorrelation iid" `Quick test_autocorrelation_iid;
          Alcotest.test_case "ESS on AR(1)" `Slow test_ess_correlated;
          Alcotest.test_case "summarize mcmc" `Slow test_diagnostics_on_mcmc;
          Alcotest.test_case "split-rhat converged fixture" `Quick
            test_split_rhat_converged_fixture;
          Alcotest.test_case "split-rhat stuck fixture" `Quick
            test_split_rhat_stuck_fixture;
          Alcotest.test_case "rank normalization" `Quick
            test_rank_normalize_shape;
          Alcotest.test_case "ESS rejects NaN" `Quick test_ess_rejects_nan;
        ] );
      ( "tradeoff region",
        [
          Alcotest.test_case "floor" `Quick test_region_floor;
          Alcotest.test_case "exact ROC of RR" `Quick
            test_exact_roc_randomized_response;
          Alcotest.test_case "flags leaks" `Quick test_tradeoff_audit_flags_leak;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
