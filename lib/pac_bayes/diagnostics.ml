open Dp_math

let check_no_nan who chains =
  Array.iter
    (fun c ->
      Array.iter
        (fun x -> if Float.is_nan x then invalid_arg (who ^ ": chain contains NaN"))
        c)
    chains

let autocorrelation xs lag =
  let n = Array.length xs in
  if lag < 0 then invalid_arg "Diagnostics.autocorrelation: negative lag";
  if n <= lag + 1 then invalid_arg "Diagnostics.autocorrelation: chain too short";
  let mean = Summation.mean xs in
  let var =
    Numeric.float_sum_range n (fun i -> Numeric.sq (xs.(i) -. mean))
    /. float_of_int n
  in
  if var = 0. then 0.
  else
    Numeric.float_sum_range (n - lag) (fun i ->
        (xs.(i) -. mean) *. (xs.(i + lag) -. mean))
    /. float_of_int n /. var

let effective_sample_size xs =
  let n = Array.length xs in
  if n < 4 then invalid_arg "Diagnostics.effective_sample_size: chain too short";
  check_no_nan "Diagnostics.effective_sample_size" [| xs |];
  (* Geyer's initial positive sequence: sum rho_{2k-1} + rho_{2k}
     pairs while the pair sums stay positive. *)
  let acc = ref 0. in
  let k = ref 1 in
  let continue_ = ref true in
  while !continue_ && (2 * !k) < n - 1 do
    let pair = autocorrelation xs ((2 * !k) - 1) +. autocorrelation xs (2 * !k) in
    if pair > 0. then begin
      acc := !acc +. pair;
      incr k
    end
    else continue_ := false
  done;
  let tau = 1. +. (2. *. !acc) in
  Numeric.clamp ~lo:1. ~hi:(float_of_int n) (float_of_int n /. tau)

(* ------------------------------------------------------------------ *)
(* Rank-normalized split statistics (Vehtari et al. 2021) *)

let check_rect who min_len chains =
  let m = Array.length chains in
  if m < 1 then invalid_arg (who ^ ": need >= 1 chain");
  let n = Array.length chains.(0) in
  if n < min_len then invalid_arg (who ^ ": chains too short");
  Array.iter
    (fun c ->
      if Array.length c <> n then invalid_arg (who ^ ": unequal chain lengths"))
    chains;
  check_no_nan who chains;
  (m, n)

let rank_normalize chains =
  let m, n = check_rect "Diagnostics.rank_normalize" 1 chains in
  let s = m * n in
  (* Pool all draws, rank them with ties averaged, and push the
     fractional rank (r − 3/8)/(S + 1/4) through the normal quantile. *)
  let flat = Array.make s (0., 0) in
  Array.iteri
    (fun ci c -> Array.iteri (fun i x -> flat.((ci * n) + i) <- (x, (ci * n) + i)) c)
    chains;
  Array.sort (fun (a, _) (b, _) -> compare a b) flat;
  let ranks = Array.make s 0. in
  let i = ref 0 in
  while !i < s do
    (* [i, j) is a run of tied values sharing the average rank *)
    let j = ref (!i + 1) in
    while !j < s && fst flat.(!j) = fst flat.(!i) do
      incr j
    done;
    let avg = float_of_int (!i + !j - 1) /. 2. +. 1. in
    for k = !i to !j - 1 do
      ranks.(snd flat.(k)) <- avg
    done;
    i := !j
  done;
  let sf = float_of_int s in
  Array.init m (fun ci ->
      Array.init n (fun i ->
          Special.std_normal_quantile
            ((ranks.((ci * n) + i) -. 0.375) /. (sf +. 0.25))))

let split_chains chains =
  let n = Array.length chains.(0) in
  let h = n / 2 in
  Array.concat
    (Array.to_list
       (Array.map
          (fun c -> [| Array.sub c 0 h; Array.sub c (n - h) h |])
          chains))

(* Classic PSRF on already-transformed chains, with the frozen-chain
   case made honest: zero within-chain variance with between-chain
   disagreement is divergence (R̂ = ∞), not convergence. *)
let psrf chains =
  let m = Array.length chains and n = Array.length chains.(0) in
  let nf = float_of_int n and mf = float_of_int m in
  let means = Array.map Summation.mean chains in
  let grand = Summation.mean means in
  let b =
    nf /. (mf -. 1.)
    *. Summation.sum_map (fun mu -> Numeric.sq (mu -. grand)) means
  in
  let w =
    Summation.mean
      (Array.map
         (fun c ->
           let mu = Summation.mean c in
           Summation.sum_map (fun x -> Numeric.sq (x -. mu)) c /. (nf -. 1.))
         chains)
  in
  if w = 0. then if b = 0. then 1. else infinity
  else sqrt ((((nf -. 1.) /. nf *. w) +. (b /. nf)) /. w)

let split_rhat chains =
  ignore (check_rect "Diagnostics.split_rhat" 8 chains);
  psrf (rank_normalize (split_chains chains))

let ess_rank_normalized chains =
  ignore (check_rect "Diagnostics.ess_rank_normalized" 8 chains);
  let chains = rank_normalize (split_chains chains) in
  let m = Array.length chains and n = Array.length chains.(0) in
  let nf = float_of_int n and mf = float_of_int m in
  let total = mf *. nf in
  let means = Array.map Summation.mean chains in
  (* biased per-chain variances and autocovariances (divisor n), plus
     the pooled var⁺ from unbiased chain variances, per Vehtari et
     al.'s combined autocorrelation *)
  let autocov c mu lag =
    Numeric.float_sum_range
      (n - lag)
      (fun i -> (c.(i) -. mu) *. (c.(i + lag) -. mu))
    /. nf
  in
  let s2 =
    Array.mapi
      (fun ci c ->
        let mu = means.(ci) in
        Summation.sum_map (fun x -> Numeric.sq (x -. mu)) c /. (nf -. 1.))
      chains
  in
  let w = Summation.mean s2 in
  let var_plus =
    let grand = Summation.mean means in
    let b_over_n =
      if m > 1 then
        Summation.sum_map (fun mu -> Numeric.sq (mu -. grand)) means
        /. (mf -. 1.)
      else 0.
    in
    ((nf -. 1.) /. nf *. w) +. b_over_n
  in
  if var_plus <= 0. then total
  else begin
    let rho lag =
      let mean_cov =
        Summation.mean
          (Array.mapi (fun ci c -> autocov c means.(ci) lag) chains)
      in
      1. -. ((w -. mean_cov) /. var_plus)
    in
    (* Geyer pairing as in the single-chain ESS, on the combined rho *)
    let acc = ref (rho 1) in
    let k = ref 1 in
    let continue_ = ref true in
    while !continue_ && (2 * !k) + 1 < n - 1 do
      let pair = rho (2 * !k) +. rho ((2 * !k) + 1) in
      if pair > 0. then begin
        acc := !acc +. pair;
        incr k
      end
      else continue_ := false
    done;
    let tau = 1. +. (2. *. Float.max 0. !acc) in
    Numeric.clamp ~lo:1. ~hi:total (total /. tau)
  end

type summary = { ess : float; mean : float; rhat : float }

let summarize run ~coordinate =
  let xs = Array.map (fun s -> s.(coordinate)) run.Mcmc.samples in
  {
    ess = effective_sample_size xs;
    mean = Summation.mean xs;
    rhat = split_rhat [| xs |];
  }
