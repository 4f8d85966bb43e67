(** Convergence diagnostics for the MCMC Gibbs sampler.

    The gating statistics follow Vehtari, Gelman, Simpson, Carpenter &
    Bürkner (2021): chains are split in half (so a trend inside one
    chain shows up as between-chain disagreement) and rank-normalized
    (pooled ranks mapped through the standard normal quantile, so
    heavy tails and scale-only differences cannot hide from a
    mean/variance comparison), then the classic potential scale
    reduction factor and Geyer's autocovariance ESS are computed on
    the transformed draws. *)

val autocorrelation : float array -> int -> float
(** Lag-k autocorrelation of a scalar chain (biased, normalized by the
    lag-0 variance). @raise Invalid_argument on short chains or a
    negative lag. *)

val effective_sample_size : float array -> float
(** Single-chain ESS via Geyer's initial positive sequence: sum paired
    autocorrelations until a pair goes non-positive. Between 1 and the
    chain length. @raise Invalid_argument on chains shorter than 4 or
    containing NaN (a NaN would otherwise propagate into a gate
    comparison that silently passes). *)

val rank_normalize : float array array -> float array array
(** Pooled-rank normal-score transform over ≥ 1 chains of equal
    length: every draw is replaced by [Φ⁻¹((r − 3/8) / (S + 1/4))]
    where [r] is its average rank among all [S] pooled draws (ties
    share their average rank). Shape is preserved.
    @raise Invalid_argument on empty input, unequal lengths, or NaN. *)

val split_rhat : float array array -> float
(** Rank-normalized split-R̂ over ≥ 1 chains of equal length ≥ 8:
    each chain is halved (so [m] chains enter the classic R̂ as [2m]),
    the pooled draws are rank-normalized, and the potential scale
    reduction factor is computed on the transformed split chains.
    Values near 1 indicate convergence; [infinity] when the chains are
    individually frozen but disagree (zero within-chain variance with
    nonzero between-chain variance — the old statistic returned 1.0
    there, a convergence verdict for stuck chains).
    @raise Invalid_argument on no chains, unequal lengths, chains
    shorter than 8, or NaN. *)

val ess_rank_normalized : float array array -> float
(** Multi-chain bulk ESS: Geyer's initial-positive-sequence truncation
    on the multi-chain autocorrelation [ρ̂_t = 1 − (W − mean_m s²_m
    ρ_{t,m}) / var⁺] of the rank-normalized split chains, giving
    [m·n / τ]. Between 1 and the total number of draws.
    @raise Invalid_argument on no chains, unequal lengths, chains
    shorter than 8, or NaN. *)

type summary = { ess : float; mean : float; rhat : float }
(** [rhat] is {!split_rhat} of the single chain (its two halves act as
    the ≥ 2 chains), so a single-call user can gate on it directly. *)

val summarize : Mcmc.run -> coordinate:int -> summary
(** ESS, mean and split-R̂ of one coordinate of a run. *)
