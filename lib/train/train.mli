(** The served-learning query class: private ERM as a query.

    A [train] request names a registered dataset, a label column and a
    backend, and asks for one private model release. The module is
    split exactly like {!Dp_engine.Planner}: {!spec} is purely static —
    it prices the request from the schema (row count and column names)
    alone, which is what lets [dpkit analyze] cost a training workload
    bit-identically to a live run — and {!run} executes the chains on
    the actual data.

    Backends:
    - [Gibbs] — the paper's mechanism (Theorem 4.1): [chains]
      independent MCMC chains targeting the Gibbs posterior
      [∝ exp(−β·R̂_clip(θ))] on the L2 ball, [β = ε·n/(2·range)] so one
      posterior draw is ε-DP; releasing the draw after charging all
      chains (each chain is one draw's worth of posterior access, so
      the face charge is [chains·ε]) and gating on {!Gates.check}.
    - [Objpert] — Chaudhuri–Monteleoni–Sarwate objective perturbation:
      deterministic convex optimization of a perturbed objective,
      ε-DP at face [ε], no chain and hence a vacuous gate.

    The learning task is fixed by construction: binary classification
    with logistic loss, label [+1] iff the target column's value
    exceeds the midpoint of its public [lo, hi] bounds, features the
    remaining columns affinely scaled into [−1,1] from their public
    bounds and L2-clipped to the unit ball. Everything about the task
    except the row values is public, so the privacy cost is a property
    of the request alone. *)

type backend = Gibbs | Objpert

val backend_name : backend -> string
(** ["gibbs"] / ["objective-perturbation"] — audit-log mechanism ids. *)

type params = {
  backend : backend;
  epsilon : float;  (** per-chain (Gibbs) / per-release (Objpert) face ε *)
  chains : int;  (** ≥ 2 for Gibbs (the gate needs disagreement to see);
                     exactly 1 for Objpert *)
  steps : int;  (** retained draws per chain, ≥ 8 *)
  burn_in : int;
  step_std : float;  (** random-walk proposal std *)
  lambda : float;  (** ridge strength (Objpert only) *)
  target : string;  (** label column *)
  rhat_max : float;
  ess_min : float;
}

val keys : string list
(** Wire option keys accepted by {!params_of_opts} — shared by the
    serve protocol's [train] command and the analyzer's workload
    grammar. *)

val params_of_opts :
  default_epsilon:float ->
  Dp_mechanism.Opts.t ->
  (params, string) result
(** Build and validate params from parsed [key=value] options
    (unknown keys are the caller's concern; defaults:
    [backend=gibbs chains=2 steps=400 burn=400 step-std=0.25
    lambda=0.1 target=score rhat-max=1.1 ess-min=20]). The error is a
    plain message without wire-format prefix. *)

val normalize : params -> string
(** Canonical request text — the journal/audit-log query label. *)

type spec = {
  params : params;
  beta : float;  (** Gibbs inverse temperature; [0.] for Objpert *)
  sensitivity : float;
      (** ΔR̂ = range/n (Gibbs) or the minimizer's L2 sensitivity
          2L/(nλ) (Objpert) — display metadata, not a pricing input *)
  face : Dp_mechanism.Privacy.budget;
      (** the ledger ask: [chains·ε] (Gibbs) or [ε] (Objpert), pure *)
  features : string list;  (** feature columns, schema order *)
}

val spec : rows:int -> cols:string list -> params -> (spec, string) result
(** Static pricing from public schema facts only: no data access, no
    sampling. [Error] on an unknown target column or a schema with no
    feature column left over. The analyzer and the live engine both
    call this, so their charges are bit-identical by construction. *)

type design = {
  data : Dp_dataset.Dataset.t;  (** scaled, clipped, labelled *)
  features : (string * float * float) array;  (** name, lo, hi — the
      public scaling facts a recovered model needs to predict *)
}

val design :
  columns:(string * float * float * float array) array ->
  target:string ->
  (design, string) result
(** Build the training set from raw registered columns
    [(name, lo, hi, values)]. *)

val public_facts : design -> (string * float * float) array
(** The design's public projection — column names and policy bounds,
    nothing derived from values. Declared as a dataflow sanitizer so
    the flow analyzer knows this read leaves the rows behind. *)

val scale_point :
  features:(string * float * float) array ->
  float array ->
  (float array, string) result
(** Apply the training-time feature transform (per-column affine map
    into [−1,1] from the public bounds, then unit-L2 clip) to one raw
    point — prediction must see exactly the geometry training saw.
    [Error] on a dimension mismatch. *)

type outcome =
  | Released of {
      theta : float array;
      report : Gates.report;
      acceptance : float;  (** mean MCMC acceptance rate; 1.0 for Objpert *)
    }
  | Withheld of { report : Gates.report; acceptance : float }
      (** the gate failed: the charge stands (the data pass happened)
          but no sample leaves — an unconverged draw is a biased
          posterior sample, not the priced mechanism *)

val run :
  ?gate_hook:((unit -> Gates.report) -> Gates.report) ->
  spec ->
  design ->
  Dp_rng.Prng.t ->
  outcome
(** Execute the training request: for Gibbs, [chains] MCMC chains
    seeded sequentially from [g] (the privacy noise stream) with
    overdispersed initial points, gated by {!Gates.check} over all
    retained draws; the released θ is the final retained draw of the
    first chain. For Objpert, one optimizer run gated by
    {!Gates.deterministic}. [gate_hook] (default: apply) wraps the
    gate computation so the engine can time and trace it without this
    library depending on observability. *)

val predict_margin : theta:float array -> float array -> float
(** [θ·x̃] on an already-scaled point — the released model's output;
    pure post-processing of the released θ. *)
