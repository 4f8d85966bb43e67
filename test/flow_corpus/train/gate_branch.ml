(* F2 case: the spend dominates the release, but the convergence gate
   runs on only one branch. A lexical scan sees a [check] token before
   [Released] and stays quiet; F2's gate obligation joins the ungated
   path into the release and reports. Never compiled. *)

type outcome = Released of { theta : float array } | Withheld

let release ledger face chains strict =
  Ledger.spend ledger face;
  if strict then ignore (Gates.check ~rhat_max:1.01 ~ess_min:400. chains);
  Released { theta = chains.(0) }
