(* F2 case: the release runs in the [Ok] arm of a helper, but the
   helper returns [Ok] on a path that never spends. The witness runs
   through the helper's uncharged exit. Never compiled. *)

let answer ledger (plan : Planner.plan) rng audited =
  match Pay_helper.pay_or_skip ledger plan audited with
  | Error e -> Error e
  | Ok () -> Ok (plan.Planner.run rng)
