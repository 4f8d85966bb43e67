(* Clean F2 case: the release runs only in the [Ok] arm of a helper
   that refuses with [Error] before it charges. The result-aware
   summary of Pay_helper.pay says its [Ok] exits are charged, so the
   flow analysis reports nothing here. Never compiled. *)

let answer ledger (plan : Planner.plan) rng =
  match Pay_helper.pay ledger plan with
  | Error e -> Error e
  | Ok () -> Ok (plan.Planner.run rng)
