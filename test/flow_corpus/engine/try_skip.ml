(* F2 case: the helper's [try] body returns [Ok] on a path that never
   spends, and its only handler refuses with [Error]. The body's own
   exits count as the helper's, so this [Ok] arm is not charged. Never
   compiled. *)

let answer ledger (plan : Planner.plan) rng audited =
  match Pay_helper.pay_or_raise ledger plan audited with
  | Error e -> Error e
  | Ok () -> Ok (plan.Planner.run rng)
