(* F2 result-aware cases (helper half). [pay] refuses with [Error]
   before it spends and returns [Ok] only after paying, so the [Ok] arm
   of a match on its result is charged. [pay_or_skip] also returns
   [Ok] on a path that never spends: its callers' [Ok] arms are not
   charged. Never compiled. *)

let pay ledger (plan : Planner.plan) =
  if Ledger.exhausted ledger then Error "budget exhausted"
  else begin
    Ledger.spend ledger plan.eps;
    Ok ()
  end

let pay_or_skip ledger (plan : Planner.plan) audited =
  if audited then begin
    Ledger.spend ledger plan.eps;
    Ok ()
  end
  else Ok ()

(* [pay_or_raise] wraps its choice in a [try]. The body returns [Ok] on
   a path that never spends; the handler's [Error] does not cover it. *)
let pay_or_raise ledger (plan : Planner.plan) audited =
  try
    if audited then Ok ()
    else begin
      Ledger.spend ledger plan.eps;
      Ok ()
    end
  with Not_found -> Error "no ledger"
