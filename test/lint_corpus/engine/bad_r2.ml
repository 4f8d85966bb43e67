(* Seeded violation for F2 (the retired lexical R2): the release closure
   runs before any ledger spend or journal append. Never compiled. *)

let serve_uncharged (plan : Planner.plan) rng =
  let answer = plan.Planner.run rng in
  answer
