(* Seeded violation for F2's gate obligation (the retired lexical R8): a
   Released model constructed with no convergence verdict. Never compiled. *)

type outcome =
  | Released of { theta : float array }
  | Withheld of { reason : string }

let sneak_release chains =
  let theta = chains.(0).(Array.length chains.(0) - 1) in
  Released { theta }
