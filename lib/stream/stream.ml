(* The static half of the streaming subsystem: parameter parsing and
   pricing. [spec] is a pure function of the declared parameters — no
   data access, no sampling — and it is the ONE place the face charge
   of a stream is computed. The live engine spends exactly [spec.face]
   when a stream opens and `dpkit analyze` pushes exactly [spec.face]
   through its simulated ledger, so the two agree float-bit-for-bit by
   construction (the Train.spec pattern). *)

open Dp_mechanism

type params = {
  epsilon : float;  (* per-level budget *)
  horizon : int;  (* N: declared maximum stream length *)
  window : int;  (* default sliding window; 0 = none declared *)
}

let keys = [ "eps"; "N"; "window" ]

let ( let* ) = Result.bind

let params_of_opts ~default_epsilon opts =
  let* epsilon = Opts.float "eps" ~default:default_epsilon opts in
  let* horizon = Opts.int "N" ~default:1024 opts in
  let* window = Opts.int "window" ~default:0 opts in
  if epsilon <= 0. then Error "eps must be positive"
  else if horizon < 2 || horizon > Counter.max_horizon then
    Error (Printf.sprintf "N must be in [2, %d]" Counter.max_horizon)
  else if window < 0 || window > horizon then
    Error "window must be in [0, N]"
  else Ok { epsilon; horizon; window }

let normalize p =
  Printf.sprintf "stream(N=%d,window=%d,eps=%.12g)" p.horizon p.window p.epsilon

let mechanism_name = "tree"

type spec = {
  params : params;
  levels : int;
  sensitivity : float;  (* one node per level per record *)
  face : Privacy.budget;  (* epsilon * levels, for the whole stream *)
}

let spec p =
  let levels = Counter.levels ~horizon:p.horizon in
  Ok
    {
      params = p;
      levels;
      sensitivity = float_of_int levels;
      face = Privacy.pure (p.epsilon *. float_of_int levels);
    }
