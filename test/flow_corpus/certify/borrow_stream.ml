(* F3 cases: the certification harness drawing on a stream it did not
   split from its own seed — aliasing one with Prng.copy, or reading
   the engine's privacy stream out of its [.rng] field. An audit that
   shares the privacy stream it is testing certifies nothing. Never
   compiled. *)

let shadow_stream engine_stream =
  let g = Dp_rng.Prng.copy engine_stream in
  Certify.collect ~trials:1000 source g

let borrow_stream eng =
  let g = eng.Engine.rng in
  Certify.collect ~trials:1000 source g
