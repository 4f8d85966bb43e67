external now_ns : unit -> int = "dp_clock_monotonic_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) /. 1e9

let elapsed_ns t0 =
  let d = now_ns () - t0 in
  if d > 0 then d else 0
