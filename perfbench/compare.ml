(* [--compare PARENT CHANGE]: the before/after verdict of one change.

   Each file collects the output of runs; the report lines in it (one
   per run, every metric of the run) are read and the rest is skipped.
   The parent's and the change's runs are taken in alternating pairs:
   the i-th run of a workload in PARENT pairs with the i-th run of that
   workload in CHANGE. For each
   workload and metric the verdict follows section 8 of the
   choosing-metrics method:

   - improved: at least ten pairs, the change wins at least nine tenths
     of them (ties count for neither), and the medians differ by more
     than the parent's own interquartile distance;
   - unresolved: the parent's spread (interquartile distance over
     median) is wider than the metric's bound, unless every change run
     reads better than every parent run;
   - no worse: the change's median is within the bound of the
     parent's;
   - worse: otherwise. *)

exception Bad_report of string

(* One report line: [report workload=W seed=N name=value ...]. Returns
   the workload and the metrics in line order. *)
let parse_report line =
  match Reply.words line with
  | "report" :: toks -> (
      let kv =
        List.map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i -> (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
            | None -> raise (Bad_report ("no = in " ^ tok)))
          toks
      in
      match List.assoc_opt "workload" kv with
      | None -> raise (Bad_report ("no workload= in " ^ line))
      | Some w ->
          ( w,
            List.filter_map
              (fun (k, v) ->
                if k = "workload" || k = "seed" then None
                else
                  match float_of_string_opt v with
                  | Some f -> Some (k, f)
                  | None -> raise (Bad_report (Printf.sprintf "bad %s=%s" k v)))
              kv ))
  | _ -> raise (Bad_report ("not a report line: " ^ line))

(* The report lines of a file: every line that starts with [report ].
   Returns the workloads in order of appearance and, for each, its
   runs' (metric, value) lists in file order. *)
let load path =
  let ic = open_in path in
  let runs = Hashtbl.create 8 in
  let order = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if String.starts_with ~prefix:"report " line then begin
            let w, m = parse_report line in
            if not (Hashtbl.mem runs w) then order := w :: !order;
            Hashtbl.replace runs w
              (m :: Option.value ~default:[] (Hashtbl.find_opt runs w))
          end
        done
      with End_of_file -> ());
  (List.rev !order, fun w -> List.rev (Option.value ~default:[] (Hashtbl.find_opt runs w)))

type verdict = Improved | No_worse | Unresolved | Worse

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Unresolved -> "unresolved"
  | Worse -> "worse"

(* [better a b]: a reads better than b *)
let verdict ~(better : Catalog.better) ~bound parent change =
  let better_than a b =
    match better with Catalog.Lower -> a < b | Catalog.Higher -> a > b
  in
  let n = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    if better_than change.(i) parent.(i) then incr wins
  done;
  let mp = Stats.median parent and mc = Stats.median change in
  let iqr a =
    if Array.length a < 2 then infinity
    else
      let q = Stats.quartiles a in
      q.(2) -. q.(0)
  in
  let win_share = if n = 0 then 0. else float !wins /. float n in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better_than c p) parent) change
  in
  (* shares of the parent's median; a median of 0 (a count that never
     fired) makes any change infinite and no change 0 *)
  let share x = if x = 0. then 0. else x /. Float.abs mp in
  let worse_by =
    match better with
    | Catalog.Lower -> share (mc -. mp)
    | Catalog.Higher -> share (mp -. mc)
  in
  let v =
    if n >= 10 && win_share >= 0.9 && Float.abs (mc -. mp) > iqr parent then Improved
    else if share (iqr parent) > bound && not all_better then Unresolved
    else if worse_by <= bound then No_worse
    else Worse
  in
  (v, win_share, n)

let quart a =
  if Array.length a < 2 then (nan, Stats.median a, nan)
  else
    let q = Stats.quartiles a in
    (q.(0), q.(1), q.(2))

let run parent_path change_path =
  let order, parent = load parent_path in
  let _, change = load change_path in
  Printf.printf "%-8s %-28s %-32s %-32s %6s  %s\n" "workload" "metric"
    "parent q1/median/q3" "change q1/median/q3" "wins" "verdict";
  List.iter
    (fun w ->
      let ps = parent w and cs = change w in
      let names = match ps with m :: _ -> List.map fst m | [] -> [] in
      List.iter
        (fun name ->
          let col runs =
            Array.of_list (List.filter_map (fun m -> List.assoc_opt name m) runs)
          in
          let p = col ps and c = col cs in
          if Array.length p > 0 && Array.length c > 0 then begin
            let better, bound =
              match Catalog.find name with
              | Some m -> (m.Catalog.better, m.Catalog.bound)
              | None -> (Catalog.Lower, 0.)
            in
            let v, share, n = verdict ~better ~bound p c in
            let p1, p2, p3 = quart p and c1, c2, c3 = quart c in
            Printf.printf "%-8s %-28s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %5.0f%%  %s (%d pairs%s)\n"
              w name p1 p2 p3 c1 c2 c3 (100. *. share) (verdict_name v) n
              (if bound > 0. then Printf.sprintf ", bound %.0f%%" (100. *. bound)
               else ", no bound")
          end)
        names)
    order
