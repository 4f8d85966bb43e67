(* F2: charge-before-release, and gate-before-release for models.

   A release site is an application of a planner's [.run] closure or a
   construction of a [Released] outcome. On every path from an entry
   point to a release site, a charge (Ledger.spend, a replayed or
   journaled charge, a grant-WAL lease, or a deterministic-gate proof)
   must already have executed; a [Released] must also be dominated by a
   convergence gate (Gates.check or Gates.deterministic). The walk threads the pair of
   facts (charged, gated) left-to-right through each definition;
   branches join by AND over the arms that can fall through (a
   diverging arm — failwith, raise — does not weaken the join).

   Function summaries record which facts a callee establishes on every
   fall-through path, which facts it establishes on every exit that is
   not a syntactic [Error _], and the release sites it reaches while a
   fact is still missing. The [Ok] arms of a [match] start from the
   second set, so a helper that refuses with [Error] before it pays and
   returns [Ok] only after paying is a charge for its caller's [Ok]
   arm. Release obligations surface at each call site minus the facts
   the caller already holds, so the check is interprocedural: a helper
   that fires [plan.run] is flagged from whichever entry reaches it
   without paying first. *)

type facts = { charged : bool; gated : bool }

let no_facts = { charged = false; gated = false }
let all_facts = { charged = true; gated = true }

let meet a b = { charged = a.charged && b.charged; gated = a.gated && b.gated }
let union a b = { charged = a.charged || b.charged; gated = a.gated || b.gated }

(* a release site's unmet obligations: the facts it still needs *)
type need = facts

let missing (st : facts) ~gate : need =
  { charged = not st.charged; gated = gate && not st.gated }

let discharge (n : need) (st : facts) : need =
  { charged = n.charged && not st.charged; gated = n.gated && not st.gated }

let unmet (n : need) = n.charged || n.gated

type release = {
  site : Location.t;
  steps : Dp_lint.Report.step list;  (** chain from the definition's entry *)
  need : need;
  scoped : bool;
      (** the site or a call on its chain lies in {!Spec.f2_scope_segs};
          the steps that explain a missing fact do not count *)
}

type summary = {
  est : facts;  (** established on every fall-through path *)
  ok : facts;  (** established on every exit that is not [Error _] *)
  ok_leak : Dp_lint.Report.step list;
      (** witness to an exit that lacks a fact of [ok] *)
  releases : release list;  (** sites reachable with an unmet need *)
}

let empty_summary =
  { est = no_facts; ok = no_facts; ok_leak = []; releases = [] }

let shape s =
  ( s.est,
    s.ok,
    List.sort compare (List.map (fun r -> (r.site, r.need)) s.releases) )

(* one site, one entry: a second path to it widens its need *)
let add_release rs r =
  match List.partition (fun r' -> r'.site = r.site) rs with
  | [], _ -> r :: rs
  | r' :: _, rest ->
      { r' with need = union r'.need r.need; scoped = r'.scoped || r.scoped }
      :: rest

let in_scope (s : Dp_lint.Report.step) =
  let segs = String.split_on_char '/' s.s_file in
  List.exists (fun seg -> List.mem seg segs) Spec.f2_scope_segs

let last_of_lid lid =
  match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""

let is_release_apply (f : Parsetree.expression) =
  match f.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> last_of_lid txt = Spec.release_field
  | _ -> false

let rec is_ok_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> last_of_lid txt = "Ok"
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_ok_pattern p
  | _ -> false

type ctx = {
  graph : Graph.t;
  summaries : (string, summary) Hashtbl.t;
  mutable acc : release list;  (** releases of the def being walked *)
  mutable prefix : Dp_lint.Report.step list;
      (** why the current [Ok] arm lacks a fact: prepended to its
          releases' witnesses *)
}

let summary ctx (d : Graph.def) =
  Option.value ~default:empty_summary (Hashtbl.find_opt ctx.summaries d.id)

(* The result of walking an expression: the facts after it, whether it
   diverges, and the facts on its value when that value is not a
   syntactic [Error _] (with a witness when one is missing). *)
type res = {
  st : facts;
  div : bool;
  ok : facts;
  leak : Dp_lint.Report.step list;
}

let diverged st = { st; div = true; ok = all_facts; leak = [] }

(* a value whose exit is not worth a witness step: an opaque call's *)
let opaque st = { st; div = false; ok = st; leak = [] }

(* a plain value: its exit carries the facts of the path *)
let value (d : Graph.def) (e : Parsetree.expression) st =
  let leak =
    if st.charged && st.gated then []
    else
      [
        Graph.step d e.pexp_loc
          ~what:
            (Printf.sprintf "non-Error exit with no %s in %s"
               (if st.charged then "gate" else "charge")
               d.id);
      ]
  in
  { st; div = false; ok = st; leak }

let record ctx (d : Graph.def) loc need what =
  if unmet need then
    let step = Graph.step d loc ~what in
    ctx.acc <-
      add_release ctx.acc
        { site = loc; steps = ctx.prefix @ [ step ]; need; scoped = in_scope step }

let with_prefix ctx extra f =
  let saved = ctx.prefix in
  ctx.prefix <- saved @ extra;
  let r = f () in
  ctx.prefix <- saved;
  r

let rec walk ctx (d : Graph.def) st (e : Parsetree.expression) : res =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
        [ (_, arg); (_, f) ] ) ->
      let r = walk ctx d st arg in
      if r.div then r else apply ctx d r.st e f [ arg ] ~walk_args:false
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ },
        [ (_, f); (_, arg) ] ) ->
      apply ctx d st e f [ arg ] ~walk_args:true
  | Pexp_apply (f, args) ->
      apply ctx d st e f (List.map snd args) ~walk_args:true
  | Pexp_construct ({ txt; _ }, arg)
    when last_of_lid txt = Spec.release_construct ->
      let r = seq ctx d st (Option.to_list arg) in
      if r.div then r
      else begin
        record ctx d loc (missing r.st ~gate:true)
          (Printf.sprintf "%s constructed in %s" Spec.release_construct d.id);
        value d e r.st
      end
  | Pexp_construct ({ txt; _ }, arg) when last_of_lid txt = "Error" ->
      (* a refusal: it does not count against the Ok exits *)
      let r = seq ctx d st (Option.to_list arg) in
      if r.div then r else { r with ok = all_facts; leak = [] }
  | Pexp_let (_, vbs, body) ->
      let r =
        seq ctx d st
          (List.map (fun (vb : Parsetree.value_binding) -> vb.pvb_expr) vbs)
      in
      if r.div then r else walk ctx d r.st body
  | Pexp_sequence (a, b) ->
      let r = walk ctx d st a in
      if r.div then r else walk ctx d r.st b
  | Pexp_ifthenelse (c, a, b) -> (
      let r = walk ctx d st c in
      if r.div then r
      else
        match b with
        | None ->
            (* no else branch falls through with the condition's facts *)
            ignore (walk ctx d r.st a);
            value d e r.st
        | Some b -> join [ walk ctx d r.st a; walk ctx d r.st b ])
  | Pexp_match (scrut, cases) ->
      let r = walk ctx d st scrut in
      if r.div then r
      else
        join
          (List.map
             (fun (c : Parsetree.case) ->
               let st, why =
                 if not (is_ok_pattern c.pc_lhs) then (r.st, [])
                 else
                   ( r.ok,
                     match scrut.pexp_desc with
                     | Pexp_apply _ -> r.leak
                     | _ -> [] )
               in
               with_prefix ctx why (fun () -> arm ctx d st c))
             cases)
  | Pexp_try (body, cases) ->
      (* an exception can leave the body before any of its facts hold:
         the handlers start from the facts on entry, and the body's own
         value joins theirs *)
      join (walk ctx d st body :: List.map (arm ctx d st) cases)
  | Pexp_letop { let_; ands; body } ->
      let r =
        seq ctx d st
          (List.map (fun (b : Parsetree.binding_op) -> b.pbop_exp) (let_ :: ands))
      in
      if r.div then r else walk ctx d r.st body
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
      (* the closure's body executes when called; analyze it in the
         same charge context (planner closures are built and run
         within one request) *)
      walk ctx d st body
  | Pexp_function cases -> join (List.map (arm ctx d st) cases)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_lazy e ->
      walk ctx d st e
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
      walk ctx d st body
  | Pexp_record (fields, base) ->
      let r = seq ctx d st (Option.to_list base @ List.map snd fields) in
      if r.div then r else value d e r.st
  | Pexp_tuple es | Pexp_array es ->
      let r = seq ctx d st es in
      if r.div then r else value d e r.st
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      let r = seq ctx d st (Option.to_list arg) in
      if r.div then r else value d e r.st
  | Pexp_field (x, _) ->
      let r = walk ctx d st x in
      if r.div then r else value d e r.st
  | Pexp_setfield (a, _, b) ->
      let r = seq ctx d st [ a; b ] in
      if r.div then r else value d e r.st
  | Pexp_while (c, body) ->
      ignore (walk ctx d st c);
      ignore (walk ctx d st body);
      value d e st
  | Pexp_for (_, lo, hi, _, body) ->
      ignore (seq ctx d st [ lo; hi ]);
      ignore (walk ctx d st body);
      value d e st
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      diverged st
  | Pexp_assert a ->
      ignore (walk ctx d st a);
      value d e st
  | _ -> value d e st

and arm ctx d st (c : Parsetree.case) =
  Option.iter (fun g -> ignore (walk ctx d st g)) c.pc_guard;
  walk ctx d st c.pc_rhs

and seq ctx d st exprs =
  List.fold_left
    (fun r e -> if r.div then r else walk ctx d r.st e)
    (opaque st) exprs

(* AND-join over fall-through arms: a fact holds only if every arm that
   can fall through establishes it; all-diverging means we diverge
   too *)
and join results =
  match List.filter (fun r -> not r.div) results with
  | [] -> diverged no_facts
  | falling ->
      let st = List.fold_left (fun a r -> meet a r.st) all_facts falling in
      let ok = List.fold_left (fun a r -> meet a r.ok) all_facts falling in
      (* witness the missing charge first, then a missing gate *)
      let lacks r =
        if ok.charged then (not ok.gated) && not r.ok.gated
        else not r.ok.charged
      in
      let leak =
        match List.find_opt lacks falling with Some r -> r.leak | None -> []
      in
      { st; div = false; ok; leak }

and apply ctx d st e f args ~walk_args =
  let loc = e.pexp_loc in
  let r =
    if not walk_args then opaque st
    else
      let rf =
        match f.pexp_desc with
        | Pexp_ident _ -> opaque st
        | _ -> walk ctx d st f
      in
      if rf.div then rf else seq ctx d rf.st args
  in
  if r.div then r
  else
    let st = r.st in
    if is_release_apply f then begin
      record ctx d loc (missing st ~gate:false)
        (Printf.sprintf "planner .%s fired in %s" Spec.release_field d.id);
      value d e st
    end
    else
      match f.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          let resolved = Graph.resolve ctx.graph ~current:d.file txt in
          let key = Graph.key resolved in
          let charges = List.mem key Spec.chargers
          and gates = List.mem key Spec.gates in
          if charges || gates then
            value d e
              { charged = st.charged || charges; gated = st.gated || gates }
          else if List.mem key Spec.diverging then diverged st
          else
            match resolved with
            | Graph.Def callee when callee.id <> d.id ->
                let s = summary ctx callee in
                let call_step =
                  Graph.step d loc
                    ~what:(Printf.sprintf "call to %s in %s" callee.id d.id)
                in
                List.iter
                  (fun rel ->
                    let need = discharge rel.need st in
                    if unmet need then
                      ctx.acc <-
                        add_release ctx.acc
                          {
                            rel with
                            steps = ctx.prefix @ (call_step :: rel.steps);
                            need;
                            scoped = rel.scoped || in_scope call_step;
                          })
                  s.releases;
                let st = union st s.est in
                let ok = union st s.ok in
                let leak =
                  if ok.charged && ok.gated then [] else call_step :: s.ok_leak
                in
                { st; div = false; ok; leak }
            | _ -> opaque st)
      | _ -> opaque st

let analyze_def ctx (d : Graph.def) =
  ctx.acc <- [];
  ctx.prefix <- [];
  let r = walk ctx d no_facts d.body in
  (* a callee that always diverges vouches for nothing *)
  let ok = if r.div then r.st else r.ok in
  { est = r.st; ok; ok_leak = r.leak; releases = ctx.acc }

let message (n : need) entry =
  match (n.charged, n.gated) with
  | true, true ->
      Printf.sprintf
        "model released without a dominating convergence gate \
         (Gates.check / Gates.deterministic) or ledger charge (ungated, \
         uncharged path from %s)"
        entry
  | false, true ->
      Printf.sprintf
        "model released without a dominating convergence gate \
         (Gates.check / Gates.deterministic) (ungated path from %s)"
        entry
  | _ ->
      Printf.sprintf
        "answer released without a dominating ledger charge (uncharged \
         path from %s)"
        entry

let findings graph =
  let ctx =
    {
      graph;
      summaries = Hashtbl.create 256;
      acc = [];
      prefix = [];
    }
  in
  let defs = Graph.defs graph in
  let changed = ref true and iters = ref 0 in
  while !changed && !iters < 30 do
    changed := false;
    incr iters;
    List.iter
      (fun d ->
        let s' = analyze_def ctx d in
        let s = summary ctx d in
        if shape s <> shape s' then changed := true;
        Hashtbl.replace ctx.summaries d.Graph.id s')
      defs
  done;
  (* findings: release sites reachable with an unmet need from an
     entry — a def nothing in the analyzed set calls *)
  let entries = List.filter (fun d -> Graph.callers graph d = []) defs in
  List.concat_map
    (fun (d : Graph.def) ->
      List.filter_map
        (fun rel ->
          if not rel.scoped then None
          else
            let line, col = Graph.line_col rel.site in
            let file =
              if rel.site.loc_start.pos_fname <> "" then
                rel.site.loc_start.pos_fname
              else d.file.path
            in
            Some
              {
                Dp_lint.Report.rule = "F2";
                file;
                line;
                col;
                message = message rel.need d.id;
                witness = rel.steps;
              })
        (summary ctx d).releases)
    entries
