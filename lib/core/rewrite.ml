open Cql_datalog
module Obs = Cql_obs.Obs

type step =
  | Pred
  | Qrp
  | Magic of { adornment : string; constraint_magic : bool }
  | Magic_complete

type report = {
  pred_constraints : Pred_constraints.result option;
  qrp_constraints : Qrp.result option;
}

let empty_report = { pred_constraints = None; qrp_constraints = None }

let is_adorned (p : Program.t) =
  match p.Program.query with
  | Some q -> Adorn.split_adorned q <> None
  | None -> false

let apply_step ?max_iters (p, report) = function
  | Pred ->
      let p', res =
        Obs.span "rewrite.pred_constraints" (fun () ->
            Pred_constraints.gen_prop ?max_iters p)
      in
      (p', { report with pred_constraints = Some res })
  | Qrp ->
      let res = Obs.span "rewrite.qrp.gen" (fun () -> Qrp.gen ?max_iters p) in
      let p' = Obs.span "rewrite.qrp.propagate" (fun () -> Qrp.propagate res p) in
      (p', { report with qrp_constraints = Some res })
  | Magic { adornment; constraint_magic } ->
      Obs.span "rewrite.magic" (fun () ->
          let adorned =
            if is_adorned p then p else Adorn.program ~query_adornment:adornment p
          in
          (Magic.templates_bf ~constraint_magic adorned, report))
  | Magic_complete ->
      Obs.span "rewrite.magic_complete" (fun () -> (Magic.templates_complete p, report))

let sequence ?max_iters steps p = List.fold_left (apply_step ?max_iters) (p, empty_report) steps

let constraint_rewrite ?max_iters (p : Program.t) =
  Obs.span "rewrite.constraint_rewrite" @@ fun () ->
  let q =
    match p.Program.query with
    | Some q -> q
    | None -> invalid_arg "Rewrite.constraint_rewrite: no query predicate"
  in
  Obs.add_field "rules" (List.length p.Program.rules);
  (* auxiliary query rule q1(X̄) :- q(X̄) so that q itself gets a QRP
     constraint inferred from its uses (Section 4.5) *)
  let aux_body = Literal.fresh_args q (Program.arity p q) in
  let p1, aux = Program.with_query_rule p [ aux_body ] Cql_constr.Conj.tt in
  let p2, pres =
    Obs.span "rewrite.pred_constraints" (fun () ->
        Pred_constraints.gen_prop ?max_iters p1)
  in
  let qres = Obs.span "rewrite.qrp.gen" (fun () -> Qrp.gen ?max_iters p2) in
  let p3 = Obs.span "rewrite.qrp.propagate" (fun () -> Qrp.propagate qres p2) in
  (* delete the auxiliary rules and restore the query predicate's name *)
  let rules =
    List.filter (fun (r : Rule.t) -> r.Rule.head.Literal.pred <> aux) p3.Program.rules
  in
  let primed = Qrp.primed_name q in
  let p4 = Program.make ~query:q rules in
  let p4 =
    if Program.is_derived p4 primed && not (Program.is_derived p4 q) then
      Program.set_query q (Program.rename_predicate ~old_name:primed ~new_name:q p4)
    else if Program.is_derived p4 primed then Program.set_query primed p4
    else p4
  in
  (p4, { pred_constraints = Some pres; qrp_constraints = Some qres })

let optimal ?max_iters ~adornment p =
  let adorned = if is_adorned p then p else Adorn.program ~query_adornment:adornment p in
  let p1, report = constraint_rewrite ?max_iters adorned in
  (Obs.span "rewrite.magic" (fun () -> Magic.templates_bf ~constraint_magic:true p1), report)

let balbin ?max_iters ~adornment p =
  let adorned = if is_adorned p then p else Adorn.program ~query_adornment:adornment p in
  let res = Obs.span "rewrite.qrp.gen" (fun () -> Qrp.gen_syntactic ?max_iters adorned) in
  let p1 = Obs.span "rewrite.qrp.propagate" (fun () -> Qrp.propagate res adorned) in
  let p2 = Obs.span "rewrite.magic" (fun () -> Magic.templates_bf ~constraint_magic:true p1) in
  (p2, { empty_report with qrp_constraints = Some res })
