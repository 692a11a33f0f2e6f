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

(* adorn for the query unless every derived predicate already carries an
   adornment: a name alone can look adorned ([big_c], [p_bf]) *)
let adorn adornment (p : Program.t) =
  if List.for_all (fun (r : Rule.t) -> Adorn.adornment_of r.Rule.head <> None) p.Program.rules
  then p
  else Adorn.program ~query_adornment:adornment p

(* the stages: each runs under its span, and the fixpoints' results go into
   the report *)
let qrp gen ?max_iters (p, report) =
  let res = Obs.span "rewrite.qrp.gen" (fun () -> gen ?max_iters p) in
  let p' = Obs.span "rewrite.qrp.propagate" (fun () -> Qrp.propagate res p) in
  (p', { report with qrp_constraints = Some res })

(* with [adornment], the program is adorned first, inside the span *)
let magic ?adornment ~constraint_magic p =
  Obs.span "rewrite.magic" @@ fun () ->
  let p = match adornment with Some a -> adorn a p | None -> p in
  Magic.templates_bf ~constraint_magic p

let apply_step ?max_iters (p, report) = function
  | Pred ->
      let p', res =
        Obs.span "rewrite.pred_constraints" (fun () ->
            Pred_constraints.gen_prop ?max_iters p)
      in
      (p', { report with pred_constraints = Some res })
  | Qrp -> qrp Qrp.gen ?max_iters (p, report)
  | Magic { adornment; constraint_magic } -> (magic ~adornment ~constraint_magic p, report)
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
  let p2, report = sequence ?max_iters [ Pred; Qrp ] p1 in
  (* delete the auxiliary rules and restore the query predicate's name *)
  let rules =
    List.filter (fun (r : Rule.t) -> r.Rule.head.Literal.pred <> aux) p2.Program.rules
  in
  let primed = Qrp.primed_name q in
  let p4 = Program.make ~query:q rules in
  let p4 =
    if Program.is_derived p4 primed && not (Program.is_derived p4 q) then
      Program.set_query q (Program.rename_predicate ~old_name:primed ~new_name:q p4)
    else if Program.is_derived p4 primed then Program.set_query primed p4
    else p4
  in
  (p4, report)

let optimal ?max_iters ~adornment p =
  let p1, report = constraint_rewrite ?max_iters (adorn adornment p) in
  (magic ~constraint_magic:true p1, report)

let balbin ?max_iters ~adornment p =
  let p1, report = qrp Qrp.gen_syntactic ?max_iters (adorn adornment p, empty_report) in
  (magic ~constraint_magic:true p1, report)
