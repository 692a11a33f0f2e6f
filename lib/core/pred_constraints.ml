open Cql_constr
open Cql_datalog

type result = Fixpoint.result = {
  constraints : (string * Cset.t) list;
  iterations : int;
  converged : bool;
}

let find = Fixpoint.find

(* all ways to pick one disjunct per body literal *)
let rec disjunct_choices = function
  | [] -> [ [] ]
  | (lit, cset) :: rest ->
      let tails = disjunct_choices rest in
      List.concat_map
        (fun d -> List.map (fun tail -> (lit, d) :: tail) tails)
        (Cset.disjuncts cset)

(* Single_step of Appendix C *)
let single_step (p : Program.t) current infer =
  List.iter
    (fun (r : Rule.t) ->
      let body_csets = List.map (fun (l : Literal.t) -> (l, current l.Literal.pred)) r.Rule.body in
      List.iter
        (fun choice ->
          let combined =
            List.fold_left
              (fun c (lit, d) -> Conj.and_ c (Ptol_ltop.ptol_conj lit d))
              r.Rule.cstr choice
          in
          if Conj.is_sat combined then
            infer r.Rule.head.Literal.pred (Ptol_ltop.ltop_conj r.Rule.head combined))
        (disjunct_choices body_csets))
    p.Program.rules

let gen ?max_iters (p : Program.t) : result =
  Fixpoint.run ~span:"pred.iteration" ?max_iters
    ~seed:(List.map (fun d -> (d, Cset.ff)) (Program.derived p))
    (single_step p)

let propagate (res : result) (p : Program.t) : Program.t =
  let rules =
    List.concat_map
      (fun (r : Rule.t) ->
        let body_csets =
          List.map (fun (l : Literal.t) -> (l, find res l.Literal.pred)) r.Rule.body
        in
        let copies =
          List.filter_map
            (fun choice ->
              let extra =
                List.fold_left
                  (fun c (lit, d) -> Conj.and_ c (Ptol_ltop.ptol_conj lit d))
                  Conj.tt choice
              in
              let cstr = Conj.and_ r.Rule.cstr extra in
              if Conj.is_sat cstr then Some { r with Rule.cstr } else None)
            (disjunct_choices body_csets)
        in
        match copies with
        | [] ->
            (* a rule whose body constraints became unsatisfiable derives
               nothing; drop it *)
            []
        | [ only ] -> [ only ]
        | many ->
            List.mapi
              (fun i c -> Rule.relabel (Rule.copy_label r (Printf.sprintf "_%d" (i + 1))) c)
              many)
      p.Program.rules
  in
  { p with Program.rules }

let gen_prop ?max_iters p =
  let res = gen ?max_iters p in
  (propagate res p, res)
