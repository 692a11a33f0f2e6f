open Cql_constr
open Cql_datalog

module StringMap = Map.Make (String)

type result = { constraints : (string * Cset.t) list; iterations : int; converged : bool }

let find r pred =
  match List.assoc_opt pred r.constraints with Some c -> c | None -> Cset.tt

(* all ways to pick one disjunct per body literal *)
let rec disjunct_choices = function
  | [] -> [ [] ]
  | (lit, cset) :: rest ->
      let tails = disjunct_choices rest in
      List.concat_map
        (fun d -> List.map (fun tail -> (lit, d) :: tail) tails)
        (Cset.disjuncts cset)

let single_step (p : Program.t) (current : string -> Cset.t) : (string * Cset.t) list =
  let acc = ref StringMap.empty in
  let add pred cset =
    let prev = match StringMap.find_opt pred !acc with Some c -> c | None -> Cset.ff in
    acc := StringMap.add pred (Cset.or_ prev cset) !acc
  in
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
            let head_c = Ptol_ltop.ltop_conj r.Rule.head combined in
            add r.Rule.head.Literal.pred (Cset.of_conj head_c))
        (disjunct_choices body_csets))
    p.Program.rules;
  StringMap.bindings !acc

let gen ?(max_iters = 50) ?(edb_constraints = []) (p : Program.t) : result =
  let derived = Program.derived p in
  let lookup_edb name =
    match List.assoc_opt name edb_constraints with Some c -> c | None -> Cset.tt
  in
  let state = ref StringMap.empty in
  List.iter (fun d -> state := StringMap.add d Cset.ff !state) derived;
  let current name =
    match StringMap.find_opt name !state with Some c -> c | None -> lookup_edb name
  in
  let rec iterate i =
    if i > max_iters then (i - 1, false)
    else begin
      let changed =
        Cql_obs.Obs.span "pred.iteration" @@ fun () ->
        Cql_obs.Obs.add_field "iteration" i;
        let inferred = single_step p current in
        let changed = ref false in
        List.iter
          (fun (pred, c2) ->
            let c1 = current pred in
            if not (Cset.implies c2 c1) then begin
              changed := true;
              state := StringMap.add pred (Cset.or_ c1 c2) !state
            end)
          inferred;
        !changed
      in
      if changed then iterate (i + 1) else (i, true)
    end
  in
  let iterations, converged = iterate 1 in
  Cql_obs.Obs.add_field "iterations" iterations;
  Cql_obs.Obs.add_field_str "converged" (string_of_bool converged);
  let constraints =
    if converged then
      StringMap.bindings !state
      @ List.filter (fun (n, _) -> not (StringMap.mem n !state)) edb_constraints
    else
      (* sound fallback: true for every derived predicate (Section 4.2) *)
      List.map (fun d -> (d, Cset.tt)) derived @ edb_constraints
  in
  { constraints; iterations; converged }

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
        | many -> List.mapi (fun i c -> Rule.relabel (Printf.sprintf "%s_%d" r.Rule.label (i + 1)) c) many)
      p.Program.rules
  in
  { p with Program.rules }

let gen_prop ?max_iters p =
  let res = gen ?max_iters p in
  (propagate res p, res)
