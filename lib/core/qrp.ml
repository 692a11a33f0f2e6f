open Cql_constr
open Cql_datalog

module StringMap = Map.Make (String)

type result = { constraints : (string * Cset.t) list; iterations : int; converged : bool }

let find r pred =
  match List.assoc_opt pred r.constraints with Some c -> c | None -> Cset.tt

let literal_constraint ~head_ptol ~rule_cstr (lit : Literal.t) =
  Ptol_ltop.ltop_conj lit (Conj.and_ head_ptol rule_cstr)

(* the Balbin-style inference keeps only syntactically local atoms *)
let literal_constraint_syntactic ~head_ptol ~rule_cstr (lit : Literal.t) =
  let lit_vars = Literal.vars lit in
  let local c =
    Conj.of_list
      (List.filter (fun a -> Var.Set.subset (Atom.vars a) lit_vars) (Conj.to_list c))
  in
  Ptol_ltop.ltop_conj lit (Conj.and_ (local head_ptol) (local rule_cstr))

let gen_with ~literal_constraint ?(max_iters = 50) (p : Program.t) : result =
  let query =
    match p.Program.query with
    | Some q -> q
    | None -> invalid_arg "Qrp.gen: program has no query predicate"
  in
  let derived = Program.derived p in
  let state = ref StringMap.empty in
  List.iter
    (fun d -> state := StringMap.add d (if d = query then Cset.tt else Cset.ff) !state)
    derived;
  let current name =
    match StringMap.find_opt name !state with Some c -> c | None -> Cset.tt
  in
  let step () =
    (* C2: disjunction of LTOPs of literal constraints inferred this pass *)
    let c2 = ref StringMap.empty in
    let add pred c =
      if StringMap.mem pred !state then begin
        let prev = match StringMap.find_opt pred !c2 with Some x -> x | None -> Cset.ff in
        c2 := StringMap.add pred (Cset.or_ prev (Cset.of_conj c)) !c2
      end
    in
    List.iter
      (fun (r : Rule.t) ->
        let head_cset = current r.Rule.head.Literal.pred in
        List.iter
          (fun d ->
            let head_ptol = Ptol_ltop.ptol_conj r.Rule.head d in
            if Conj.is_sat (Conj.and_ head_ptol r.Rule.cstr) then
              List.iter
                (fun (lit : Literal.t) ->
                  add lit.Literal.pred
                    (literal_constraint ~head_ptol ~rule_cstr:r.Rule.cstr lit))
                r.Rule.body)
          (Cset.disjuncts head_cset))
      p.Program.rules;
    !c2
  in
  let rec iterate i =
    if i > max_iters then (i - 1, false)
    else begin
      let changed =
        Cql_obs.Obs.span "qrp.iteration" @@ fun () ->
        Cql_obs.Obs.add_field "iteration" i;
        let c2 = step () in
        let changed = ref false in
        StringMap.iter
          (fun pred c2p ->
            let c1 = current pred in
            if not (Cset.implies c2p c1) then begin
              changed := true;
              state := StringMap.add pred (Cset.or_ c1 c2p) !state
            end)
          c2;
        !changed
      in
      if changed then iterate (i + 1) else (i, true)
    end
  in
  let iterations, converged = iterate 1 in
  Cql_obs.Obs.add_field "iterations" iterations;
  Cql_obs.Obs.add_field_str "converged" (string_of_bool converged);
  let constraints =
    if converged then StringMap.bindings !state
    else List.map (fun d -> (d, Cset.tt)) derived
  in
  { constraints; iterations; converged }

let gen ?max_iters p = gen_with ~literal_constraint ?max_iters p

let gen_syntactic ?max_iters p =
  gen_with ~literal_constraint:literal_constraint_syntactic ?max_iters p

(* keep adorned names parseable: flight_bbff primes to flight'_bbff *)
let primed_name name =
  match Adorn.split_adorned name with
  | Some (base, ad) -> Adorn.adorned_name (base ^ "'") ad
  | None -> name ^ "'"

let propagate (res : result) (p : Program.t) : Program.t =
  let query = p.Program.query in
  let to_prime =
    List.filter
      (fun (pred, cset) ->
        Some pred <> query && (not (Cset.is_tt cset)) && not (Cset.is_ff cset))
      res.constraints
  in
  (* 1+2: definition steps, then unfold the definition of p into the rules
     defining p' *)
  let primed_rules =
    Cql_obs.Obs.span "qrp.unfold" @@ fun () ->
    Cql_obs.Obs.add_field "predicates" (List.length to_prime);
    List.concat_map
      (fun (pred, cset) ->
        let primed = primed_name pred in
        let arity = Program.arity p pred in
        let defs = Foldunfold.definition ~primed ~orig:pred ~arity cset in
        let orig_rules = Program.rules_defining p pred in
        List.concat
          (List.mapi
             (fun j def ->
               (* unfold against one original rule at a time so each
                  resolvent can carry that rule's label *)
               List.concat_map
                 (fun (orig : Rule.t) ->
                   List.map
                     (Rule.relabel
                        (Printf.sprintf "%s'%d" orig.Rule.label (j + 1)))
                     (Foldunfold.unfold_literal ~defs:[ orig ] def (List.hd def.Rule.body)))
                 orig_rules)
             defs))
      to_prime
  in
  (* 3: fold p into p' in every rule (new primed rules and surviving
     original rules alike) *)
  let fold_all (r : Rule.t) =
    List.fold_left
      (fun r (pred, cset) ->
        let primed = primed_name pred in
        match Foldunfold.fold_occurrences ~primed ~orig:pred cset r with
        | Some r' -> r'
        | None -> r (* fold condition failed: keep the unfolded occurrence *))
      r to_prime
  in
  let rules = Array.of_list (p.Program.rules @ primed_rules) in
  let folded = Array.make (Array.length rules) None in
  (* only the rules of predicates the query reaches through folded bodies
     stay, so only those are folded and pay for the fold checks; without a
     query every rule stays *)
  Cql_obs.Obs.span "qrp.fold" (fun () ->
      match query with
      | None -> Array.iteri (fun i r -> folded.(i) <- Some (fold_all r)) rules
      | Some q ->
          let seen = Hashtbl.create 16 in
          let rec reach = function
            | [] -> ()
            | pred :: rest ->
                let next = ref rest in
                Array.iteri
                  (fun i (r : Rule.t) ->
                    if r.Rule.head.Literal.pred = pred then begin
                      let r' = fold_all r in
                      folded.(i) <- Some r';
                      List.iter
                        (fun (l : Literal.t) ->
                          let b = l.Literal.pred in
                          if not (Hashtbl.mem seen b) then begin
                            Hashtbl.add seen b ();
                            next := b :: !next
                          end)
                        r'.Rule.body
                    end)
                  rules;
                reach !next
          in
          Hashtbl.add seen q ();
          reach [ q ]);
  Program.dedup_rules { p with Program.rules = List.filter_map Fun.id (Array.to_list folded) }

let gen_prop ?max_iters p =
  let res = gen ?max_iters p in
  (propagate res p, res)
