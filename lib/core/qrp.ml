open Cql_constr
open Cql_datalog

type result = Fixpoint.result = {
  constraints : (string * Cset.t) list;
  iterations : int;
  converged : bool;
}

let find = Fixpoint.find

(* Proposition 4.1: the projection of the head constraint (already PTOL'd)
   and the rule's constraints onto the literal, converted by LTOP *)
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

let gen_with ~literal_constraint ?max_iters (p : Program.t) : result =
  let query =
    match p.Program.query with
    | Some q -> q
    | None -> invalid_arg "Qrp.gen: program has no query predicate"
  in
  let derived = Program.derived p in
  (* one pass: the literal constraints of every derived body literal under
     each disjunct of its head's current constraint (a database predicate
     gets none, so its projection is not computed) *)
  let step current infer =
    List.iter
      (fun (r : Rule.t) ->
        List.iter
          (fun d ->
            let head_ptol = Ptol_ltop.ptol_conj r.Rule.head d in
            if Conj.is_sat (Conj.and_ head_ptol r.Rule.cstr) then
              List.iter
                (fun (lit : Literal.t) ->
                  if List.mem lit.Literal.pred derived then
                    infer lit.Literal.pred
                      (literal_constraint ~head_ptol ~rule_cstr:r.Rule.cstr lit))
                r.Rule.body)
          (Cset.disjuncts (current r.Rule.head.Literal.pred)))
      p.Program.rules
  in
  Fixpoint.run ~span:"qrp.iteration" ?max_iters
    ~seed:(List.map (fun d -> (d, if d = query then Cset.tt else Cset.ff)) derived)
    step

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
                     (Rule.relabel (Rule.copy_label orig (Printf.sprintf "'%d" (j + 1))))
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
