open Cql_num
open Cql_constr
open Cql_datalog
open Cql_eval
module F = Fact
module Rw = Cql_core.Rewrite
module Qrp = Cql_core.Qrp
module Foldunfold = Cql_core.Foldunfold
module Pred_constraints = Cql_core.Pred_constraints
module Decidable = Cql_core.Decidable
module Adorn = Cql_core.Adorn
module Gmt = Cql_core.Gmt

type oracle =
  | Answers
  | Indexing
  | Solver
  | Monotone
  | Bound
  | Cache
  | Update
  | Relaxation

let oracle_name = function
  | Answers -> "answers"
  | Indexing -> "indexing"
  | Solver -> "solver"
  | Monotone -> "monotone"
  | Bound -> "bound"
  | Cache -> "cache"
  | Update -> "update"
  | Relaxation -> "relaxation"

type update_op = Insert of F.t | Retract of F.t

let update_op_to_string = function
  | Insert f -> "+ " ^ F.to_string f
  | Retract f -> "- " ^ F.to_string f

type failure = {
  oracle : oracle;
  pipeline : string;
  detail : string;
  program : Program.t;
  edb : F.t list;
  updates : update_op list; (* empty except for the update oracle *)
}

type stats = {
  mutable cases : int;
  mutable evaluated : int;
  mutable checks : int;
  mutable rewrites_skipped : int;
  mutable rewrites_unconverged : int;
  mutable runs_truncated : int;
  mutable facts_derived : int;
  mutable gen_retries : int;
}

let new_stats () =
  {
    cases = 0;
    evaluated = 0;
    checks = 0;
    rewrites_skipped = 0;
    rewrites_unconverged = 0;
    runs_truncated = 0;
    facts_derived = 0;
    gen_retries = 0;
  }

(* ----- fact-set comparison ----- *)

(* rewriting renames predicates (p', p_ff, …), so facts are compared under a
   neutral predicate name *)
let neutral f = F.make "x" f.F.args (F.cstr f)

let covered fs f = List.exists (fun g -> F.subsumes (neutral g) (neutral f)) fs

let first_uncovered fs gs = List.find_opt (fun f -> not (covered gs f)) fs

(* map a rewritten predicate name back to the original predicate it refines:
   strip adornments ([p_bf]), primes ([p']), and reject magic ([m_p]) and
   supplementary ([s_k_p]) predicates, which denote new relations *)
let rec root_name orig name =
  if List.mem name orig then Some name
  else if String.length name > 2 && String.sub name 0 2 = "m_" then None
  else if String.length name > 2 && String.sub name 0 2 = "s_" then None
  else
    match Adorn.split_adorned name with
    | Some (base, _) when base <> name -> root_name orig base
    | _ ->
        let n = String.length name in
        if n > 1 && name.[n - 1] = '\'' then root_name orig (String.sub name 0 (n - 1))
        else None

(* ----- the independent satisfiability pair (oracle 3) ----- *)

(* Fourier-Motzkin satisfiability: eliminate every variable; the projection
   onto no variables is tt iff the conjunction is satisfiable *)
let fm_sat c = Conj.is_tt (Conj.project ~keep:Var.Set.empty c)

let simplex_sat c = Simplex.is_sat (Conj.to_list c)

(* ----- the cache differential (oracle 6) ----- *)

(* Run the heaviest rewrite (the pred/qrp constraint_rewrite fixpoint) and an
   evaluation of its output with the decision-procedure caches on and off
   ([Memo.with_caches], which starts each run from a fresh cache state),
   and require an alpha-equivalent rewritten program, identical sorted
   answers and identical fixpoint status: the caches may only change
   speed. *)
let check_cache ~max_iterations ~max_derivations ~max_iters st p edb =
  let run_with on =
    Memo.with_caches on (fun () ->
        match Rw.constraint_rewrite ~max_iters p with
        | exception (Invalid_argument _ | Failure _) -> None
        | p', _ ->
            let res = Engine.run ~max_iterations ~max_derivations p' ~edb in
            Some
              ( p',
                Engine.answers res p',
                (Engine.stats res).Engine.reached_fixpoint ))
  in
  match (run_with true, run_with false) with
  | None, None -> None
  | Some (p1, a1, f1), Some (p2, a2, f2) ->
      (* modulo renaming: the rewrite draws fresh variables from a global
         counter, so the two runs produce alpha-equivalent programs *)
      if not (Program.equal_mod_renaming p1 p2) then
        Some
          (Printf.sprintf
             "constraint_rewrite output differs with caches on vs off:\n--- on ---\n%s\n--- off ---\n%s"
             (Program.to_string p1) (Program.to_string p2))
      else if f1 <> f2 || not (List.equal F.equal a1 a2) then
        Some "evaluation answers differ with caches on vs off"
      else begin
        st.checks <- st.checks + 1;
        None
      end
  | _ -> Some "constraint_rewrite applicability differs with caches on vs off"

(* ----- pipelines ----- *)

let pipelines ~max_iters ?tamper (p : Program.t) =
  match p.Program.query with
  | None -> []
  | Some q ->
      let ad = String.make (Program.arity p q) 'f' in
      let mg = Rw.Magic { adornment = ad; constraint_magic = true } in
      let plain_mg = Rw.Magic { adornment = ad; constraint_magic = false } in
      let seq steps p = Rw.sequence ~max_iters steps p in
      let base =
        [
          ("pred", seq [ Rw.Pred ]);
          ("qrp", seq [ Rw.Qrp ]);
          ("pred,qrp", seq [ Rw.Pred; Rw.Qrp ]);
          ("qrp,pred", seq [ Rw.Qrp; Rw.Pred ]);
          ("constraint_rewrite", fun p -> Rw.constraint_rewrite ~max_iters p);
          ("mg", seq [ mg ]);
          ("mg-plain", seq [ plain_mg ]);
          ("mg-complete", seq [ Rw.Magic_complete ]);
          ("pred,qrp,mg", seq [ Rw.Pred; Rw.Qrp; mg ]);
          ("mg,qrp", seq [ mg; Rw.Qrp ]);
          ("optimal", fun p -> Rw.optimal ~max_iters ~adornment:ad p);
          ( "gmt",
            fun p ->
              ( Gmt.pipeline ~query_adornment:ad p,
                { Rw.pred_constraints = None; qrp_constraints = None } ) );
        ]
      in
      (* The injected bug: a QRP propagation whose definition rules are
         built from a transformed (e.g. unsoundly tightened) constraint set
         while folding still trusts the original — what a broken
         Cset.disjointify / weaken_to_one inside constraint bounding would
         produce.  (Tampering the result fed to Qrp.propagate itself is not
         enough: propagate uses one cset consistently for both priming and
         the fold check, so a tightened cset just folds fewer call sites and
         stays sound.) *)
      let tampered t p =
        let p1, pres = Pred_constraints.gen_prop ~max_iters p in
        let res = Qrp.gen ~max_iters p1 in
        let query = p1.Program.query in
        let to_prime =
          List.filter
            (fun (pred, cs) ->
              Some pred <> query && (not (Cset.is_tt cs)) && not (Cset.is_ff cs))
            res.Qrp.constraints
        in
        let primed_rules =
          List.concat_map
            (fun (pred, cs) ->
              let primed = Qrp.primed_name pred in
              let arity = Program.arity p1 pred in
              let defs = Foldunfold.definition ~primed ~orig:pred ~arity (t cs) in
              let orig_rules = Program.rules_defining p1 pred in
              List.concat_map
                (fun (def : Rule.t) ->
                  Foldunfold.unfold_literal ~defs:orig_rules def (List.hd def.Rule.body))
                defs)
            to_prime
        in
        let fold_all r =
          List.fold_left
            (fun r (pred, cs) ->
              let primed = Qrp.primed_name pred in
              match Foldunfold.fold_occurrences ~primed ~orig:pred cs r with
              | Some r' -> r'
              | None -> r)
            r to_prime
        in
        let rules = List.map fold_all (p1.Program.rules @ primed_rules) in
        ( Program.dedup_rules (Program.restrict_reachable { p1 with Program.rules }),
          { Rw.pred_constraints = Some pres; qrp_constraints = Some res } )
      in
      match tamper with
      | None -> base
      | Some t -> base @ [ ("qrp(tampered)", tampered t) ]

let drop_disjuncts cs =
  match Cset.disjuncts cs with [] -> cs | d :: _ -> Cset.of_conj d

(* the pred or QRP fixpoint of a rewrite exhausted [max_iters] and fell
   back to [true] (sound, not minimum) *)
let fell_back (r : Rw.report) =
  (match r.Rw.pred_constraints with
  | Some res -> not res.Pred_constraints.converged
  | None -> false)
  || match r.Rw.qrp_constraints with Some res -> not res.Qrp.converged | None -> false

(* ----- oracles ----- *)

(* The Answers and Monotone oracles on one rewrite [p'] of [p], from both
   programs' fixpoints [res0] and [res']: the rewrite computes exactly the
   original's query answers, and derives for each original predicate only
   facts the original derives.  [pass] runs once per oracle passed. *)
let compare_rewrite ~pass (p : Program.t) res0 (p' : Program.t) res' =
  let answers0 = Engine.answers res0 p and answers' = Engine.answers res' p' in
  match first_uncovered answers0 answers' with
  | Some f ->
      Some (Answers, Printf.sprintf "answer %s of the original program is lost" (F.to_string f))
  | None -> (
      match first_uncovered answers' answers0 with
      | Some f ->
          Some (Answers, Printf.sprintf "extra answer %s not derivable originally" (F.to_string f))
      | None -> (
          pass ();
          let orig_preds = Program.predicates p in
          let bad =
            List.find_map
              (fun (pred', facts') ->
                match root_name orig_preds pred' with
                | None -> None
                | Some op ->
                    if facts' <> [] && F.arity (List.hd facts') <> Program.arity p op then None
                    else
                      Option.map
                        (fun f ->
                          Printf.sprintf "%s derives %s, not subsumed by any original %s fact"
                            pred' (F.to_string f) op)
                        (first_uncovered facts' (Engine.facts_of res0 op)))
              (Engine.all_facts res')
          in
          match bad with
          | Some detail -> Some (Monotone, detail)
          | None ->
              pass ();
              None))

type verdict = Agree | Truncated | Fails of oracle * string

let check_rewrite ?(max_iterations = 25) ?(max_derivations = 20_000) ~original ~rewritten ~edb
    () =
  let run p = Engine.run ~max_iterations ~max_derivations p ~edb in
  let res0 = run original and res' = run rewritten in
  let fixpoint res = (Engine.stats res).Engine.reached_fixpoint in
  if not (fixpoint res0 && fixpoint res') then Truncated
  else
    match compare_rewrite ~pass:ignore original res0 rewritten res' with
    | None -> Agree
    | Some (oracle, detail) -> Fails (oracle, detail)

(* the Indexing oracle: the production engine against the seed evaluator *)
let same_engine_results name res_idx res_seed =
  let preds =
    List.sort_uniq compare
      (List.map fst (Engine.all_facts res_idx) @ List.map fst (Reference.all_facts res_seed))
  in
  let bad_pred =
    List.find_opt
      (fun pred ->
        let fi = Engine.facts_of res_idx pred and fs = Reference.facts_of res_seed pred in
        List.length fi <> List.length fs
        || first_uncovered fi fs <> None
        || first_uncovered fs fi <> None)
      preds
  in
  match bad_pred with
  | Some pred -> Some (Printf.sprintf "%s: fact sets differ on %s" name pred)
  | None ->
      let di = (Engine.stats res_idx).Engine.derivations
      and ds = (Reference.stats res_seed).Reference.derivations in
      if di <> ds then
        Some
          (Printf.sprintf "%s: derivation counts differ (engine %d, reference %d)" name di ds)
      else None

let check_solver_pool st pool =
  if Cdomain.is_z () then
    (* FM-over-ℚ and the simplex legitimately disagree with the integer
       verdict ([2X = 1] is Q-sat, Z-unsat), so under ℤ the cross-check
       pairs the two independent exact procedures: Omega-style elimination
       against branch-and-bound over the rational relaxation *)
    let zsat c = Zsolve.is_sat (Conj.to_list c) in
    let zbb c = Zsolve.is_sat_bb (Conj.to_list c) in
    let bad =
      List.find_opt
        (fun c ->
          let agree = zsat c = zbb c in
          if agree then st.checks <- st.checks + 1;
          not agree)
        pool
    in
    Option.map
      (fun c ->
        Printf.sprintf "Omega elimination says %b, branch-and-bound says %b on: %s" (zsat c)
          (zbb c) (Conj.to_string c))
      bad
  else
    let bad =
      List.find_opt
        (fun c ->
          let agree = fm_sat c = simplex_sat c in
          if agree then st.checks <- st.checks + 1;
          not agree)
        pool
    in
    Option.map
      (fun c ->
        Printf.sprintf "Fourier-Motzkin says %b, simplex says %b on: %s" (fm_sat c)
          (simplex_sat c) (Conj.to_string c))
      bad

let check_bound ~max_bound_iters st p =
  if not (Decidable.in_class p) then
    Some "generated program left the Theorem 5.1 decidable class"
  else
    let bound = Decidable.iteration_bound p in
    let limit =
      match Bigint.to_int_opt bound with
      | Some b when b < max_bound_iters -> b
      | _ -> max_bound_iters
    in
    let pres = Pred_constraints.gen ~max_iters:limit p in
    let qres = Qrp.gen ~max_iters:limit p in
    let within iters = Bigint.compare (Bigint.of_int iters) bound <= 0 in
    if
      pres.Pred_constraints.converged
      && qres.Qrp.converged
      && within pres.Pred_constraints.iterations
      && within qres.Qrp.iterations
    then begin
      st.checks <- st.checks + 1;
      None
    end
    else
      Some
        (Printf.sprintf
           "constraint generation exceeded the Theorem 5.1 bound %s (pred: %d iters, \
            converged %b; qrp: %d iters, converged %b; cap %d)"
           (Bigint.to_string bound) pres.Pred_constraints.iterations
           pres.Pred_constraints.converged qres.Qrp.iterations qres.Qrp.converged limit)

(* ----- the rational-relaxation oracle (oracle 9, int mode) ----- *)

(* ℤ ⊂ ℚ: any answer derivable under the integer domain is derivable under
   the rational one, so every Z answer must be covered by the Q answers.
   One direction only — FM projection over ℤ computes the real shadow, an
   over-approximation, so Q answers with no integer witness are expected.
   Coverage is judged in Q mode (the covering constraint is a ℚ statement).
   Skipped when either run truncates. *)
let check_relaxation ~max_iterations ~max_derivations st p edb =
  let run_in dom =
    Cdomain.with_domain dom (fun () ->
        Memo.clear_all ();
        let res = Engine.run ~max_iterations ~max_derivations p ~edb in
        if (Engine.stats res).Engine.reached_fixpoint then
          Some (Engine.answers res p)
        else None)
  in
  match (run_in Cdomain.Z, run_in Cdomain.Q) with
  | Some za, Some qa -> (
      match Cdomain.with_domain Cdomain.Q (fun () -> first_uncovered za qa) with
      | Some f ->
          Some
            (Printf.sprintf
               "integer-domain answer %s is not covered by any rational-domain answer"
               (F.to_string f))
      | None ->
          st.checks <- st.checks + 1;
          None)
  | _ ->
      st.runs_truncated <- st.runs_truncated + 1;
      None

let check_case ?tamper ?(max_iterations = 25) ?(max_derivations = 20_000) ?(max_iters = 20)
    ~mode st p edb =
  (* Int-mode cases run every oracle under the integer domain, so the
     cache differential doubles as a ℤ transparency check;
     the relaxation oracle below is the only one that crosses domains on
     purpose. *)
  (if mode = Generate.Int then Cdomain.with_domain Cdomain.Z else fun k -> k ()) @@ fun () ->
  st.cases <- st.cases + 1;
  let fail oracle pipeline detail =
    Some { oracle; pipeline; detail; program = p; edb; updates = [] }
  in
  let res0 = Engine.run ~max_iterations ~max_derivations p ~edb in
  if not (Engine.stats res0).Engine.reached_fixpoint then begin
    (* a truncated baseline cannot anchor equivalence; skip the case *)
    st.runs_truncated <- st.runs_truncated + 1;
    None
  end
  else begin
    st.evaluated <- st.evaluated + 1;
    st.facts_derived <- st.facts_derived + Engine.total_idb_facts res0 ~edb;
    let res0_seed = Reference.run ~max_iterations ~max_derivations p ~edb in
    match same_engine_results "original" res0 res0_seed with
    | Some detail -> fail Indexing "eval" detail
    | None -> (
        st.checks <- st.checks + 1;
        let bound_failure =
          if mode = Generate.Decidable then check_bound ~max_bound_iters:300 st p else None
        in
        match bound_failure with
        | Some detail -> fail Bound "analyze" detail
        | None -> (
            match check_cache ~max_iterations ~max_derivations ~max_iters st p edb with
            | Some detail -> fail Cache "constraint_rewrite" detail
            | None -> (
            let relaxation_failure =
              if mode = Generate.Int then
                check_relaxation ~max_iterations ~max_derivations st p edb
              else None
            in
            match relaxation_failure with
            | Some detail -> fail Relaxation "eval" detail
            | None -> (
            let solver_pool = ref [] in
            let add_conjs (prog : Program.t) =
              List.iter (fun (r : Rule.t) -> solver_pool := r.Rule.cstr :: !solver_pool)
                prog.Program.rules
            in
            add_conjs p;
            List.iter
              (fun (_, fs) -> List.iter (fun f -> solver_pool := F.cstr f :: !solver_pool) fs)
              (Engine.all_facts res0);
            (* run one pipeline; None = all its oracles passed or skipped *)
            let check_pipeline (name, rw) =
              match rw p with
              | exception (Invalid_argument _ | Failure _) ->
                  st.rewrites_skipped <- st.rewrites_skipped + 1;
                  None
              | p', report -> (
                  if fell_back report then
                    st.rewrites_unconverged <- st.rewrites_unconverged + 1;
                  add_conjs p';
                  let res' = Engine.run ~max_iterations ~max_derivations p' ~edb in
                  if not (Engine.stats res').Engine.reached_fixpoint then begin
                    st.runs_truncated <- st.runs_truncated + 1;
                    None
                  end
                  else
                    let res'_seed = Reference.run ~max_iterations ~max_derivations p' ~edb in
                    match same_engine_results name res' res'_seed with
                    | Some detail -> fail Indexing name detail
                    | None ->
                    st.checks <- st.checks + 1;
                    let arity_ok =
                      match (p.Program.query, p'.Program.query) with
                      | Some q, Some q' -> (
                          try Program.arity p q = Program.arity p' q'
                          with Not_found -> false)
                      | _ -> false
                    in
                    if not arity_ok then begin
                      st.rewrites_skipped <- st.rewrites_skipped + 1;
                      None
                    end
                    else
                      let pass () = st.checks <- st.checks + 1 in
                      Option.bind (compare_rewrite ~pass p res0 p' res') (fun (oracle, detail) ->
                          fail oracle name detail))
            in
            match List.find_map check_pipeline (pipelines ~max_iters ?tamper p) with
            | Some _ as f -> f
            | None -> (
                match check_solver_pool st !solver_pool with
                | Some detail -> fail Solver "solver" detail
                | None -> None)))))
  end

(* ----- shrinking ----- *)

let valid (p : Program.t) =
  Program.check p = Ok ()
  && Program.is_range_restricted p
  && match p.Program.query with Some q -> Program.is_derived p q | None -> false

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* all one-step reductions of a case, smallest-effect last so whole rules
   and facts go first *)
let reductions (p : Program.t) edb =
  let query = p.Program.query in
  let mk rules = Program.make ?query rules in
  let drop_rule =
    List.init (List.length p.Program.rules) (fun i -> (mk (remove_nth i p.Program.rules), edb))
  in
  let drop_fact = List.init (List.length edb) (fun i -> (p, remove_nth i edb)) in
  let map_rule i f =
    mk (List.mapi (fun j r -> if j = i then f r else r) p.Program.rules)
  in
  let drop_lit =
    List.concat
      (List.mapi
         (fun i (r : Rule.t) ->
           List.init (List.length r.Rule.body) (fun j ->
               ( map_rule i (fun r ->
                     Rule.make ~label:r.Rule.label r.Rule.head (remove_nth j r.Rule.body)
                       r.Rule.cstr),
                 edb )))
         p.Program.rules)
  in
  let drop_atom =
    List.concat
      (List.mapi
         (fun i (r : Rule.t) ->
           let atoms = Conj.to_list r.Rule.cstr in
           List.init (List.length atoms) (fun j ->
               ( map_rule i (fun r ->
                     Rule.make ~label:r.Rule.label r.Rule.head r.Rule.body
                       (Conj.of_list (remove_nth j atoms))),
                 edb )))
         p.Program.rules)
  in
  List.filter (fun (p', _) -> valid p') (drop_rule @ drop_fact @ drop_lit @ drop_atom)

let shrink ?tamper ?max_iterations ?max_derivations ?max_iters ~mode (f0 : failure) =
  let budget = ref 400 in
  let still_fails p edb =
    if !budget <= 0 then None
    else begin
      decr budget;
      check_case ?tamper ?max_iterations ?max_derivations ?max_iters ~mode (new_stats ()) p
        edb
    end
  in
  let rec go (f : failure) =
    let next =
      List.find_map
        (fun (p', edb') ->
          match still_fails p' edb' with Some f' -> Some f' | None -> None)
        (reductions f.program f.edb)
    in
    match next with Some f' when !budget > 0 -> go f' | _ -> f
  in
  go f0

(* ----- top-level runs ----- *)

type summary = { seed : int; count : int; stats : stats; failure : failure option }

(* Draw one case from the next RNG substream, so a change in how one case
   is consumed does not shift every later case.  Tight configs can exhaust
   Generate.case's rejection sampling; retry with the next substream
   instead of dying, but bound the retries so a config that can never
   produce a program still terminates. *)
let draw_case st rng config =
  let rec draw retries_left =
    match Generate.case (Rng.split rng) config with
    | case -> case
    | exception Generate.Exhausted _ when retries_left > 0 ->
        st.gen_retries <- st.gen_retries + 1;
        draw (retries_left - 1)
  in
  draw 10

let run ?tamper ?config ?max_iterations ?max_derivations ?max_iters ~seed ~count () =
  let config = match config with Some c -> c | None -> Generate.default Generate.Decidable in
  let rng = Rng.create seed in
  let st = new_stats () in
  let rec go i =
    if i >= count then None
    else
      let p, edb = draw_case st rng config in
      match
        check_case ?tamper ?max_iterations ?max_derivations ?max_iters ~mode:config.Generate.mode
          st p edb
      with
      | None -> go (i + 1)
      | Some f ->
          Some (shrink ?tamper ?max_iterations ?max_derivations ?max_iters ~mode:config.Generate.mode f)
  in
  { seed; count; stats = st; failure = go 0 }

let replay ?mode p edb =
  let mode =
    match mode with
    | Some m -> m
    | None -> if Decidable.in_class p then Generate.Decidable else Generate.Linear
  in
  check_case ~mode (new_stats ()) p edb

(* ----- the update-oracle differential (oracle 7) ----- *)

(* Apply a random insert/retract sequence to a materialized view and, after
   every step, compare it against a from-scratch re-evaluation of the
   current EDB multiset: sorted answers, the full per-predicate fact state,
   per-fact support counts and fixpoint convergence must all agree, and the
   plain engine must agree on the answers.  Generated programs are
   range-restricted, so every derived fact is ground and support counts are
   arrival-order independent — incremental maintenance must reproduce them
   exactly.  Facts are compared with [F.equal], never with polymorphic
   equality: a constraint fact's linear expressions are maps whose shape
   depends on the order they were built in. *)

let view_state vw =
  List.filter (fun (_, l) -> l <> []) (Engine.view_all_facts vw)

(* two per-predicate listings, both sorted as [Engine.view_all_facts] *)
let same_by_pred eq a b =
  List.equal (fun (p, xs) (q, ys) -> String.equal p q && List.equal eq xs ys) a b

let diff_state name a b =
  if same_by_pred F.equal a b then None
  else Some (name ^ ": incremental and from-scratch state differ")

let same_counts = same_by_pred (fun (f, n) (g, m) -> F.equal f g && n = m)

let check_update_case ?(max_iterations = 25) ?(max_derivations = 20_000) st p (edb0 : F.t list)
    (ops : update_op list) =
  st.cases <- st.cases + 1;
  let fail detail =
    Some { oracle = Update; pipeline = "maintain"; detail; program = p; edb = edb0; updates = ops }
  in
  let vw, mst0 = Engine.materialize ~max_iterations ~max_derivations p ~edb:edb0 in
  Fun.protect ~finally:(fun () -> Engine.close_view vw) @@ fun () ->
  (* one differential check of the live view against fresh evaluations *)
  let compare_now what =
    let edb_now = Engine.view_edb vw in
    let sv, sst = Engine.materialize ~max_iterations ~max_derivations p ~edb:edb_now in
    Fun.protect ~finally:(fun () -> Engine.close_view sv) @@ fun () ->
    if not sst.Engine.m_complete then `Truncated
    else begin
      let failure =
        if not (Engine.view_complete vw) then
          Some (what ^ ": incremental maintenance lost fixpoint convergence")
        else if
          not (List.equal F.equal (Engine.view_answers vw) (Engine.view_answers sv))
        then Some (what ^ ": incremental and from-scratch answers differ")
        else
          match diff_state what (view_state vw) (view_state sv) with
          | Some d -> Some d
          | None ->
              if not (same_counts (Engine.view_counts vw) (Engine.view_counts sv)) then
                Some (what ^ ": incremental and from-scratch support counts differ")
              else begin
                (* anchor to the plain engine: same answers *)
                let r = Engine.run ~max_iterations ~max_derivations p ~edb:edb_now in
                if not (Engine.stats r).Engine.reached_fixpoint then ()
                else if
                  not
                    (List.equal F.equal (Engine.answers r p) (Engine.view_answers vw))
                then raise Exit;
                None
              end
      in
      match failure with
      | Some d -> `Fail d
      | None ->
          st.checks <- st.checks + 1;
          `Ok
    end
  in
  let compare_now what =
    try compare_now what
    with Exit -> `Fail (what ^ ": view answers differ from Engine.run answers")
  in
  if not mst0.Engine.m_complete then begin
    st.runs_truncated <- st.runs_truncated + 1;
    None
  end
  else begin
    st.evaluated <- st.evaluated + 1;
    st.facts_derived <- st.facts_derived + (Engine.view_total vw - List.length edb0);
    match compare_now "materialize" with
    | `Truncated ->
        st.runs_truncated <- st.runs_truncated + 1;
        None
    | `Fail d -> fail d
    | `Ok ->
        let rec steps i = function
          | [] -> None
          | op :: rest -> (
              let what =
                Printf.sprintf "step %d (%s)" i (update_op_to_string op)
              in
              let mst =
                match op with
                | Insert f -> Engine.insert vw [ f ]
                | Retract f -> Engine.retract vw [ f ]
              in
              if not mst.Engine.m_complete then begin
                st.runs_truncated <- st.runs_truncated + 1;
                None
              end
              else
                match compare_now what with
                | `Truncated ->
                    st.runs_truncated <- st.runs_truncated + 1;
                    None
                | `Fail d -> fail d
                | `Ok -> steps (i + 1) rest)
        in
        steps 1 ops
  end

let replay_update p edb ops = check_update_case (new_stats ()) p edb ops

(* random update sequence over a generated EDB: part of the database is
   held back as an insert pool, retracted facts return to the pool (so
   retract-then-reinsert sequences occur), and a small fraction of
   retractions name absent facts (counted no-ops) *)
let rec remove_first f = function
  | [] -> []
  | g :: rest -> if F.compare f g = 0 then rest else g :: remove_first f rest

let gen_updates rng edb =
  let initial, pool = List.partition (fun _ -> Rng.chance rng 0.55) edb in
  let present = ref initial and absent = ref pool in
  let n = 3 + Rng.int rng 10 in
  let ops = ref [] in
  for _ = 1 to n do
    let do_insert =
      match (!present, !absent) with
      | _, [] -> false
      | [], _ -> true
      | _ -> Rng.chance rng 0.55
    in
    if do_insert then begin
      let f = Rng.pick rng !absent in
      absent := remove_first f !absent;
      present := f :: !present;
      ops := Insert f :: !ops
    end
    else if !present = [] then () (* empty database and empty pool: no-op *)
    else if !absent <> [] && Rng.chance rng 0.15 then
      ops := Retract (Rng.pick rng !absent) :: !ops
    else begin
      let f = Rng.pick rng !present in
      present := remove_first f !present;
      absent := f :: !absent;
      ops := Retract f :: !ops
    end
  done;
  (initial, List.rev !ops)

(* greedy shrinking of an update failure: drop individual ops first (the
   sequence usually minimizes to one or two), then shrink the program and
   initial EDB with the shared reductions *)
let shrink_update ?max_iterations ?max_derivations (f0 : failure) =
  let budget = ref 400 in
  let still_fails p edb ops =
    if !budget <= 0 then None
    else begin
      decr budget;
      check_update_case ?max_iterations ?max_derivations (new_stats ()) p edb ops
    end
  in
  let rec go (f : failure) =
    let drop_op =
      List.init (List.length f.updates) (fun i -> (f.program, f.edb, remove_nth i f.updates))
    in
    let prog_reds =
      List.map (fun (p', edb') -> (p', edb', f.updates)) (reductions f.program f.edb)
    in
    let next =
      List.find_map (fun (p', edb', ops') -> still_fails p' edb' ops') (drop_op @ prog_reds)
    in
    match next with Some f' when !budget > 0 -> go f' | _ -> f
  in
  go f0

let run_update ?config ?max_iterations ?max_derivations ~seed ~count () =
  let config =
    match config with
    | Some c -> c
    | None ->
        (* a deeper EDB pool than the rewrite-oracle default, so update
           sequences have facts left to insert *)
        let c = Generate.default Generate.Decidable in
        { c with Generate.max_edb_facts = c.Generate.max_edb_facts * 2 }
  in
  let rng = Rng.create seed in
  let st = new_stats () in
  let rec go i =
    if i >= count then None
    else
      let p, edb = draw_case st rng config in
      let initial, ops = gen_updates (Rng.split rng) edb in
      match check_update_case ?max_iterations ?max_derivations st p initial ops with
      | None -> go (i + 1)
      | Some f -> Some (shrink_update ?max_iterations ?max_derivations f)
  in
  { seed; count; stats = st; failure = go 0 }

(* ----- counterexample rendering ----- *)

let edb_marker = "% --- edb ---"
let updates_marker = "% --- updates ---"

let fact_to_rule f =
  let n = F.arity f in
  if F.is_ground f then
    let args =
      List.init n (fun i ->
          match f.F.args.(i) with
          | F.Psym s -> Term.sym s
          | F.Pvar -> (
              match F.ground_value f (i + 1) with
              | Some v -> Term.num v
              | None -> assert false))
    in
    Rule.fact (Literal.make (F.pred f) args) Conj.tt
  else
    let var i = Var.mk (Printf.sprintf "V%d" i) in
    let args =
      List.init n (fun i ->
          match f.F.args.(i) with
          | F.Psym s -> Term.sym s
          | F.Pvar -> Term.var (var (i + 1)))
    in
    let ren v = match Var.arg_index v with Some i -> var i | None -> v in
    Rule.fact (Literal.make (F.pred f) args) (Conj.rename ren (F.cstr f))

let counterexample_to_string (s : summary) (f : failure) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%% cqlopt fuzz counterexample (seed=%d, count=%d)\n" s.seed s.count;
  Printf.bprintf b "%% oracle=%s pipeline=%s\n" (oracle_name f.oracle) f.pipeline;
  Printf.bprintf b "%% %s\n" f.detail;
  Buffer.add_string b (Program.to_string f.program);
  Buffer.add_char b '\n';
  Buffer.add_string b edb_marker;
  Buffer.add_char b '\n';
  List.iter (fun fact -> Printf.bprintf b "%s\n" (Rule.to_string (fact_to_rule fact))) f.edb;
  if f.updates <> [] then begin
    Buffer.add_string b updates_marker;
    Buffer.add_char b '\n';
    List.iter
      (fun op ->
        let sign, fact = match op with Insert f -> ("+", f) | Retract f -> ("-", f) in
        Printf.bprintf b "%s %s\n" sign (Rule.to_string (fact_to_rule fact)))
      f.updates
  end;
  Buffer.contents b

let parse_counterexample src =
  let split_on marker src =
    match
      let lines = String.split_on_char '\n' src in
      let rec split acc = function
        | [] -> None
        | l :: rest when String.trim l = marker ->
            Some (String.concat "\n" (List.rev acc), String.concat "\n" rest)
        | l :: rest -> split (l :: acc) rest
      in
      split [] lines
    with
    | Some (a, b) -> (a, b)
    | None -> (src, "")
  in
  let prog_part, rest = split_on edb_marker src in
  let edb_part, updates_part = split_on updates_marker rest in
  let p = Parser.program_of_string prog_part in
  let edb = List.map F.of_fact_rule (Parser.facts_of_string edb_part) in
  let updates =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line < 2 || line.[0] = '%' then None
        else
          let clause = String.trim (String.sub line 1 (String.length line - 1)) in
          let fact () =
            match Parser.facts_of_string clause with
            | [ r ] -> F.of_fact_rule r
            | _ -> failwith ("malformed update line: " ^ line)
          in
          match line.[0] with
          | '+' -> Some (Insert (fact ()))
          | '-' -> Some (Retract (fact ()))
          | _ -> failwith ("malformed update line: " ^ line))
      (String.split_on_char '\n' updates_part)
  in
  (p, edb, updates)

let pp_summary fmt (s : summary) =
  let st = s.stats in
  Format.fprintf fmt
    "fuzz: seed=%d cases=%d evaluated=%d oracle_checks=%d skipped_rewrites=%d \
     unconverged_rewrites=%d truncated_runs=%d gen_retries=%d mean_idb_facts=%.1f@."
    s.seed st.cases st.evaluated st.checks st.rewrites_skipped st.rewrites_unconverged
    st.runs_truncated st.gen_retries
    (if st.evaluated = 0 then 0.0
     else float_of_int st.facts_derived /. float_of_int st.evaluated);
  match s.failure with
  | None -> Format.fprintf fmt "all oracles passed@."
  | Some f ->
      Format.fprintf fmt "FAILURE oracle=%s pipeline=%s: %s@." (oracle_name f.oracle)
        f.pipeline f.detail
