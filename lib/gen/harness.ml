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
  updates : update_op list; (* empty except in update mode *)
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

(* Each oracle check returns the detail of its failure, or [None] when it
   passes or does not apply; it counts its own passes and skips in [st]. *)
let pass st =
  st.checks <- st.checks + 1;
  None

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
let check_cache ~eval ~max_iters st p =
  let run_with on =
    Memo.with_caches on (fun () ->
        match Rw.constraint_rewrite ~max_iters p with
        | exception (Invalid_argument _ | Failure _) -> None
        | p', _ ->
            let res = eval p' in
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
      else pass st
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

(* The Answers oracle on one rewrite [p'] of [p], from both programs'
   fixpoints [res0] and [res']: the rewrite computes exactly the original's
   query answers. *)
let check_answers st (p : Program.t) res0 (p' : Program.t) res' =
  let answers0 = Engine.answers res0 p and answers' = Engine.answers res' p' in
  match first_uncovered answers0 answers' with
  | Some f -> Some (Printf.sprintf "answer %s of the original program is lost" (F.to_string f))
  | None -> (
      match first_uncovered answers' answers0 with
      | Some f ->
          Some (Printf.sprintf "extra answer %s not derivable originally" (F.to_string f))
      | None -> pass st)

(* The Monotone oracle: the rewrite derives, for each original predicate,
   only facts the original derives. *)
let check_monotone st (p : Program.t) res0 (_ : Program.t) res' =
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
                  Printf.sprintf "%s derives %s, not subsumed by any original %s fact" pred'
                    (F.to_string f) op)
                (first_uncovered facts' (Engine.facts_of res0 op)))
      (Engine.all_facts res')
  in
  if bad = None then pass st else bad

(* the oracles that compare a rewrite with the original, in order *)
let comparisons = [ (Answers, check_answers); (Monotone, check_monotone) ]

type verdict = Agree | Truncated | Fails of oracle * string

let check_rewrite ?(max_iterations = 25) ?(max_derivations = 20_000) ~original ~rewritten ~edb
    () =
  let run p = Engine.run ~max_iterations ~max_derivations p ~edb in
  let res0 = run original and res' = run rewritten in
  let fixpoint res = (Engine.stats res).Engine.reached_fixpoint in
  if not (fixpoint res0 && fixpoint res') then Truncated
  else
    let st = new_stats () in
    List.find_map
      (fun (oracle, check) ->
        Option.map (fun d -> Fails (oracle, d)) (check st original res0 rewritten res'))
      comparisons
    |> Option.value ~default:Agree

(* the Indexing oracle: the production engine against the seed evaluator *)
let check_indexing st name res_idx res_seed =
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
      else pass st

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

let check_bound st p =
  if not (Decidable.in_class p) then
    Some "generated program left the Theorem 5.1 decidable class"
  else
    let bound = Decidable.iteration_bound p in
    let limit = match Bigint.to_int_opt bound with Some b when b < 300 -> b | _ -> 300 in
    let pres = Pred_constraints.gen ~max_iters:limit p in
    let qres = Qrp.gen ~max_iters:limit p in
    let within iters = Bigint.compare (Bigint.of_int iters) bound <= 0 in
    if
      pres.Pred_constraints.converged
      && qres.Qrp.converged
      && within pres.Pred_constraints.iterations
      && within qres.Qrp.iterations
    then pass st
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
let check_relaxation ~eval st p =
  let run_in dom =
    Cdomain.with_domain dom (fun () ->
        Memo.clear_all ();
        let res = eval p in
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
      | None -> pass st)
  | _ ->
      st.runs_truncated <- st.runs_truncated + 1;
      None

(* both programs name a query predicate of the same arity, so their
   answers compare *)
let same_query_arity (p : Program.t) (p' : Program.t) =
  match (p.Program.query, p'.Program.query) with
  | Some q, Some q' -> ( try Program.arity p q = Program.arity p' q' with Not_found -> false)
  | _ -> false

(* The rewrite oracles on one case, checked in this order: Indexing on the
   original program, Bound (decidable mode), Cache, Relaxation (int mode),
   then each pipeline's Indexing, Answers and Monotone, and last Solver on
   every constraint conjunction the case touched.  The first failure
   stops the check. *)
let check_rewrites ?tamper ~max_iterations ~max_derivations ~max_iters ~mode st p edb =
  (* Int-mode cases run every oracle under the integer domain, so the
     cache differential doubles as a ℤ transparency check;
     the relaxation oracle is the only one that crosses domains on
     purpose. *)
  (if mode = Generate.Int then Cdomain.with_domain Cdomain.Z else fun k -> k ()) @@ fun () ->
  let eval p = Engine.run ~max_iterations ~max_derivations p ~edb in
  let reference p = Reference.run ~max_iterations ~max_derivations p ~edb in
  let res0 = eval p in
  if not (Engine.stats res0).Engine.reached_fixpoint then begin
    (* a truncated baseline cannot anchor equivalence; skip the case *)
    st.runs_truncated <- st.runs_truncated + 1;
    None
  end
  else begin
    st.evaluated <- st.evaluated + 1;
    st.facts_derived <- st.facts_derived + Engine.total_idb_facts res0 ~edb;
    let solver_pool = ref [] in
    let add_conjs (prog : Program.t) =
      List.iter
        (fun (r : Rule.t) -> solver_pool := r.Rule.cstr :: !solver_pool)
        prog.Program.rules
    in
    add_conjs p;
    List.iter
      (fun (_, fs) -> List.iter (fun f -> solver_pool := F.cstr f :: !solver_pool) fs)
      (Engine.all_facts res0);
    let pipeline_oracles (name, rw) =
      (* the rewrite and its evaluation, run when the pipeline's first
         oracle is checked; [None] when the pipeline does not apply or the
         evaluation is cut short *)
      let evaluated =
        lazy
          (match rw p with
          | exception (Invalid_argument _ | Failure _) ->
              st.rewrites_skipped <- st.rewrites_skipped + 1;
              None
          | p', report ->
              if fell_back report then st.rewrites_unconverged <- st.rewrites_unconverged + 1;
              add_conjs p';
              let res' = eval p' in
              if (Engine.stats res').Engine.reached_fixpoint then Some (p', res')
              else begin
                st.runs_truncated <- st.runs_truncated + 1;
                None
              end)
      in
      let comparable =
        lazy
          (match Lazy.force evaluated with
          | Some (p', _) when not (same_query_arity p p') ->
              st.rewrites_skipped <- st.rewrites_skipped + 1;
              None
          | e -> e)
      in
      let on run check () = Option.bind (Lazy.force run) check in
      (Indexing, name, on evaluated (fun (p', r') -> check_indexing st name r' (reference p')))
      :: List.map
           (fun (oracle, check) ->
             (oracle, name, on comparable (fun (p', res') -> check st p res0 p' res')))
           comparisons
    in
    let only m oracles = if mode = m then oracles else [] in
    let oracles =
      [ (Indexing, "eval", fun () -> check_indexing st "original" res0 (reference p)) ]
      @ only Generate.Decidable [ (Bound, "analyze", fun () -> check_bound st p) ]
      @ [ (Cache, "constraint_rewrite", fun () -> check_cache ~eval ~max_iters st p) ]
      @ only Generate.Int [ (Relaxation, "eval", fun () -> check_relaxation ~eval st p) ]
      @ List.concat_map pipeline_oracles (pipelines ~max_iters ?tamper p)
      @ [ (Solver, "solver", fun () -> check_solver_pool st !solver_pool) ]
    in
    List.find_map
      (fun (oracle, pipeline, check) ->
        Option.map
          (fun detail -> { oracle; pipeline; detail; program = p; edb; updates = [] })
          (check ()))
      oracles
  end

(* ----- the update-oracle differential ----- *)

(* Apply an insert/retract sequence to a materialized view and, after
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

let same_counts = same_by_pred (fun (f, n) (g, m) -> F.equal f g && n = m)

let check_updates ~max_iterations ~max_derivations st p edb0 ops =
  let materialize edb = Engine.materialize ~max_iterations ~max_derivations p ~edb in
  let vw, mst0 = materialize edb0 in
  Fun.protect ~finally:(fun () -> Engine.close_view vw) @@ fun () ->
  (* the live view against fresh evaluations of its current EDB *)
  let compare_now what =
    let edb_now = Engine.view_edb vw in
    let sv, sst = materialize edb_now in
    Fun.protect ~finally:(fun () -> Engine.close_view sv) @@ fun () ->
    if not sst.Engine.m_complete then `Truncated
    else if not (Engine.view_complete vw) then
      `Fail (what ^ ": incremental maintenance lost fixpoint convergence")
    else if not (List.equal F.equal (Engine.view_answers vw) (Engine.view_answers sv)) then
      `Fail (what ^ ": incremental and from-scratch answers differ")
    else if not (same_by_pred F.equal (view_state vw) (view_state sv)) then
      `Fail (what ^ ": incremental and from-scratch state differ")
    else if not (same_counts (Engine.view_counts vw) (Engine.view_counts sv)) then
      `Fail (what ^ ": incremental and from-scratch support counts differ")
    else
      let r = Engine.run ~max_iterations ~max_derivations p ~edb:edb_now in
      if
        (Engine.stats r).Engine.reached_fixpoint
        && not (List.equal F.equal (Engine.answers r p) (Engine.view_answers vw))
      then `Fail (what ^ ": view answers differ from Engine.run answers")
      else begin
        st.checks <- st.checks + 1;
        `Ok
      end
  in
  let truncated () =
    st.runs_truncated <- st.runs_truncated + 1;
    None
  in
  if not mst0.Engine.m_complete then truncated ()
  else begin
    st.evaluated <- st.evaluated + 1;
    st.facts_derived <- st.facts_derived + (Engine.view_total vw - List.length edb0);
    (* check the view as it stands, then apply op [i] *)
    let rec steps i what pending =
      match compare_now what with
      | `Truncated -> truncated ()
      | `Fail detail ->
          let pipeline = "maintain" in
          Some { oracle = Update; pipeline; detail; program = p; edb = edb0; updates = ops }
      | `Ok -> (
          match pending with
          | [] -> None
          | op :: rest ->
              let mst =
                match op with
                | Insert f -> Engine.insert vw [ f ]
                | Retract f -> Engine.retract vw [ f ]
              in
              if mst.Engine.m_complete then
                steps (i + 1) (Printf.sprintf "step %d (%s)" i (update_op_to_string op)) rest
              else truncated ())
    in
    steps 1 "materialize" ops
  end

let check_case ?tamper ?(max_iterations = 25) ?(max_derivations = 20_000) ?(max_iters = 20)
    ~mode st p edb ops =
  st.cases <- st.cases + 1;
  if mode = Generate.Update then check_updates ~max_iterations ~max_derivations st p edb ops
  else check_rewrites ?tamper ~max_iterations ~max_derivations ~max_iters ~mode st p edb

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
  let still_fails (p, edb, ops) =
    if !budget <= 0 then None
    else begin
      decr budget;
      check_case ?tamper ?max_iterations ?max_derivations ?max_iters ~mode (new_stats ()) p edb
        ops
    end
  in
  (* single ops first (an update sequence usually shrinks to one or two),
     then the program and EDB reductions *)
  let rec go (f : failure) =
    let drop_op =
      List.init (List.length f.updates) (fun i -> (f.program, f.edb, remove_nth i f.updates))
    in
    let reduced = List.map (fun (p, edb) -> (p, edb, f.updates)) (reductions f.program f.edb) in
    match List.find_map still_fails (drop_op @ reduced) with
    | Some f' when !budget > 0 -> go f'
    | _ -> f
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

let run ?tamper ?config ?max_iterations ?max_derivations ?max_iters ~seed ~count () =
  let config = match config with Some c -> c | None -> Generate.default Generate.Decidable in
  let mode = config.Generate.mode in
  let rng = Rng.create seed in
  let st = new_stats () in
  let rec go i =
    if i >= count then None
    else
      let p, edb = draw_case st rng config in
      let edb, ops =
        if mode = Generate.Update then gen_updates (Rng.split rng) edb else (edb, [])
      in
      match check_case ?tamper ?max_iterations ?max_derivations ?max_iters ~mode st p edb ops with
      | None -> go (i + 1)
      | Some f -> Some (shrink ?tamper ?max_iterations ?max_derivations ?max_iters ~mode f)
  in
  { seed; count; stats = st; failure = go 0 }

let replay ?mode p edb ops =
  let mode =
    match mode with
    | _ when ops <> [] -> Generate.Update
    | Some m -> m
    | None -> if Decidable.in_class p then Generate.Decidable else Generate.Linear
  in
  check_case ~mode (new_stats ()) p edb ops

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
  (* an unsatisfiable fact denotes nothing: it is dropped, as are the
     update ops that name one *)
  let edb = List.filter_map F.of_fact_rule_opt (Parser.facts_of_string edb_part) in
  let updates =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line < 2 || line.[0] = '%' then None
        else
          let op =
            match line.[0] with
            | '+' -> Some (fun f -> Insert f)
            | '-' -> Some (fun f -> Retract f)
            | _ -> None
          in
          match (op, Parser.facts_of_string (String.sub line 1 (String.length line - 1))) with
          | Some op, [ r ] -> Option.map op (F.of_fact_rule_opt r)
          | _ -> raise (Parser.Error ("malformed update line: " ^ line)))
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
