open Cql_num
open Cql_constr
open Cql_datalog
module Store = Cql_store.Store
module Planner = Cql_store.Planner
module Obs = Cql_obs.Obs

(* Compiled join plans: each (rule, pivot) plan from the planner is turned
   once per run into a register-frame program.  Every body literal becomes a
   precomputed per-argument action list — check a constant, check a register
   bound by an earlier occurrence, or bind a register — resolved against the
   plan's binding order at compile time, so the inner candidate loop runs no
   [Subst.unify_under] closure dispatch and builds no substitution maps for
   ground facts.  Head construction and the rule's constraint conjunction
   are instantiated by direct register reads.

   The per-position actions are [Subst.unify_terms] calls specialized by
   binding time.  Rule variables live in the register frame; bindings of
   the fresh variables that non-ground facts introduce go to a side
   substitution through the very same [Subst.unify_terms], so each
   candidate combination yields exactly the head fact substitution
   semantics would derive from it (the seed evaluator, lib/gen/reference,
   is the cross-check).  Enumeration order is the plan's; the sequential
   and the parallel ([exec_seeded]) entries visit the same candidates in
   the same order, so every [--jobs] value merges an identical production
   list. *)

let ctr_programs = Obs.counter "engine.compile.programs_compiled"
let ctr_ops = Obs.counter "engine.compile.ops"
let ctr_frame = Obs.counter "engine.compile.frame_width"

(* ----- fact instantiation (shared with the reference evaluator) ----- *)

(* instantiate a stored fact as a literal: pinned numeric positions become
   constants (so ground workloads never touch the solver), the rest become
   fresh variables carrying the renamed residual constraints *)
let fact_literal (f : Fact.t) : Literal.t * Conj.t =
  let n = Fact.arity f in
  let fresh = Array.make n None in
  let args =
    List.init n (fun i ->
        match f.Fact.args.(i) with
        | Fact.Psym s -> Term.sym s
        | Fact.Pvar -> (
            match f.Fact.pinned.(i) with
            | Some q -> Term.num q
            | None ->
                let v = Var.fresh "F" in
                fresh.(i) <- Some v;
                Term.var v))
  in
  let residual =
    if Array.for_all (fun o -> o = None) fresh then Conj.tt
    else begin
      (* substitute pinned values, rename the remaining canonical vars *)
      let c =
        Array.to_list f.Fact.pinned
        |> List.mapi (fun i q -> (i, q))
        |> List.fold_left
             (fun c (i, q) ->
               match q with
               | Some q when f.Fact.args.(i) = Fact.Pvar ->
                   Conj.subst (Var.arg (i + 1)) (Linexpr.const q) c
               | _ -> c)
             (Fact.cstr f)
      in
      let ren v =
        match Var.arg_index v with
        | Some i when i >= 1 && i <= n -> (
            match fresh.(i - 1) with Some fv -> fv | None -> v)
        | _ -> v
      in
      Conj.rename ren c
    end
  in
  (Literal.make (Fact.pred f) args, residual)

(* ----- head derivation over an environment ----- *)

(* finish one candidate derivation: instantiate the combined constraint,
   check satisfiability, project onto the head fact.  [lookup] must return
   fully-resolved terms (see Subst.apply_*_env); the reference evaluator
   passes a substitution resolve, the executor below a register read. *)
let derive_from_combined ~lookup (rule : Rule.t) combined : Fact.t option =
  try
    let combined = Subst.apply_conj_env ~lookup combined in
    if not (Conj.is_sat combined) then None
    else begin
      (* build the head fact over canonical $i variables *)
      let head = Subst.apply_literal_env ~lookup rule.Rule.head in
      let n = Literal.arity head in
      let args = Array.make n Fact.Pvar in
      let atoms = ref (Conj.to_list combined) in
      List.iteri
        (fun i t ->
          let ai = Var.arg (i + 1) in
          match (t : Term.t) with
          | Term.C (Term.Sym s) -> args.(i) <- Fact.Psym s
          | Term.C (Term.Num q) ->
              atoms := Atom.eq (Linexpr.var ai) (Linexpr.const q) :: !atoms
          | Term.V v -> atoms := Atom.eq (Linexpr.var ai) (Linexpr.var v) :: !atoms)
        head.Literal.args;
      match Fact.make head.Literal.pred args (Conj.of_list !atoms) with
      | f -> Some f
      | exception Fact.Unsat -> None
    end
  with Subst.Type_error _ -> None (* symbolic constant met an arithmetic constraint *)

let derive_head_env ~lookup (rule : Rule.t) body_cstr : Fact.t option =
  derive_from_combined ~lookup rule (Conj.and_ rule.Rule.cstr body_cstr)

(* Fast leaf for a combined constraint that evaluated to true under a fully
   numeric environment: the instantiated conjunction is [tt] (every atom is
   variable-free and true, so [Conj.of_list] drops them all), satisfiability
   is trivial, and the head fact carries only the position-pinning
   equalities — exactly what [derive_from_combined] would build, minus the
   substitution and solver work. *)
let build_head_fast ~lookup (rule : Rule.t) : Fact.t option =
  let head = rule.Rule.head in
  let n = Literal.arity head in
  let args = Array.make n Fact.Pvar in
  let atoms = ref [] in
  List.iteri
    (fun i t ->
      let ai = Var.arg (i + 1) in
      let t = match (t : Term.t) with Term.V v -> lookup v | _ -> t in
      match (t : Term.t) with
      | Term.C (Term.Sym s) -> args.(i) <- Fact.Psym s
      | Term.C (Term.Num q) -> atoms := Atom.eq (Linexpr.var ai) (Linexpr.const q) :: !atoms
      | Term.V v -> atoms := Atom.eq (Linexpr.var ai) (Linexpr.var v) :: !atoms)
    head.Literal.args;
  match Fact.make head.Literal.pred args (Conj.of_list !atoms) with
  | f -> Some f
  | exception Fact.Unsat -> None

(* ----- the op set ----- *)

(* one action per argument position of a body literal, fixed at compile
   time from the plan's binding order *)
type action =
  | Check_const of Term.const  (* argument is a constant: fact must agree *)
  | Check_reg of int  (* variable bound earlier: fact must unify with the register *)
  | Bind_reg of int  (* first occurrence: write the fact's value to the register *)

(* sources of the probe's bound columns: positions holding a compile-time
   constant or an earlier-bound variable's register.  Never-bound positions
   are omitted — they can contribute no index key. *)
type probe_src = PS_const of int * Term.const | PS_reg of int * int

(* sources of the head fact's positions, resolved against the final
   register assignment: a constant, a body-bound variable's register, or a
   variable no body literal binds (constraint-computed or universal) *)
type hsrc = H_const of Term.const | H_reg of int | H_var of Var.t

type cstep = {
  c_lit : Literal.t;  (* the original body literal (predicate, shape) *)
  c_arity : int;
  c_orig : int;  (* original body position, for used-fact ordering *)
  c_part : Store.partition;
  c_actions : action array;
  c_probe : probe_src array;
}

type code = {
  c_rule : Rule.t;
  c_steps : cstep array;
  c_used_perm : int array;  (* step indices sorted by original position *)
  c_nregs : int;
  c_reg_of : int Var.Map.t;  (* rule variable -> register *)
  c_head : hsrc array;  (* head argument layout *)
}

let rule code = code.c_rule

(* total per-argument actions across the program's steps *)
let ops code =
  Array.fold_left (fun acc s -> acc + Array.length s.c_actions) 0 code.c_steps

(* ----- compilation ----- *)

let compile (rule : Rule.t) (plan : Planner.plan) : code =
  let reg_of = ref Var.Map.empty in
  let nregs = ref 0 in
  let compile_step (step : Planner.step) (bound_before, _newly) =
    (* probe columns use the bindings available when the step starts; a
       position neither constant nor bound before the step still holds a
       variable and can contribute no index key *)
    let probe =
      List.concat
        (List.mapi
           (fun i (t : Term.t) ->
             match t with
             | Term.C c -> [ PS_const (i, c) ]
             | Term.V v ->
                 if Var.Set.mem v bound_before then
                   [ PS_reg (i, Var.Map.find v !reg_of) ]
                 else [])
           step.Planner.lit.Literal.args)
    in
    (* actions additionally see variables bound left-to-right within the
       step: the second occurrence of a repeated variable checks the
       register the first occurrence just wrote *)
    let seen = ref Var.Set.empty in
    let actions =
      List.map
        (fun (t : Term.t) ->
          match t with
          | Term.C c -> Check_const c
          | Term.V v ->
              if Var.Set.mem v bound_before || Var.Set.mem v !seen then
                Check_reg (Var.Map.find v !reg_of)
              else begin
                let r = !nregs in
                incr nregs;
                reg_of := Var.Map.add v r !reg_of;
                seen := Var.Set.add v !seen;
                Bind_reg r
              end)
        step.Planner.lit.Literal.args
    in
    {
      c_lit = step.Planner.lit;
      c_arity = Literal.arity step.Planner.lit;
      c_orig = step.Planner.orig;
      c_part = step.Planner.part;
      c_actions = Array.of_list actions;
      c_probe = Array.of_list probe;
    }
  in
  let steps =
    Array.of_list (List.map2 compile_step plan (Planner.step_bindings plan))
  in
  let perm = Array.init (Array.length steps) Fun.id in
  Array.sort (fun a b -> compare steps.(a).c_orig steps.(b).c_orig) perm;
  (* head layout against the final register assignment (every body variable
     is registered by now) *)
  let head_src =
    Array.of_list
      (List.map
         (fun (t : Term.t) ->
           match t with
           | Term.C c -> H_const c
           | Term.V v -> (
               match Var.Map.find_opt v !reg_of with
               | Some r -> H_reg r
               | None -> H_var v))
         rule.Rule.head.Literal.args)
  in
  let code =
    {
      c_rule = rule;
      c_steps = steps;
      c_used_perm = perm;
      c_nregs = !nregs;
      c_reg_of = !reg_of;
      c_head = head_src;
    }
  in
  Obs.incr ctr_programs;
  Obs.add ctr_ops (ops code);
  Obs.add ctr_frame code.c_nregs;
  code

(* ----- equation-chain solving at the leaf ----- *)

(* The classification of a rule variable at the leaf: bound to a number,
   bound to a symbol, or not bound by any body literal (a head computed by
   constraint arithmetic, e.g. [T = T1 + T2 + 30]). *)
type binding = B_num of Rat.t | B_sym | B_free

(* Solve the combined constraint's equational definitions of the free
   variables: an [=] atom whose terms contain exactly one free variable and
   otherwise only numbers forces that variable's value, and iterating to a
   fixpoint resolves triangular chains ([X = Y + 1, Y = Z + Z, ...]).  A
   forced value holds in {e every} satisfying assignment, so once all atoms
   evaluate under the extended environment that evaluation decides
   satisfiability exactly; if any atom stays undecided (symbol-bound or
   genuinely underdetermined variables) the caller falls back to the
   generic substitution + solver path.  Returns [None] when no variable
   was solved. *)
let solve_eq_chain classify atoms =
  let solved = ref Var.Map.empty in
  let value v =
    match Var.Map.find_opt v !solved with
    | Some _ as q -> q
    | None -> ( match classify v with B_num q -> Some q | B_sym | B_free -> None)
  in
  let solve_atom (a : Atom.t) =
    if a.Atom.op = Atom.Eq then begin
      let sum = ref (Linexpr.constant a.Atom.expr) in
      let unknown = ref None in
      let stuck = ref false in
      List.iter
        (fun (v, k) ->
          match value v with
          | Some q -> sum := Rat.add !sum (Rat.mul k q)
          | None -> (
              match (classify v, !unknown) with
              | B_free, None -> unknown := Some (v, k)
              | _ -> stuck := true))
        (Linexpr.terms a.Atom.expr);
      match (!stuck, !unknown) with
      | false, Some (v, k) -> solved := Var.Map.add v (Rat.neg (Rat.div !sum k)) !solved
      | _ -> ()
    end
  in
  let rec fix budget =
    let before = Var.Map.cardinal !solved in
    List.iter solve_atom atoms;
    if Var.Map.cardinal !solved > before && budget > 0 then fix (budget - 1)
  in
  fix (List.length atoms);
  if Var.Map.is_empty !solved then None else Some (value, !solved)

(* ----- execution ----- *)

let dummy_term = Term.C (Term.Sym "")
let dummy_fact = Fact.ground "" []

(* the fact's constant at a position of a ground fact *)
let fact_const_term (f : Fact.t) i : Term.t =
  match f.Fact.args.(i) with
  | Fact.Psym s -> Term.sym s
  | Fact.Pvar -> (
      match f.Fact.pinned.(i) with
      | Some q -> Term.num q
      | None -> assert false (* ground facts pin every numeric position *))

(* does a ground fact's position agree with a constant?  The [unify_terms]
   constant/constant case without building the fact-side term *)
let const_matches (c : Term.const) (f : Fact.t) i =
  match (c, f.Fact.args.(i)) with
  | Term.Sym s1, Fact.Psym s2 -> String.equal s1 s2
  | Term.Num q1, Fact.Pvar -> (
      match f.Fact.pinned.(i) with Some q2 -> Rat.equal q1 q2 | None -> false)
  | Term.Num _, Fact.Psym _ | Term.Sym _, Fact.Pvar -> false

type frame = { regs : Term.t array; chosen : Fact.t array }

let make_frame code =
  {
    regs = Array.make code.c_nregs dummy_term;
    (* every slot is written before any read: a step stores its candidate
       before descending, and the leaf only runs once all steps have *)
    chosen = Array.make (Array.length code.c_steps) dummy_fact;
  }

(* Apply one step's actions to a candidate fact.  Returns the updated side
   substitution (fresh-variable bindings) and body constraint, or [None] on
   a failed check.  Registers are overwritten in place: enumeration is a
   depth-first walk, so any later read of a register is dominated by the
   write of the current candidate. *)
let apply_fact (fr : frame) (st : cstep) f side cstr =
  let nargs = Array.length st.c_actions in
  if Fact.is_ground f then begin
    (* every position is a constant and the residual is [tt]: actions run
       as direct comparisons, no literal or substitution is built *)
    let rec go i side =
      if i = nargs then Some (side, cstr)
      else
        match st.c_actions.(i) with
        | Check_const c -> if const_matches c f i then go (i + 1) side else None
        | Check_reg r -> (
            match Subst.resolve side fr.regs.(r) with
            | Term.C c -> if const_matches c f i then go (i + 1) side else None
            | Term.V _ as t -> (
                (* register chain ends at an unbound fresh variable: bind it *)
                match Subst.unify_terms side t (fact_const_term f i) with
                | Some side' -> go (i + 1) side'
                | None -> None))
        | Bind_reg r ->
            fr.regs.(r) <- fact_const_term f i;
            go (i + 1) side
    in
    go 0 side
  end
  else begin
    let flit, fcstr = fact_literal f in
    let fargs = Array.of_list flit.Literal.args in
    let rec go i side =
      if i = nargs then Some (side, Conj.and_ cstr fcstr)
      else
        let fa = fargs.(i) in
        match st.c_actions.(i) with
        | Check_const c -> (
            match Subst.unify_terms side (Term.C c) fa with
            | Some side' -> go (i + 1) side'
            | None -> None)
        | Check_reg r -> (
            match Subst.unify_terms side fr.regs.(r) fa with
            | Some side' -> go (i + 1) side'
            | None -> None)
        | Bind_reg r ->
            fr.regs.(r) <- Subst.resolve side fa;
            go (i + 1) side
    in
    go 0 side
  end

(* the probe's bound columns: compile-time constants plus register reads
   that resolve to constants, ascending positions — a register chain ending
   at an unbound fresh variable contributes nothing, as the still-variable
   position of the resolved literal would not *)
let probe_cols (fr : frame) (st : cstep) side =
  let ps = st.c_probe in
  let n = Array.length ps in
  let rec go j =
    if j = n then ([], [])
    else
      match ps.(j) with
      | PS_const (i, c) ->
          let rest_p, rest_k = go (j + 1) in
          (i :: rest_p, c :: rest_k)
      | PS_reg (i, r) -> (
          match Subst.resolve side fr.regs.(r) with
          | Term.C c ->
              let rest_p, rest_k = go (j + 1) in
              (i :: rest_p, c :: rest_k)
          | Term.V _ -> go (j + 1))
  in
  go 0

let dummy_const = Term.Sym ""

(* a step's candidates: the store's index probe on the bound columns.  Only
   the arity guard runs here; every other [Fact.matches_literal] condition
   is re-checked by the step's actions *)
let iter_cands store (st : cstep) positions key k =
  Store.iter_probe_cols store st.c_part st.c_lit.Literal.pred positions key (fun f ->
      if Fact.arity f = st.c_arity then k f)

let run_from (code : code) (fr : frame) store ~emit start side0 cstr0 =
  let nsteps = Array.length code.c_steps in
  let rule = code.c_rule in
  let hpred = rule.Rule.head.Literal.pred in
  let leaf side cstr =
    let lookup v =
      match Var.Map.find_opt v code.c_reg_of with
      | Some r -> Subst.resolve side fr.regs.(r)
      | None -> Subst.resolve side (Term.V v)
    in
    let combined = Conj.and_ rule.Rule.cstr cstr in
    (* all-constant head off the precomputed layout, ending in the
       canonicalization-free [Fact.of_consts]; [value] supplies values the
       equation-chain solver forced for otherwise-unbound variables.
       Returns [None] only when some head position stays a variable — the
       caller then builds the non-ground fact generically. *)
    (* [Fact.of_consts] skips the solver, so in integer mode a non-integral
       numeric head constant must not take this path: over ℤ the pin
       [$i = q] is unsatisfiable, which [Fact.make] on the generic path
       detects.  Bailing to [None] keeps the fast path exact. *)
    let const_ok =
      if Cdomain.is_z () then function Term.Num q -> Rat.is_integer q | Term.Sym _ -> true
      else fun _ -> true
    in
    let head_consts value =
      let hs = code.c_head in
      let n = Array.length hs in
      let consts = Array.make n dummy_const in
      let rec go i =
        if i = n then Some (Fact.of_consts hpred consts)
        else
          let t =
            match hs.(i) with
            | H_const c -> Term.C c
            | H_reg r -> Subst.resolve side fr.regs.(r)
            | H_var v -> Subst.resolve side (Term.V v)
          in
          match t with
          | Term.C c ->
              if const_ok c then begin
                consts.(i) <- c;
                go (i + 1)
              end
              else None
          | Term.V v -> (
              match value v with
              | Some q when const_ok (Term.Num q) ->
                  consts.(i) <- Term.Num q;
                  go (i + 1)
              | Some _ | None -> None)
      in
      go 0
    in
    let head =
      (* evaluate the combined constraint directly off the registers; only
         an undecided atom (unbound or symbolic variable) pays for the
         generic substitution + solver path *)
      let env v =
        match (lookup v : Term.t) with Term.C (Term.Num q) -> Some q | _ -> None
      in
      match Conj.eval_at env combined with
      | Some false -> None
      | Some true -> (
          match head_consts (fun _ -> None) with
          | Some _ as f -> f
          | None -> build_head_fast ~lookup rule)
      | None -> (
          (* some variable is not bound by the body literals; solve the
             arithmetic chain off the registers before paying for generic
             substitution, interning and the solver *)
          let classify v =
            match (lookup v : Term.t) with
            | Term.C (Term.Num q) -> B_num q
            | Term.C (Term.Sym _) -> B_sym
            | Term.V _ -> B_free
          in
          match solve_eq_chain classify (Conj.to_list combined) with
          | Some (_, solved)
            when Cdomain.is_z () && Var.Map.exists (fun _ q -> not (Rat.is_integer q)) solved ->
              (* a forced value holds in every satisfying assignment, so a
                 non-integral one proves the combined constraint has no
                 integer solution — exactly what the generic path's
                 [Conj.is_sat] would conclude *)
              None
          | Some (value, _) -> (
              match Conj.eval_at value combined with
              | Some false -> None
              | Some true -> (
                  match head_consts value with
                  | Some _ as f -> f
                  | None ->
                      let lookup v =
                        match value v with
                        | Some q -> Term.C (Term.Num q)
                        | None -> lookup v
                      in
                      build_head_fast ~lookup rule)
              | None -> derive_from_combined ~lookup rule combined)
          | None -> derive_from_combined ~lookup rule combined)
    in
    match head with
    | None -> ()
    | Some f ->
        let used =
          Array.fold_right (fun i acc -> fr.chosen.(i) :: acc) code.c_used_perm []
        in
        emit f used
  in
  let rec step_loop si side cstr =
    if si = nsteps then leaf side cstr
    else begin
      let st = code.c_steps.(si) in
      let positions, key = probe_cols fr st side in
      iter_cands store st positions key (fun f ->
          match apply_fact fr st f side cstr with
          | None -> ()
          | Some (side', cstr') ->
              fr.chosen.(si) <- f;
              step_loop (si + 1) side' cstr')
    end
  in
  step_loop start side0 cstr0

let exec (code : code) store ~emit =
  let fr = make_frame code in
  run_from code fr store ~emit 0 Subst.empty Conj.tt

(* the first step's candidates in enumeration order: no register is bound
   yet, so the probe keys on the step's constants only *)
let seeds (code : code) store =
  match code.c_steps with
  | [||] -> []
  | steps ->
      let st = steps.(0) in
      let positions, key = probe_cols (make_frame code) st Subst.empty in
      let acc = ref [] in
      iter_cands store st positions key (fun f -> acc := f :: !acc);
      List.rev !acc

(* parallel-task entry: step 0's candidate is fixed (one of the task's
   slice of [seeds]) *)
let exec_seeded (code : code) store ~seed ~emit =
  let fr = make_frame code in
  match code.c_steps with
  | [||] -> ()
  | steps -> (
      match apply_fact fr steps.(0) seed Subst.empty Conj.tt with
      | None -> ()
      | Some (side, cstr) ->
          fr.chosen.(0) <- seed;
          run_from code fr store ~emit 1 side cstr)
