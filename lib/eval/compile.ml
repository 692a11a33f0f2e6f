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
   is the cross-check).  Enumeration order is the plan's.

   The rule's constraint is compiled too, into a straight-line program over
   value slots (the registers, then one slot per variable the constraint's
   equations solve).  A completed match runs it when the match is ground
   and numeric where the constraint reads it; every other candidate takes
   the generic finisher [derive_from_combined].

   Its atoms also guard the join: an atom whose last register is bound by
   one column of a step is a bound on that column, tested on each candidate
   before it is matched, so a pushed selection drops a candidate at the
   step that binds its column instead of at the leaf. *)

let ctr_programs = Obs.counter "engine.compile.programs_compiled"
let ctr_ops = Obs.counter "engine.compile.ops"
let ctr_frame = Obs.counter "engine.compile.frame_width"
let ctr_guard_rejects = Obs.counter "engine.join.guard_rejects"

(* ----- fact instantiation (shared with the reference evaluator) ----- *)

(* instantiate a stored fact as a literal: pinned numeric positions become
   constants (so ground workloads never touch the solver), the rest become
   fresh variables carrying the renamed residual constraints *)
let fact_literal (f : Fact.t) : Literal.t * Conj.t =
  let n = Fact.arity f in
  let fresh = Array.make n None in
  let args =
    List.init n (fun i ->
        match f.Fact.terms.(i) with
        | Term.C _ as t -> t
        | Term.V _ ->
            let v = Var.fresh "F" in
            fresh.(i) <- Some v;
            Term.var v)
  in
  let residual =
    match f.Fact.constr with
    | None -> Conj.tt
    | Some c ->
        (* substitute pinned values, rename the remaining canonical vars *)
        let pins = ref [] in
        Array.iteri
          (fun i t ->
            match t with
            | Term.C (Term.Num q) -> pins := (Var.arg (i + 1), Linexpr.const q) :: !pins
            | Term.C (Term.Sym _) | Term.V _ -> ())
          f.Fact.terms;
        let ren v =
          match Var.arg_index v with
          | Some i when i >= 1 && i <= n -> (
              match fresh.(i - 1) with Some fv -> fv | None -> v)
          | _ -> v
        in
        Conj.rename ren (Conj.subst !pins c)
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
          | Term.C (Term.Num q) -> atoms := Atom.pin ai q :: !atoms
          | Term.V v -> atoms := Atom.eq (Linexpr.var ai) (Linexpr.var v) :: !atoms)
        head.Literal.args;
      match Fact.make head.Literal.pred args (Conj.of_list !atoms) with
      | f -> Some f
      | exception Fact.Unsat -> None
    end
  with Subst.Type_error _ -> None (* symbolic constant met an arithmetic constraint *)

let derive_head_env ~lookup (rule : Rule.t) body_cstr : Fact.t option =
  derive_from_combined ~lookup rule (Conj.and_ rule.Rule.cstr body_cstr)

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

(* A linear form [const + Σ coefs.(i) · slot (slots.(i))] over the value
   slots.  Atoms are integerized on construction ([Atom.make]), so the
   coefficients and the constant are integers; [n_coefs]/[n_const] repeat
   them as native ints, meaningful only in a [p_native] program. *)
type form = {
  slots : int array;
  coefs : Rat.t array;
  const : Rat.t;
  n_coefs : int array;
  n_const : int;
}

type instr =
  | Solve of { dst : int; k : Rat.t; n_k : int; rest : form }
      (** an [=] atom [k·x + rest = 0] whose one unknown [x] gets slot
          [dst]: [x := −rest / k] *)
  | Check of Atom.op * form  (** the atom [form op 0] must hold *)

(* sources of the head fact's positions: a constant, a body-bound
   variable's register, or the slot of a variable the program solves *)
type hsrc = H_const of Term.const | H_reg of int | H_slot of int

type cprog = {
  p_instrs : instr array;
  p_reads : int array;  (* registers some instruction reads *)
  p_nslots : int;
  p_native : bool;  (* every form is small enough for native-int evaluation *)
  p_head : hsrc array;
}

(* where a guarded column must lie relative to the guard's bound *)
type bound_kind = At_most | Below | At_least | Above | Exactly

(* a guard atom, [Σ a_coefs.(i) · a_regs.(i) + a_const op 0] over registers *)
type gatom = { a_op : Atom.op; a_regs : int array; a_coefs : Rat.t array; a_const : Rat.t }

(* A join guard: a guard atom [k·x + rest op 0] where [x] is bound by
   column [g_col] of the guard's step and [rest = Σ g_coefs.(i) ·
   g_regs.(i) + g_const] reads only registers earlier steps bind.  Per
   probe, the bound [rest · g_scale] ([g_scale = −1/k]) goes to the
   frame's slot [g_id]; per candidate, the column's value is compared with
   it. *)
type guard = {
  g_id : int;
  g_col : int;
  g_kind : bound_kind;
  g_scale : Rat.t;
  g_regs : int array;
  g_coefs : Rat.t array;
  g_const : Rat.t;
}

type cstep = {
  c_lit : Literal.t;  (* the original body literal (predicate, shape) *)
  c_arity : int;
  c_orig : int;  (* original body position, for used-fact ordering *)
  c_part : Store.partition;
  c_actions : action array;
  c_probe : probe_src array;
  c_positions : int list;  (* every probe column *)
  c_guards : guard array;
}

type code = {
  c_rule : Rule.t;
  c_pivot : string option;  (* the predicate the first step reads the delta of *)
  c_steps : cstep array;
  c_used_perm : int array;  (* step indices sorted by original position *)
  c_nguards : int;
  c_nregs : int;
  c_reg_of : int Var.Map.t;  (* rule variable -> register *)
  c_prog : cprog option;
      (* the rule's constraint and head over the slots; [None] when an atom
         or the head has a variable that is neither bound nor solved *)
}

let rule code = code.c_rule

(* total per-argument actions across the program's steps *)
let ops code =
  Array.fold_left (fun acc s -> acc + Array.length s.c_actions) 0 code.c_steps

(* ----- compilation ----- *)

(* Native evaluation is exact while no sum can overflow: at most
   [native_terms] products of a coefficient below [native_coef] and a value
   below [native_value], plus a constant below [native_value], stay under
   2^55.  Register values and solved values outside the bound send the
   candidate to [Rat] arithmetic instead. *)
let native_coef = 1 lsl 20
let native_value = 1 lsl 30
let native_terms = 16
let small_value q = Rat.to_small_int q <> min_int

let small_coef q =
  let n = Rat.to_small_int q in
  n <> min_int && abs n < native_coef

let form_of slot terms const =
  let n = List.length terms in
  let slots = Array.make n 0 and coefs = Array.make n Rat.zero in
  List.iteri
    (fun i (v, k) ->
      slots.(i) <- slot v;
      coefs.(i) <- k)
    terms;
  {
    slots;
    coefs;
    const;
    n_coefs = Array.map Rat.to_small_int coefs;
    n_const = Rat.to_small_int const;
  }

let native_form f =
  Array.length f.slots <= native_terms
  && Array.for_all small_coef f.coefs
  && small_value f.const

(* Compile [rule.cstr] over the slots: the registers first, then one slot
   per solved variable.  The equation chain is solved here, once per rule:
   passes over the atoms turn each [=] atom with exactly one variable that
   is neither registered nor solved into a [Solve] of that variable, until a
   pass solves nothing (the solvable set is the same in any atom order).
   Every other atom becomes a [Check], placed right after the last [Solve]
   it reads, so register-only checks run first.  The program is [None] when
   an atom keeps an unknown, or a head variable is neither bound nor
   solved: such a rule always takes the generic path.

   The second result is the join guards' atoms: every check without an
   unknown, with each solved variable replaced by its definition over the
   registers, as [Conj.eliminate] does for an equality.  The rule's
   constraint implies each of them, so a candidate whose registers falsify
   one derives nothing, on the compiled path and on the generic one. *)
let compile_cstr (rule : Rule.t) reg_of nregs =
  let solved = ref Var.Map.empty and nslots = ref nregs in
  let slot_opt v =
    match Var.Map.find_opt v reg_of with Some _ as r -> r | None -> Var.Map.find_opt v !solved
  in
  let unknowns terms = List.filter (fun (v, _) -> Option.is_none (slot_opt v)) terms in
  let solves = ref [] in
  let rec chain pending =
    let progress = ref false in
    let pending =
      List.filter
        (fun ((a : Atom.t), terms) ->
          match (a.Atom.op, unknowns terms) with
          | Atom.Eq, [ (x, k) ] ->
              let dst = !nslots in
              incr nslots;
              solved := Var.Map.add x dst !solved;
              let rest = List.filter (fun (v, _) -> not (Var.equal v x)) terms in
              solves := (x, a, dst, k, rest, Linexpr.constant a.Atom.expr) :: !solves;
              progress := true;
              false
          | _ -> true)
        pending
    in
    if !progress then chain pending else pending
  in
  let atoms =
    List.map (fun (a : Atom.t) -> (a, Linexpr.terms a.Atom.expr)) (Conj.to_list rule.Rule.cstr)
  in
  let checks = chain atoms in
  (* in solving order, each [k·x + rest = 0] defines [x = −rest/k] over the
     registers once the earlier definitions are substituted into [rest] *)
  let defs =
    List.fold_left
      (fun defs (x, (a : Atom.t), _, k, _, _) ->
        let rest = Linexpr.subst defs (Linexpr.sub a.Atom.expr (Linexpr.term k x)) in
        defs @ [ (x, Linexpr.scale (Rat.neg (Rat.inv k)) rest) ])
      [] (List.rev !solves)
  in
  let gatom (a : Atom.t) =
    let terms = Linexpr.terms a.Atom.expr in
    {
      a_op = a.Atom.op;
      a_regs = Array.of_list (List.map (fun (v, _) -> Var.Map.find v reg_of) terms);
      a_coefs = Array.of_list (List.map snd terms);
      a_const = Linexpr.constant a.Atom.expr;
    }
  in
  let guard_atoms =
    List.filter_map
      (fun (a, terms) -> if unknowns terms = [] then Some (gatom (Atom.subst defs a)) else None)
      checks
  in
  let head_slot = function
    | Term.C c -> Some (H_const c)
    | Term.V v -> (
        match Var.Map.find_opt v reg_of with
        | Some r -> Some (H_reg r)
        | None -> Option.map (fun s -> H_slot s) (Var.Map.find_opt v !solved))
  in
  let head = List.map head_slot rule.Rule.head.Literal.args in
  if List.exists (fun (_, terms) -> unknowns terms <> []) checks
     || not (List.for_all Option.is_some head)
  then (None, guard_atoms)
  else begin
    let slot v = Option.get (slot_opt v) in
    (* a check is ready once the highest slot it reads is written *)
    let ready (_, terms) = List.fold_left (fun m (v, _) -> max m (slot v)) (-1) terms in
    let check ((a : Atom.t), terms) =
      Check (a.Atom.op, form_of slot terms (Linexpr.constant a.Atom.expr))
    in
    let checks_at p = List.map check (List.filter p checks) in
    let instrs =
      checks_at (fun c -> ready c < nregs)
      @ List.concat_map
          (fun (_, _, dst, k, rest, const) ->
            Solve { dst; k; n_k = Rat.to_small_int k; rest = form_of slot rest const }
            :: checks_at (fun c -> ready c = dst))
          (List.rev !solves)
    in
    let reads = Array.make nregs false in
    let read (v, _) = Option.iter (fun r -> reads.(r) <- true) (Var.Map.find_opt v reg_of) in
    List.iter (fun (_, terms) -> List.iter read terms) atoms;
    ( Some
        {
          p_instrs = Array.of_list instrs;
          p_reads = Array.of_list (List.filter (fun r -> reads.(r)) (List.init nregs Fun.id));
          p_nslots = !nslots;
          p_native =
            List.for_all
              (function
                | Check (_, f) -> native_form f
                | Solve { k; rest; _ } -> small_coef k && native_form rest)
              instrs;
          p_head = Array.of_list (List.map Option.get head);
        },
      guard_atoms )
  end

(* Registers are numbered once per rule, by first occurrence in the body,
   so every plan of the rule shares one register layout and one constraint
   program *)
let registers (rule : Rule.t) =
  List.fold_left
    (fun acc (l : Literal.t) ->
      List.fold_left
        (fun (reg_of, n) (t : Term.t) ->
          match t with
          | Term.V v when not (Var.Map.mem v reg_of) -> (Var.Map.add v n reg_of, n + 1)
          | Term.V _ | Term.C _ -> (reg_of, n))
        acc l.Literal.args)
    (Var.Map.empty, 0) rule.Rule.body

(* the first column of a literal's arguments holding a variable of
   register [r] *)
let rec column reg_of r i = function
  | Term.V v :: _ when Var.Map.find v reg_of = r -> i
  | _ :: rest -> column reg_of r (i + 1) rest
  | [] -> invalid_arg "Compile.column"

(* without its element [j] *)
let drop j a = Array.init (Array.length a - 1) (fun i -> if i < j then a.(i) else a.(i + 1))

(* A guard atom goes to the step that first binds its last register, when
   exactly one of its registers is first bound there: it reads
   [k·x + rest op 0] with [x] bound by the first column of that step's
   literal holding it, and [rest] over earlier registers.  An atom with two
   registers first bound at one step (or none, a constant atom) is left to
   the leaf.  [first.(r)] is the step that first binds register [r]; each
   placed guard is added to [per_step] under the next id. *)
let place_guard reg_of (first : int array) (lits : Literal.t array) per_step nguards a =
  let s = ref (-1) and x = ref (-1) and at_s = ref 0 in
  for i = 0 to Array.length a.a_regs - 1 do
    let fs = first.(a.a_regs.(i)) in
    if fs > !s then begin
      s := fs;
      x := i;
      at_s := 1
    end
    else if fs = !s then incr at_s
  done;
  if !at_s = 1 then begin
    let s = !s and x = !x in
    let k = a.a_coefs.(x) in
    let g_kind =
      match (a.a_op, Rat.sign k > 0) with
      | Atom.Le, true -> At_most
      | Atom.Le, false -> At_least
      | Atom.Lt, true -> Below
      | Atom.Lt, false -> Above
      | Atom.Eq, _ -> Exactly
    in
    let g =
      {
        g_id = !nguards;
        g_col = column reg_of a.a_regs.(x) 0 lits.(s).Literal.args;
        g_kind;
        g_scale = Rat.neg (Rat.inv k);
        g_regs = drop x a.a_regs;
        g_coefs = drop x a.a_coefs;
        g_const = a.a_const;
      }
    in
    incr nguards;
    per_step.(s) <- g :: per_step.(s)
  end

let compile_plan (rule : Rule.t) reg_of nregs (prog, guard_atoms) (plan : Planner.plan) : code =
  let bindings = Planner.step_bindings plan in
  let lits = Array.of_list (List.map (fun (st : Planner.step) -> st.Planner.lit) plan) in
  let first = Array.make nregs 0 in
  List.iteri
    (fun s (_, newly) -> Var.Set.iter (fun v -> first.(Var.Map.find v reg_of) <- s) newly)
    bindings;
  let per_step = Array.make (Array.length lits) [] and nguards = ref 0 in
  List.iter (place_guard reg_of first lits per_step nguards) guard_atoms;
  let compile_step s (step : Planner.step) (bound_before, _newly) =
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
                 if Var.Set.mem v bound_before then [ PS_reg (i, Var.Map.find v reg_of) ]
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
                Check_reg (Var.Map.find v reg_of)
              else begin
                seen := Var.Set.add v !seen;
                Bind_reg (Var.Map.find v reg_of)
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
      c_positions = List.map (function PS_const (i, _) | PS_reg (i, _) -> i) probe;
      c_guards = Array.of_list (List.rev per_step.(s));
    }
  in
  let steps =
    Array.of_list
      (List.mapi (fun s (step, b) -> compile_step s step b) (List.combine plan bindings))
  in
  let perm = Array.init (Array.length steps) Fun.id in
  Array.sort (fun a b -> compare steps.(a).c_orig steps.(b).c_orig) perm;
  (* the planner places the semi-naive pivot first *)
  let pivot =
    if Array.length steps > 0 && steps.(0).c_part = Store.Delta then
      Some steps.(0).c_lit.Literal.pred
    else None
  in
  let code =
    {
      c_rule = rule;
      c_pivot = pivot;
      c_steps = steps;
      c_used_perm = perm;
      c_nguards = !nguards;
      c_nregs = nregs;
      c_reg_of = reg_of;
      c_prog = prog;
    }
  in
  Obs.incr ctr_programs;
  Obs.add ctr_ops (ops code);
  Obs.add ctr_frame code.c_nregs;
  code

(* partially applied to a rule, the registers, the constraint program and
   the guard atoms are built once for all of the rule's plans *)
let compile (rule : Rule.t) =
  let reg_of, nregs = registers rule in
  let cstr = compile_cstr rule reg_of nregs in
  fun plan -> compile_plan rule reg_of nregs cstr plan

(* ----- execution ----- *)

let dummy_term = Term.C (Term.Sym "")
let dummy_const = Term.Sym ""
let dummy_fact = Fact.ground "" []

(* does a ground fact's position agree with a constant?  The [unify_terms]
   constant/constant case, on the fact's own term *)
let const_matches (c : Term.const) (f : Fact.t) i =
  match f.Fact.terms.(i) with Term.C c' -> Term.equal_const c c' | Term.V _ -> false

type frame = {
  regs : Term.t array;
  chosen : Fact.t array;
  (* the constraint program's value slots, native and exact *)
  ivals : int array;
  qvals : Rat.t array;
  hconsts : Term.const array;  (* the head under construction *)
  (* each guard's bound for the current probe of its step, and whether it
     is on (every register it reads holds a number) *)
  bounds : Rat.t array;
  bound_on : bool array;
  mutable rejects : int;  (* candidates the guards dropped *)
  (* each step's side substitution and body constraint, for its probe *)
  sides : Subst.t array;
  cstrs : Conj.t array;
}

let make_frame code =
  let nslots, head =
    match code.c_prog with Some p -> (p.p_nslots, p.p_head) | None -> (0, [||])
  in
  {
    regs = Array.make code.c_nregs dummy_term;
    (* every slot is written before any read: a step stores its candidate
       before descending, and the leaf only runs once all steps have *)
    chosen = Array.make (Array.length code.c_steps) dummy_fact;
    ivals = Array.make nslots 0;
    qvals = Array.make nslots Rat.zero;
    (* constant head positions are written once, here *)
    hconsts = Array.map (function H_const c -> c | H_reg _ | H_slot _ -> dummy_const) head;
    bounds = Array.make code.c_nguards Rat.zero;
    bound_on = Array.make code.c_nguards false;
    rejects = 0;
    sides = Array.make (Array.length code.c_steps) Subst.empty;
    cstrs = Array.make (Array.length code.c_steps) Conj.tt;
  }

(* Apply one step's actions to a candidate fact, the generic way: the fact
   instantiated as a literal, every position unified through the side
   substitution (fresh-variable bindings).  Returns the updated side
   substitution and body constraint, or [None] on a failed check.
   Registers are overwritten in place: enumeration is a depth-first walk,
   so any later read of a register is dominated by the write of the
   current candidate. *)
let apply_fact (fr : frame) (st : cstep) f side cstr =
  let nargs = Array.length st.c_actions in
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

type ground_match = Match | No_match | Generic

(* The ground fast path, for a ground candidate under an empty side
   substitution: every action is a direct comparison or a register write
   of the fact's own term, and nothing is allocated.  [Generic] when a
   register it checks holds a variable (bound by a non-ground fact), which
   only [apply_fact] can unify. *)
let rec match_ground (regs : Term.t array) (acts : action array) (f : Fact.t) i =
  if i = Array.length acts then Match
  else
    match acts.(i) with
    | Check_const c ->
        if const_matches c f i then match_ground regs acts f (i + 1) else No_match
    | Check_reg r -> (
        match regs.(r) with
        | Term.C c -> if const_matches c f i then match_ground regs acts f (i + 1) else No_match
        | Term.V _ -> Generic)
    | Bind_reg r ->
        regs.(r) <- f.Fact.terms.(i);
        match_ground regs acts f (i + 1)

(* The probe's bound columns: compile-time constants plus register reads
   that resolve to constants, ascending positions — a register chain ending
   at an unbound fresh variable contributes nothing, as the still-variable
   position of the resolved literal would not.  Positions and key are built
   by top-level loops, so a probe allocates their lists alone, and when
   every register resolves the positions are the step's [c_positions]. *)
let rec build_positions regs side (ps : probe_src array) j =
  if j = Array.length ps then []
  else
    match ps.(j) with
    | PS_const (i, _) -> i :: build_positions regs side ps (j + 1)
    | PS_reg (i, r) ->
        if Term.is_ground (Subst.resolve side regs.(r)) then
          i :: build_positions regs side ps (j + 1)
        else build_positions regs side ps (j + 1)

let rec all_resolve regs side (ps : probe_src array) j =
  j = Array.length ps
  || (match ps.(j) with
     | PS_const _ -> true
     | PS_reg (_, r) -> Term.is_ground (Subst.resolve side regs.(r)))
     && all_resolve regs side ps (j + 1)

let probe_positions regs side st =
  if all_resolve regs side st.c_probe 0 then st.c_positions
  else build_positions regs side st.c_probe 0

let rec probe_key regs side (ps : probe_src array) j =
  if j = Array.length ps then []
  else
    match ps.(j) with
    | PS_const (_, c) -> c :: probe_key regs side ps (j + 1)
    | PS_reg (_, r) -> (
        match Subst.resolve side regs.(r) with
        | Term.C c -> c :: probe_key regs side ps (j + 1)
        | Term.V _ -> probe_key regs side ps (j + 1))

(* ----- join guards ----- *)

(* [g]'s bound for this probe into [bounds]: [rest], with every register
   resolved through [side], times [g_scale].  [false] (the guard is off)
   when a register does not resolve to a number.  Small values allocate
   nothing. *)
let rec load_bound regs side (g : guard) (bounds : Rat.t array) i acc =
  if i = Array.length g.g_regs then begin
    bounds.(g.g_id) <- Rat.mul acc g.g_scale;
    true
  end
  else
    match Subst.resolve side regs.(g.g_regs.(i)) with
    | Term.C (Term.Num q) ->
        load_bound regs side g bounds (i + 1) (Rat.add acc (Rat.mul g.g_coefs.(i) q))
    | Term.C (Term.Sym _) | Term.V _ -> false

let rec load_bounds (fr : frame) side (gs : guard array) i =
  if i < Array.length gs then begin
    let g = gs.(i) in
    fr.bound_on.(g.g_id) <- load_bound fr.regs side g fr.bounds 0 g.g_const;
    load_bounds fr side gs (i + 1)
  end

let within kind c =
  match kind with
  | At_most -> c <= 0
  | Below -> c < 0
  | At_least -> c >= 0
  | Above -> c > 0
  | Exactly -> c = 0

(* Does the candidate pass every guard of its step?  A guard tests the
   candidate's own value in its column; a column holding a variable (a
   constraint fact) or a symbol passes, as does every guard that is off. *)
let rec guards_pass (fr : frame) (gs : guard array) (f : Fact.t) i =
  i = Array.length gs
  ||
  let g = gs.(i) in
  (match f.Fact.terms.(g.g_col) with
  | Term.C (Term.Num q) when fr.bound_on.(g.g_id) ->
      within g.g_kind (Rat.compare q fr.bounds.(g.g_id))
  | Term.C _ | Term.V _ -> true)
  && guards_pass fr gs f (i + 1)

(* ----- the constraint program at the leaf ----- *)

type verdict = Accept | Reject | Unfit

let holds_native op n = match (op : Atom.op) with Le -> n <= 0 | Lt -> n < 0 | Eq -> n = 0

let holds_exact op q =
  let c = Rat.sign q in
  match (op : Atom.op) with Le -> c <= 0 | Lt -> c < 0 | Eq -> c = 0

let sum_native f (vals : int array) =
  let acc = ref f.n_const in
  for i = 0 to Array.length f.slots - 1 do
    acc := !acc + (f.n_coefs.(i) * vals.(f.slots.(i)))
  done;
  !acc

let sum_exact f (vals : Rat.t array) =
  let acc = ref f.const in
  for i = 0 to Array.length f.slots - 1 do
    acc := Rat.add !acc (Rat.mul f.coefs.(i) vals.(f.slots.(i)))
  done;
  !acc

(* Native ints while every value stays below [native_value]; [Unfit] hands
   the candidate to [run_exact] (a solved value too large, or a fraction in
   Q).  In Z a fractional solved value rejects: a value forced by an
   equation holds in every satisfying assignment, so a fraction proves there
   is no integer one — what [Conj.is_sat] on the generic path concludes. *)
let rec run_native instrs (vals : int array) ~z i =
  if i = Array.length instrs then Accept
  else
    match instrs.(i) with
    | Check (op, f) ->
        if holds_native op (sum_native f vals) then run_native instrs vals ~z (i + 1)
        else Reject
    | Solve { dst; n_k; rest; _ } ->
        let r = sum_native rest vals in
        if r mod n_k <> 0 then if z then Reject else Unfit
        else
          let x = -(r / n_k) in
          if x >= native_value || x <= -native_value then Unfit
          else begin
            vals.(dst) <- x;
            run_native instrs vals ~z (i + 1)
          end

let rec run_exact instrs (vals : Rat.t array) ~z i =
  if i = Array.length instrs then Accept
  else
    match instrs.(i) with
    | Check (op, f) ->
        if holds_exact op (sum_exact f vals) then run_exact instrs vals ~z (i + 1)
        else Reject
    | Solve { dst; k; rest; _ } ->
        let x = Rat.neg (Rat.div (sum_exact rest vals) k) in
        if z && not (Rat.is_integer x) then Reject
        else begin
          vals.(dst) <- x;
          run_exact instrs vals ~z (i + 1)
        end

(* Load the registers the program reads into both slot arrays:
   [Not_numeric] when one does not resolve to a number, [Large] when some
   value is too big for native ints *)
type loaded = Not_numeric | Large | Small

let rec load_reads p (fr : frame) side j acc =
  if j = Array.length p.p_reads then acc
  else
    let r = p.p_reads.(j) in
    match Subst.resolve side fr.regs.(r) with
    | Term.C (Term.Num q) ->
        fr.qvals.(r) <- q;
        let n = Rat.to_small_int q in
        if n = min_int then load_reads p fr side (j + 1) Large
        else begin
          fr.ivals.(r) <- n;
          load_reads p fr side (j + 1) acc
        end
    | Term.C (Term.Sym _) | Term.V _ -> Not_numeric

(* the head's register positions into [fr.hconsts]: each must resolve to a
   constant, and in Z a number, the head's own constants included, must be
   an integer (over ℤ a fractional pin [$i = q] is unsatisfiable, which only
   the generic path's [Fact.make] decides) *)
let rec load_head p (fr : frame) side ~z i =
  i = Array.length p.p_head
  ||
  match p.p_head.(i) with
  | H_reg r -> (
      match Subst.resolve side fr.regs.(r) with
      | Term.C (Term.Num q) when z && not (Rat.is_integer q) -> false
      | Term.C c ->
          fr.hconsts.(i) <- c;
          load_head p fr side ~z (i + 1)
      | Term.V _ -> false)
  | H_const (Term.Num q) when z && not (Rat.is_integer q) -> false
  | H_const _ | H_slot _ -> load_head p fr side ~z (i + 1)

let store_solved p (fr : frame) ~native =
  Array.iteri
    (fun i h ->
      match h with
      | H_slot s ->
          fr.hconsts.(i) <-
            Term.Num (if native then Rat.of_int fr.ivals.(s) else fr.qvals.(s))
      | H_const _ | H_reg _ -> ())
    p.p_head

(* an accepting program's head: [Unfit] when a head register does not
   hold what [load_head] requires *)
let finish_head p (fr : frame) side ~z ~native =
  if load_head p fr side ~z 0 then begin
    store_solved p fr ~native;
    Accept
  end
  else Unfit

let finish_exact p (fr : frame) side ~z =
  match run_exact p.p_instrs fr.qvals ~z 0 with
  | Accept -> finish_head p fr side ~z ~native:false
  | (Reject | Unfit) as v -> v

(* The leaf contract: a ground match whose registers hold what the program
   reads and the head needs runs the program — [Accept] leaves the head in
   [fr.hconsts], [Reject] is exact — and everything else is [Unfit] for it
   and takes [derive_from_combined]; there is no path in between.  The
   head is loaded only once the program accepts: a rejection is exact
   whatever the head holds, and the generic path would reject too. *)
let run_program p (fr : frame) side ~z =
  match load_reads p fr side 0 Small with
  | Not_numeric -> Unfit
  | Small when p.p_native -> (
      match run_native p.p_instrs fr.ivals ~z 0 with
      | Accept -> finish_head p fr side ~z ~native:true
      | Reject -> Reject
      | Unfit -> finish_exact p fr side ~z)
  | Large | Small -> finish_exact p fr side ~z

(* The first step probes the pivot's delta: when that partition is empty
   the plan derives nothing, and the probe is counted as answered empty
   without a frame being built. *)
let idle code store =
  match code.c_pivot with
  | None -> false
  | Some pred ->
      Store.probe_empty_delta store pred ~indexed:(Array.length code.c_steps.(0).c_probe > 0)

(* the chosen facts in original body order, by a top-level loop: a
   derivation allocates the list alone *)
let rec used_facts (chosen : Fact.t array) perm i acc =
  if i < 0 then acc else used_facts chosen perm (i - 1) (chosen.(perm.(i)) :: acc)

let exec (code : code) store ~emit =
  let fr = make_frame code in
  let nsteps = Array.length code.c_steps in
  let rule = code.c_rule in
  let hpred = rule.Rule.head.Literal.pred in
  let z = Cdomain.is_z () in
  let emit_used f =
    emit f (used_facts fr.chosen code.c_used_perm (Array.length code.c_used_perm - 1) [])
  in
  let generic side cstr =
    let lookup v =
      match Var.Map.find_opt v code.c_reg_of with
      | Some r -> Subst.resolve side fr.regs.(r)
      | None -> Subst.resolve side (Term.V v)
    in
    Option.iter emit_used (derive_from_combined ~lookup rule (Conj.and_ rule.Rule.cstr cstr))
  in
  let leaf side cstr =
    match code.c_prog with
    | Some p when Conj.is_tt cstr -> (
        match run_program p fr side ~z with
        | Accept -> emit_used (Fact.of_consts hpred fr.hconsts)
        | Reject -> ()
        | Unfit -> generic side cstr)
    | Some _ | None -> generic side cstr
  in
  (* a step's candidates: the store's index probe on the bound columns,
     filtered by the arity and the step's guards; every other
     [Fact.matches_literal] condition is re-checked by the actions.  Each
     step's callback is built once per call and reads the side
     substitution and body constraint of its probe from the frame, so a
     probe allocates no closure. *)
  let visits = Array.make nsteps ignore in
  let rec step_loop si side cstr =
    if si = nsteps then leaf side cstr
    else begin
      let st = code.c_steps.(si) in
      fr.sides.(si) <- side;
      fr.cstrs.(si) <- cstr;
      let positions = probe_positions fr.regs side st in
      let key = probe_key fr.regs side st.c_probe 0 in
      load_bounds fr side st.c_guards 0;
      Store.iter_probe_cols store st.c_part st.c_lit.Literal.pred positions key visits.(si)
    end
  and visit si f =
    let st = code.c_steps.(si) and side = fr.sides.(si) and cstr = fr.cstrs.(si) in
    let m =
      if Fact.arity f <> st.c_arity then No_match
      else if not (guards_pass fr st.c_guards f 0) then begin
        fr.rejects <- fr.rejects + 1;
        No_match
      end
      else if Subst.is_empty side && Fact.is_ground f then match_ground fr.regs st.c_actions f 0
      else Generic
    in
    match m with
    | Match ->
        fr.chosen.(si) <- f;
        step_loop (si + 1) side cstr
    | No_match -> ()
    | Generic -> (
        match apply_fact fr st f side cstr with
        | None -> ()
        | Some (side', cstr') ->
            fr.chosen.(si) <- f;
            step_loop (si + 1) side' cstr')
  in
  for si = 0 to nsteps - 1 do
    visits.(si) <- visit si
  done;
  step_loop 0 Subst.empty Conj.tt;
  if fr.rejects > 0 then Obs.add ctr_guard_rejects fr.rejects
