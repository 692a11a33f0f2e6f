open Cql_num
open Cql_constr
open Cql_datalog

type mode = Decidable | Linear | Int | Update

let mode_of_string = function
  | "decidable" -> Some Decidable
  | "linear" -> Some Linear
  | "int" -> Some Int
  | "update" -> Some Update
  | _ -> None

let mode_to_string = function
  | Decidable -> "decidable"
  | Linear -> "linear"
  | Int -> "int"
  | Update -> "update"

(* update mode draws its programs from the Theorem 5.1 class *)
let decidable mode = mode = Decidable || mode = Update

type config = {
  mode : mode;
  edb_preds : int;
  idb_preds : int;
  max_arity : int;
  max_rules_per_pred : int;
  max_body_lits : int;
  max_constraint_atoms : int;
  max_edb_facts : int;
  const_range : int;
  recursion : bool;
}

let default mode =
  {
    mode;
    edb_preds = 2;
    idb_preds = 3;
    max_arity = 2;
    max_rules_per_pred = 2;
    max_body_lits = 2;
    max_constraint_atoms = 2;
    (* update streams insert from the EDB pool, so it is twice as deep *)
    max_edb_facts = (if mode = Update then 8 else 4);
    const_range = 8;
    recursion = true;
  }

(* argument positions are typed at predicate creation: true = numeric,
   false = symbolic.  EDB facts and rule arguments respect the typing, so
   constraints only ever reach numeric variables. *)
type psig = { name : string; types : bool array }

let symbols = [ "a"; "b"; "c"; "d" ]

let gen_sig rng prefix i max_arity =
  let arity = 1 + Rng.int rng max_arity in
  {
    name = Printf.sprintf "%s%d" prefix i;
    types = Array.init arity (fun _ -> Rng.chance rng 0.7);
  }

let gen_const rng cfg numeric =
  if numeric then Term.int (Rng.int rng (cfg.const_range + 1))
  else Term.sym (Rng.pick rng symbols)

(* ----- constraint atoms ----- *)

let op_of rng =
  Rng.pick rng [ Atom.le; Atom.lt; Atom.ge; Atom.gt ]

let decidable_atom rng cfg numvars =
  (* X op Y or X op c: exactly the Theorem 5.1 class *)
  let x = Linexpr.var (Rng.pick rng numvars) in
  let rhs =
    if Rng.bool rng && List.length numvars > 1 then Linexpr.var (Rng.pick rng numvars)
    else Linexpr.of_int (Rng.int rng (cfg.const_range + 1))
  in
  (op_of rng) x rhs

let linear_atom rng cfg numvars =
  let v () = Linexpr.var (Rng.pick rng numvars) in
  let c () = Linexpr.of_int (Rng.int rng (cfg.const_range + 1)) in
  match Rng.int rng 4 with
  | 0 -> decidable_atom rng cfg numvars
  | 1 ->
      (* a·X op Y + c *)
      let a = Rat.of_int (2 + Rng.int rng 2) in
      (op_of rng) (Linexpr.scale a (v ())) (Linexpr.add (v ()) (c ()))
  | 2 ->
      (* X op Y + Z *)
      (op_of rng) (v ()) (Linexpr.add (v ()) (v ()))
  | _ ->
      (* X = Y + c (an equality between existing variables) *)
      Atom.eq (v ()) (Linexpr.add (v ()) (c ()))

(* integer-mode atoms stress exactly the places Q and ℤ verdicts diverge:
   non-unit coefficients (bounds that tighten through the gcd, equalities
   that need Omega elimination), strict bounds (which close over ℤ), and
   occasional divisibility traps like [2X = 2Y + 1] that are Q-sat but
   Z-unsat *)
let int_atom rng cfg numvars =
  let v () = Linexpr.var (Rng.pick rng numvars) in
  let c () = Linexpr.of_int (Rng.int rng (cfg.const_range + 1)) in
  let a () = Rat.of_int (2 + Rng.int rng 2) in
  match Rng.int rng 5 with
  | 0 -> decidable_atom rng cfg numvars
  | 1 ->
      (* a·X op c: the bound tightens to ⌊c/a⌋ / ⌈c/a⌉ over ℤ *)
      (op_of rng) (Linexpr.scale (a ()) (v ())) (c ())
  | 2 ->
      (* a·X op Y + c: non-unit coefficient for elimination *)
      (op_of rng) (Linexpr.scale (a ()) (v ())) (Linexpr.add (v ()) (c ()))
  | 3 ->
      (* X < Y + c: strict bounds step to X ≤ Y + c − 1 *)
      Atom.lt (v ()) (Linexpr.add (v ()) (c ()))
  | _ ->
      (* a·X = a·Y + c: satisfiable over ℤ iff a divides c *)
      let k = a () in
      Atom.eq (Linexpr.scale k (v ())) (Linexpr.add (Linexpr.scale k (v ())) (c ()))

(* ----- rules ----- *)

(* state threaded while building one rule's body *)
type rule_env = {
  mutable vars : (Var.t * bool) list;  (* variable, numeric? *)
  mutable counter : int;
}

let fresh_var env numeric =
  env.counter <- env.counter + 1;
  let v = Var.mk (Printf.sprintf "X%d" env.counter) in
  env.vars <- (v, numeric) :: env.vars;
  v

let vars_of_type env numeric =
  List.filter_map (fun (v, ty) -> if ty = numeric then Some v else None) env.vars

let gen_arg rng cfg env numeric =
  if Rng.chance rng 0.15 then gen_const rng cfg numeric
  else
    let pool = vars_of_type env numeric in
    if pool <> [] && Rng.chance rng 0.55 then Term.var (Rng.pick rng pool)
    else Term.var (fresh_var env numeric)

let gen_literal rng cfg env (s : psig) =
  Literal.make s.name (Array.to_list (Array.map (gen_arg rng cfg env) s.types))

(* head arguments must be grounded: drawn from body/defined variables of the
   right type, or constants — this keeps every rule range-restricted. *)
let gen_head rng cfg env (s : psig) =
  let arg numeric =
    let pool = vars_of_type env numeric in
    if pool <> [] && not (Rng.chance rng 0.15) then Term.var (Rng.pick rng pool)
    else gen_const rng cfg numeric
  in
  Literal.make s.name (Array.to_list (Array.map arg s.types))

let gen_rule rng cfg ~label ~head_sig ~body_sigs ~allow_rec =
  let env = { vars = []; counter = 0 } in
  let nlits = 1 + Rng.int rng cfg.max_body_lits in
  let body =
    List.init nlits (fun i ->
        let s =
          if allow_rec && i = nlits - 1 && Rng.chance rng 0.6 then head_sig
          else Rng.pick rng body_sigs
        in
        gen_literal rng cfg env s)
  in
  let numvars () = vars_of_type env true in
  let atoms = ref [] in
  let natoms = Rng.int rng (cfg.max_constraint_atoms + 1) in
  for _ = 1 to natoms do
    match numvars () with
    | [] -> ()
    | nv ->
        let a =
          match cfg.mode with
          | Decidable | Update -> decidable_atom rng cfg nv
          | Linear -> linear_atom rng cfg nv
          | Int -> int_atom rng cfg nv
        in
        atoms := a :: !atoms
  done;
  (* Linear mode only: occasionally define a fresh head variable by an
     equality over body variables (fib-style arithmetic heads; grounded via
     the single-unknown-equality closure of Rule.grounded_vars) *)
  (if (cfg.mode = Linear || cfg.mode = Int) && Rng.chance rng 0.4 then
     match numvars () with
     | [] -> ()
     | nv ->
         let h = fresh_var env true in
         let rhs =
           if Rng.bool rng && List.length nv > 1 then
             Linexpr.add (Linexpr.var (Rng.pick rng nv)) (Linexpr.var (Rng.pick rng nv))
           else
             Linexpr.add
               (Linexpr.var (Rng.pick rng nv))
               (Linexpr.of_int (Rng.int rng (cfg.const_range + 1)))
         in
         atoms := Atom.eq (Linexpr.var h) rhs :: !atoms);
  let head = gen_head rng cfg env head_sig in
  let cstr = Conj.of_list !atoms in
  (* an unsatisfiable conjunction collapses to the constant atom [0 < 0],
     which is outside the Theorem 5.1 class; keep decidable-mode rules
     in-class (the rule would never fire anyway) *)
  let cstr = if decidable cfg.mode && not (Conj.is_sat cstr) then Conj.tt else cstr in
  Rule.make ~label head body cstr

(* ----- programs ----- *)

let gen_program rng cfg =
  let edb_sigs = List.init cfg.edb_preds (fun i -> gen_sig rng "e" (i + 1) cfg.max_arity) in
  let idb_sigs = List.init cfg.idb_preds (fun i -> gen_sig rng "p" (i + 1) cfg.max_arity) in
  let label_counter = ref 0 in
  let label () =
    incr label_counter;
    Printf.sprintf "r%d" !label_counter
  in
  let rules =
    List.concat
      (List.mapi
         (fun i head_sig ->
           (* stratification by construction: bodies use EDB predicates,
              derived predicates of strictly lower strata, and (recursive
              rules only) the head predicate itself *)
           let lower = edb_sigs @ List.filteri (fun j _ -> j < i) idb_sigs in
           let nrules = 1 + Rng.int rng cfg.max_rules_per_pred in
           List.init nrules (fun k ->
               let allow_rec = cfg.recursion && k > 0 && Rng.chance rng 0.6 in
               gen_rule rng cfg ~label:(label ()) ~head_sig ~body_sigs:lower ~allow_rec))
         idb_sigs)
  in
  let query = (List.nth idb_sigs (cfg.idb_preds - 1)).name in
  (Program.make ~query rules, edb_sigs)

let gen_edb rng cfg p edb_sigs =
  let used = Program.edb p in
  List.concat_map
    (fun (s : psig) ->
      if not (List.mem s.name used) then []
      else
        let n = 1 + Rng.int rng cfg.max_edb_facts in
        List.init n (fun _ ->
            Cql_eval.Fact.ground s.name
              (Array.to_list
                 (Array.map
                    (fun numeric ->
                      if numeric then Term.Num (Rat.of_int (Rng.int rng (cfg.const_range + 1)))
                      else Term.Sym (Rng.pick rng symbols))
                    s.types))))
    edb_sigs

exception Exhausted of { attempts : int }

let case ?(attempts = 20) rng cfg =
  let rec attempt n =
    if n = 0 then raise (Exhausted { attempts });
    let p, edb_sigs = gen_program rng cfg in
    match Program.check p with
    | Ok ()
      when Program.is_range_restricted p
           && ((not (decidable cfg.mode)) || Cql_core.Decidable.in_class p) ->
        (p, gen_edb rng cfg p edb_sigs)
    | _ -> attempt (n - 1)
  in
  attempt (max 1 attempts)

let program ?attempts rng cfg = fst (case ?attempts rng cfg)
