open Cql_num

(* A conjunction is an immutable value wrapping its sorted, duplicate-free
   atom list and the list's structural hash.  The decision procedures below
   are memoized in caches keyed by the conjunctions themselves (see Memo),
   with raw entry counts recorded in the Cql_obs registry before any cache
   lookup. *)
type t = { atoms : Atom.t list; hash : int }

let mk atoms =
  let mix acc a = ((acc * 65599) lxor Atom.hash a) land max_int in
  { atoms; hash = List.fold_left mix 17 atoms }

(* [of_list] returns these two shared values for every empty and every
   contradictory atom list, so the tt and syntactic-ff tests are physical *)
let tt : t = mk []
let ff : t = mk [ Atom.ff ]
let is_ff_syntactic c = c == ff

(* Normalize a raw atom list: evaluate variable-free atoms, sort, dedup;
   any false atom collapses the whole conjunction to [ff]. *)
let of_list atoms =
  let exception False in
  try
    let kept =
      List.filter
        (fun a ->
          match Atom.truth a with
          | Some true -> false
          | Some false -> raise False
          | None -> true)
        atoms
    in
    match List.sort_uniq Atom.compare kept with [] -> tt | atoms -> mk atoms
  with False -> ff

let singleton a = of_list [ a ]
let add a c = of_list (a :: c.atoms)

let and_ a b =
  if a == b || b == tt then a
  else if a == tt then b
  else of_list (List.rev_append a.atoms b.atoms)

let to_list c = c.atoms
let is_tt c = c == tt
let size c = List.length c.atoms

let vars c =
  List.fold_left (fun acc a -> Var.Set.union acc (Atom.vars a)) Var.Set.empty c.atoms

let hash c = c.hash
let equal a b = a == b || (a.hash = b.hash && List.equal Atom.equal a.atoms b.atoms)

(* ----- counters and caches ----- *)

module Obs = Cql_obs.Obs

let ctr_sat = Obs.counter "solver.sat_checks"
let ctr_implies = Obs.counter "solver.implies_checks"
let ctr_implies_atom = Obs.counter "solver.implies_atom_checks"
let ctr_project = Obs.counter "solver.project_calls"
let ctr_fm = Obs.counter "solver.fm_eliminations"

(* Verdicts differ between the rational and the integer domain ([2·X = 1]
   is Q-sat, Z-unsat), so a domain-dependent key pairs the conjunction with
   the active domain's tag. *)
let dkey c = (Cdomain.tag (), c)
let dkey_hash (tag, c) = (c.hash lsl 1) lor tag
let dkey_equal (t1, c1) (t2, c2) = t1 = t2 && equal c1 c2

let sat_memo : (int * t, bool) Memo.cache =
  Memo.create ~name:"conj_is_sat" ~hash:dkey_hash ~equal:dkey_equal

let implies_memo : ((int * t) * t, bool) Memo.cache =
  Memo.create ~name:"conj_implies"
    ~hash:(fun (k, d) -> (dkey_hash k * 65599) lxor d.hash)
    ~equal:(fun (k1, d1) (k2, d2) -> dkey_equal k1 k2 && equal d1 d2)

let project_memo : ((int * t) * int list, t) Memo.cache =
  Memo.create ~name:"conj_project"
    ~hash:(fun (k, ids) -> List.fold_left (fun acc i -> (acc * 65599) lxor i) (dkey_hash k) ids)
    ~equal:(fun (k1, ids1) (k2, ids2) -> dkey_equal k1 k2 && List.equal Int.equal ids1 ids2)

let simplify_memo : (int * t, t) Memo.cache =
  Memo.create ~name:"conj_simplify" ~hash:dkey_hash ~equal:dkey_equal

let ztighten_memo : (t, t) Memo.cache = Memo.create ~name:"conj_ztighten" ~hash ~equal

(* The integer-tightened form of a conjunction: equivalent over ℤ,
   generally strictly stronger over ℚ.  Tightening is per-atom and
   domain-independent as a rewrite, so the cache key is the plain
   conjunction. *)
let ztighten (c : t) : t =
  if c == tt || is_ff_syntactic c then c
  else
    Memo.cached ztighten_memo c (fun () ->
        let atoms' = List.map Zsolve.tighten_atom c.atoms in
        if List.for_all2 ( == ) atoms' c.atoms then c else of_list atoms')

(* ----- variable elimination ----- *)

(* Eliminate [x] from a normalized conjunction.  If an equality mentions
   [x], solve it for [x] and substitute; otherwise Fourier-Motzkin. *)
let eliminate x (c : t) : t =
  if is_ff_syntactic c then c
  else
    let mentions, rest = List.partition (Atom.mem x) c.atoms in
    if mentions = [] then c
    else
      let eq_opt = List.find_opt (fun (a : Atom.t) -> a.Atom.op = Atom.Eq) mentions in
      match eq_opt with
      | Some eqa ->
          (* expr = a*x + r = 0  =>  x = -r/a *)
          let a = Linexpr.coeff x eqa.Atom.expr in
          let r = Linexpr.sub eqa.Atom.expr (Linexpr.term a x) in
          let repl = Linexpr.scale (Rat.neg (Rat.inv a)) r in
          let others = List.filter (fun a' -> not (Atom.equal a' eqa)) mentions in
          of_list (rest @ List.map (Atom.subst [ (x, repl) ]) others)
      | None ->
          Obs.incr ctr_fm;
          (* all atoms mentioning x are inequalities e op 0 with op in {Le,Lt} *)
          let uppers, lowers =
            List.partition
              (fun (a : Atom.t) -> Rat.sign (Linexpr.coeff x a.Atom.expr) > 0)
              mentions
          in
          (* upper: a*x + r op 0, a>0  =>  x op -r/a ; bound expr = -r/a
             lower: a*x + r op 0, a<0  =>  x op' -r/a with op' flipped to >=/>,
             i.e. -r/a op x. *)
          let bound (a : Atom.t) =
            let k = Linexpr.coeff x a.Atom.expr in
            let r = Linexpr.sub a.Atom.expr (Linexpr.term k x) in
            (Linexpr.scale (Rat.neg (Rat.inv k)) r, a.Atom.op)
          in
          let combined =
            List.concat_map
              (fun lo ->
                let lo_e, lo_op = bound lo in
                List.map
                  (fun up ->
                    let up_e, up_op = bound up in
                    let op = if lo_op = Atom.Lt || up_op = Atom.Lt then Atom.Lt else Atom.Le in
                    (* lower bound <= upper bound *)
                    Atom.make (Linexpr.sub lo_e up_e) op)
                  uppers)
              lowers
          in
          (* Over ℤ the real shadow is an over-approximation either way, but
             the surviving variables are integer-valued, so rounding each
             combined atom's constant through its coefficient gcd is sound
             and strictly tightens the projection. *)
          let combined =
            if Cdomain.is_z () then List.map Zsolve.tighten_atom combined else combined
          in
          of_list (rest @ combined)

let project_uncached ~keep (c : t) : t =
  let rec go c =
    if is_ff_syntactic c then c
    else
      let to_elim = Var.Set.diff (vars c) keep in
      if Var.Set.is_empty to_elim then c
      else begin
        (* heuristics: prefer a variable constrained by an equality (cheap
           substitution), else the one minimizing the Fourier-Motzkin blowup *)
        let with_eq =
          Var.Set.filter
            (fun x ->
              List.exists
                (fun (a : Atom.t) -> a.Atom.op = Atom.Eq && Atom.mem x a)
                c.atoms)
            to_elim
        in
        let x =
          if not (Var.Set.is_empty with_eq) then Var.Set.min_elt with_eq
          else
            let cost x =
              let pos, neg =
                List.fold_left
                  (fun (p, n) (a : Atom.t) ->
                    let s = Rat.sign (Linexpr.coeff x a.Atom.expr) in
                    if s > 0 then (p + 1, n) else if s < 0 then (p, n + 1) else (p, n))
                  (0, 0) c.atoms
              in
              (pos * neg) - (pos + neg)
            in
            fst
              (Var.Set.fold
                 (fun x (best, bc) ->
                   let cx = cost x in
                   if cx < bc then (x, cx) else (best, bc))
                 to_elim
                 (Var.Set.min_elt to_elim, max_int))
        in
        go (eliminate x c)
      end
  in
  go c

let project ~keep (c : t) : t =
  Obs.incr ctr_project;
  if is_ff_syntactic c || c == tt then c
  else
    let cvars = vars c in
    if Var.Set.subset cvars keep then c
    else
      (* the result depends only on keep ∩ vars c, so canonicalize the key *)
      let key = (dkey c, List.map Var.id (Var.Set.elements (Var.Set.inter keep cvars))) in
      Memo.cached project_memo key (fun () -> project_uncached ~keep c)

(* satisfiability via simplex over Q (cross-checked against full
   Fourier-Motzkin elimination by the property tests and the fuzz
   harness), via Zsolve over Z; projection remains the eliminator's job *)
let is_sat c =
  Obs.incr ctr_sat;
  if is_ff_syntactic c then false
  else if c == tt then true
  else
    let z = Cdomain.is_z () in
    (* in integer mode the whole query runs on the tightened form: the
       rewrite is an equivalence over ℤ and sharpens Zsolve's input
       (tightening alone refutes parity-infeasible equalities) *)
    let c = if z then ztighten c else c in
    if is_ff_syntactic c then false
    else if c == tt then true
    else
      Memo.cached sat_memo (dkey c) (fun () ->
          if z then Zsolve.is_sat c.atoms else Simplex.is_sat c.atoms)

let eval_at env c =
  let rec go = function
    | [] -> Some true
    | a :: rest -> (
        match Atom.eval_at env a with
        | Some true -> go rest
        | Some false -> Some false
        | None -> None)
  in
  go c.atoms

let implies_atom c a =
  Obs.incr ctr_implies_atom;
  if is_ff_syntactic c then true
  else
    match Atom.truth a with
    | Some b -> b || not (is_sat c)
    | None ->
        List.exists (Atom.equal a) c.atoms (* syntactic subset fast path *)
        || List.for_all (fun na -> not (is_sat (add na c))) (Atom.negate a)

let implies c d =
  Obs.incr ctr_implies;
  if d == tt || equal c d then true
  else if is_ff_syntactic c then true
  else Memo.cached implies_memo (dkey c, d) (fun () -> List.for_all (implies_atom c) d.atoms)

let equiv c d = implies c d && implies d c

let simplify c =
  if c == tt || is_ff_syntactic c then c
  else
    (* integer mode simplifies the tightened form: equivalent over ℤ, and
       the closed bounds give the redundancy checks more to work with *)
    let c = if Cdomain.is_z () then ztighten c else c in
    if c == tt || is_ff_syntactic c then c
    else
    Memo.cached simplify_memo (dkey c) (fun () ->
        if not (is_sat c) then ff
        else
          (* drop atoms implied by the remaining ones; iterate front to back *)
          let rec go acc = function
            | [] -> List.rev acc
            | a :: rest ->
                let others = of_list (List.rev_append acc rest) in
                if implies_atom others a then go acc rest else go (a :: acc) rest
          in
          of_list (go [] c.atoms))

let subst s c =
  let atoms = List.map (Atom.subst s) c.atoms in
  if List.for_all2 ( == ) atoms c.atoms then c else of_list atoms
let rename f c = of_list (List.map (Atom.rename f) c.atoms)

(* structural order on the canonical atom lists — stable across runs *)
let compare a b = if a == b then 0 else List.compare Atom.compare a.atoms b.atoms

let pp fmt c =
  match c.atoms with
  | [] -> Format.pp_print_string fmt "true"
  | atoms ->
      if is_ff_syntactic c then Format.pp_print_string fmt "false"
      else
        Format.pp_print_list
          ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " & ")
          Atom.pp fmt atoms

let to_string c = Format.asprintf "%a" pp c
