open Cql_num
module Obs = Cql_obs.Obs

let ctr_sat = Obs.counter "solver.int.sat_checks"
let ctr_tightened = Obs.counter "solver.int.tightened_atoms"
let ctr_omega = Obs.counter "solver.int.omega_eliminations"
let ctr_splinters = Obs.counter "solver.int.splinters"
let ctr_bb_fallbacks = Obs.counter "solver.int.bb_fallbacks"
let ctr_bb_nodes = Obs.counter "solver.int.bb_nodes"
let ctr_pivot_limit = Obs.counter "solver.pivot_limit_hits"

(* ----- floor arithmetic ----- *)

(* Bigint.divmod truncates toward zero; the integer procedures need floor
   division (divisors here are always strictly positive) *)
let fdiv a b =
  let q, r = Bigint.divmod a b in
  if Bigint.sign r < 0 then Bigint.sub q Bigint.one else q

let floor_rat q = fdiv (Rat.num q) (Rat.den q)
let ceil_rat q = Bigint.neg (floor_rat (Rat.neg q))

(* symmetric modulus: [smod a m ≡ a (mod m)] with the representative in
   [[-m/2, m/2)]; for [m = |a|+1] it maps [a] to [-sign a], a unit *)
let smod a m =
  let r = Bigint.sub a (Bigint.mul m (fdiv a m)) in
  if Bigint.compare (Bigint.add r r) m >= 0 then Bigint.sub r m else r

(* ----- per-atom tightening ----- *)

(* Atom expressions are integerized: integer coefficients and constant,
   jointly coprime.  Over ℤ, with g = gcd of the variable coefficients:
   - [t + c < 0]  ≡  [t ≤ -c - 1]  (strict bounds close),
   - [t ≤ b]      ≡  [t/g ≤ ⌊b/g⌋] (constants round through the gcd),
   - [t + c = 0] with [g ∤ c] has no integer solution.  Coprimality means
     [g > 1] always fails to divide [c], so such equalities refute. *)
let tighten_atom (a : Atom.t) =
  match Linexpr.terms a.Atom.expr with
  | [] -> a (* ground: truth is domain-independent *)
  | terms -> (
      let g = List.fold_left (fun acc (_, c) -> Rat.gcd acc c) Rat.zero terms in
      let c = Linexpr.constant a.Atom.expr in
      match a.Atom.op with
      | Atom.Eq ->
          if Rat.equal g Rat.one || Rat.is_integer (Rat.div c g) then a
          else begin
            Obs.incr ctr_tightened;
            Atom.ff
          end
      | Atom.Le | Atom.Lt ->
          if Rat.equal g Rat.one && a.Atom.op = Atom.Le then a
          else begin
            let b = if a.Atom.op = Atom.Lt then Rat.sub (Rat.neg c) Rat.one else Rat.neg c in
            let e' =
              Linexpr.of_terms
                (List.map (fun (x, cf) -> (Rat.div cf g, x)) terms)
                (Rat.neg (Rat.floor (Rat.div b g)))
            in
            let a' = Atom.make e' Atom.Le in
            if not (Atom.equal a' a) then Obs.incr ctr_tightened;
            a'
          end)

(* ----- Omega-test elimination ----- *)

exception Unsat_exn
exception Budget

let default_budget = 2000

(* tighten every atom and evaluate the ground ones *)
let normalize atoms =
  List.filter_map
    (fun a ->
      let a = tighten_atom a in
      match Atom.truth a with
      | Some true -> None
      | Some false -> raise Unsat_exn
      | None -> Some a)
    atoms

let spend budget =
  decr budget;
  if !budget < 0 then raise Budget

let conj_vars atoms =
  List.fold_left (fun s a -> Var.Set.union s (Atom.vars a)) Var.Set.empty atoms

(* Eliminate one equality.  A unit coefficient solves exactly; otherwise
   Pugh's symmetric-modulus rewrite: with m = |a_k| + 1 the residue of a_k
   is a unit, so the auxiliary equality

     Σ smod(a_i, m)·x_i + smod(c, m) + m·σ = 0     (σ fresh)

   is implied over ℤ by the original one and solves exactly for x_k.
   Substituting everywhere — including into the original equality, whose
   coefficients all become divisible by m and are normalized away by
   [Atom.make]'s integerize — shrinks the coefficients each round. *)
let solve_equality atoms (eq : Atom.t) =
  let terms = Linexpr.terms eq.Atom.expr in
  let xk, ak =
    match terms with
    | [] -> assert false
    | (x0, c0) :: rest ->
        List.fold_left
          (fun (bx, bc) (x, c) ->
            if Rat.compare (Rat.abs c) (Rat.abs bc) < 0 then (x, c) else (bx, bc))
          (x0, c0) rest
  in
  if Bigint.is_one (Bigint.abs (Rat.num ak)) then
    let rest_e = Linexpr.sub eq.Atom.expr (Linexpr.term ak xk) in
    let repl = Linexpr.scale (Rat.neg (Rat.inv ak)) rest_e in
    List.filter_map
      (fun a -> if Atom.equal a eq then None else Some (Atom.subst [ (xk, repl) ] a))
      atoms
  else begin
    let m = Bigint.add (Bigint.abs (Rat.num ak)) Bigint.one in
    let sigma = Var.fresh "omega" in
    let n_expr =
      List.fold_left
        (fun acc (x, c) ->
          Linexpr.add acc (Linexpr.term (Rat.of_bigint (smod (Rat.num c) m)) x))
        (Linexpr.add
           (Linexpr.const (Rat.of_bigint (smod (Rat.num (Linexpr.constant eq.Atom.expr)) m)))
           (Linexpr.term (Rat.of_bigint m) sigma))
        terms
    in
    (* coefficient of x_k in the auxiliary equality is -sign(a_k) *)
    let ck = Linexpr.coeff xk n_expr in
    let rest_e = Linexpr.sub n_expr (Linexpr.term ck xk) in
    let repl = Linexpr.scale (Rat.neg (Rat.inv ck)) rest_e in
    List.map (Atom.subst [ (xk, repl) ]) atoms
  end

(* Shadow of a (lower, upper) pair around x: from a·x ≥ r and c·x ≤ u
   (a, c > 0) derive c·r - a·u + δ ≤ 0, with δ = 0 for the real shadow and
   δ = (a-1)(c-1) for the dark shadow (whose satisfiability guarantees an
   integer x between the bounds). *)
let shadow ~dark (a, rl) (c, uu) =
  let e = Linexpr.sub (Linexpr.scale c rl) (Linexpr.scale a uu) in
  let e =
    if dark then
      Linexpr.add e (Linexpr.const (Rat.mul (Rat.sub a Rat.one) (Rat.sub c Rat.one)))
    else e
  in
  Atom.make e Atom.Le

(* Choose the variable to eliminate: prefer one whose elimination is exact
   (every bound on one side has a unit coefficient, so real = dark shadow),
   then minimize the Fourier-Motzkin-style pair blowup. *)
let pick_var atoms vars =
  Var.Set.fold
    (fun x best ->
      let pos = ref 0
      and neg = ref 0
      and max_pos = ref Bigint.zero
      and max_neg = ref Bigint.zero in
      List.iter
        (fun (a : Atom.t) ->
          let k = Linexpr.coeff x a.Atom.expr in
          let s = Rat.sign k in
          if s > 0 then begin
            incr pos;
            max_pos := Bigint.max !max_pos (Rat.num k)
          end
          else if s < 0 then begin
            incr neg;
            max_neg := Bigint.max !max_neg (Bigint.neg (Rat.num k))
          end)
        atoms;
      let exact =
        Bigint.compare !max_pos Bigint.one <= 0 || Bigint.compare !max_neg Bigint.one <= 0
      in
      let cost = (!pos * !neg) - (!pos + !neg) in
      match best with
      | Some (_, bexact, bcost) when (bexact && not exact) || (bexact = exact && bcost <= cost)
        ->
          best
      | _ -> Some (x, exact, cost))
    vars None

let rec zsat budget atoms0 =
  match normalize atoms0 with
  | exception Unsat_exn -> false
  | [] -> true
  | atoms -> (
      match List.find_opt (fun (a : Atom.t) -> a.Atom.op = Atom.Eq) atoms with
      | Some eq ->
          spend budget;
          Obs.incr ctr_omega;
          zsat budget (solve_equality atoms eq)
      | None -> (
          (* only (tightened, non-ground) Le atoms remain *)
          match pick_var atoms (conj_vars atoms) with
          | None -> true
          | Some (x, exact, _) ->
              let mentions, rest = List.partition (Atom.mem x) atoms in
              let lowers, uppers =
                List.partition
                  (fun (a : Atom.t) -> Rat.sign (Linexpr.coeff x a.Atom.expr) < 0)
                  mentions
              in
              if lowers = [] || uppers = [] then begin
                (* x is bounded on at most one side: any sufficiently extreme
                   integer satisfies the mentions, so they project away *)
                spend budget;
                Obs.incr ctr_omega;
                zsat budget rest
              end
              else begin
                spend budget;
                Obs.incr ctr_omega;
                let lower_bound (a : Atom.t) =
                  let k = Linexpr.coeff x a.Atom.expr in
                  (Rat.neg k, Linexpr.sub a.Atom.expr (Linexpr.term k x))
                in
                let upper_bound (a : Atom.t) =
                  let k = Linexpr.coeff x a.Atom.expr in
                  (k, Linexpr.neg (Linexpr.sub a.Atom.expr (Linexpr.term k x)))
                in
                let lbs = List.map lower_bound lowers
                and ubs = List.map upper_bound uppers in
                let pairs ~dark =
                  List.concat_map (fun lb -> List.map (shadow ~dark lb) ubs) lbs
                in
                if exact then zsat budget (rest @ pairs ~dark:false)
                else if zsat budget (rest @ pairs ~dark:true) then true
                else
                  (* the dark shadow refuted: any remaining solution hugs a
                     non-unit lower bound, so try the splinter equalities
                     a·x = r + i for the bounded splinter range *)
                  let cmax =
                    List.fold_left (fun m (c, _) -> Bigint.max m (Rat.num c)) Bigint.one ubs
                  in
                  List.exists
                    (fun (a, rl) ->
                      let ab = Rat.num a in
                      if Bigint.compare ab Bigint.one <= 0 then false
                      else
                        let imax =
                          fdiv (Bigint.sub (Bigint.mul ab cmax) (Bigint.add ab cmax)) cmax
                        in
                        let rec try_i i =
                          if Bigint.compare i imax > 0 then false
                          else begin
                            Obs.incr ctr_splinters;
                            spend budget;
                            let eqa =
                              Atom.make
                                (Linexpr.sub (Linexpr.term a x)
                                   (Linexpr.add rl (Linexpr.const (Rat.of_bigint i))))
                                Atom.Eq
                            in
                            zsat budget (eqa :: atoms) || try_i (Bigint.add i Bigint.one)
                          end
                        in
                        try_i Bigint.zero)
                    lbs
              end))

(* ----- branch-and-bound fallback ----- *)

(* Complete without a budget: every variable is clamped to the von zur
   Gathen-Sieveking solution bound (a satisfiable integer system has a
   solution with |x_j| ≤ (n+1)·Δ, Δ ≤ r!·amax^r, r = min(vars, rows)), and
   every branch shrinks one variable's integer range by at least one, so
   the tree is finite.  Relaxation models come from Simplex.solve; their
   [re] parts satisfy all Le/Eq atoms (the ε components only order strict
   bounds, and tightening leaves none). *)
let bb_is_sat atoms0 =
  Obs.incr ctr_bb_fallbacks;
  match normalize atoms0 with
  | exception Unsat_exn -> false
  | [] -> true
  | atoms ->
      let vars = Var.Set.elements (conj_vars atoms) in
      let n = List.length vars in
      let rows =
        List.fold_left
          (fun acc (a : Atom.t) -> acc + (if a.Atom.op = Atom.Eq then 2 else 1))
          0 atoms
      in
      let amax =
        List.fold_left
          (fun acc (a : Atom.t) ->
            let acc = Bigint.max acc (Bigint.abs (Rat.num (Linexpr.constant a.Atom.expr))) in
            List.fold_left
              (fun acc (_, c) -> Bigint.max acc (Bigint.abs (Rat.num c)))
              acc (Linexpr.terms a.Atom.expr))
          Bigint.one atoms
      in
      let r = min n rows in
      let big_m =
        let fact = ref Bigint.one in
        for i = 2 to r do
          fact := Bigint.mul !fact (Bigint.of_int i)
        done;
        Bigint.mul (Bigint.of_int (n + 1)) (Bigint.mul !fact (Bigint.pow amax r))
      in
      let le_atom v k =
        Atom.make (Linexpr.sub (Linexpr.var v) (Linexpr.const (Rat.of_bigint k))) Atom.Le
      in
      let ge_atom v k =
        Atom.make (Linexpr.sub (Linexpr.const (Rat.of_bigint k)) (Linexpr.var v)) Atom.Le
      in
      let ranges =
        List.fold_left
          (fun m v -> Var.Map.add v (Bigint.neg big_m, big_m) m)
          Var.Map.empty vars
      in
      let clamp =
        List.concat_map (fun v -> [ le_atom v big_m; ge_atom v (Bigint.neg big_m) ]) vars
      in
      let rec node atoms ranges =
        Obs.incr ctr_bb_nodes;
        let branch v k =
          (* left: v ≤ k, right: v ≥ k+1; both strictly shrink v's range *)
          let lo, hi = Var.Map.find v ranges in
          let left () =
            Bigint.compare k lo >= 0
            && node (le_atom v k :: atoms) (Var.Map.add v (lo, Bigint.min hi k) ranges)
          in
          let right () =
            let k1 = Bigint.add k Bigint.one in
            Bigint.compare k1 hi <= 0
            && node (ge_atom v k1 :: atoms) (Var.Map.add v (Bigint.max lo k1, hi) ranges)
          in
          left () || right ()
        in
        match Simplex.solve atoms with
        | None -> false
        | Some model -> (
            let value v =
              match List.assoc_opt v model with
              | Some q -> q.Simplex.Qeps.re
              | None -> Rat.zero
            in
            match List.find_opt (fun v -> not (Rat.is_integer (value v))) vars with
            | None -> true
            | Some v -> branch v (floor_rat (value v)))
        | exception Simplex.Pivot_limit _ ->
            Obs.incr ctr_pivot_limit;
            (* no relaxation verdict: bisect the widest remaining range *)
            let v, (lo, hi) =
              List.fold_left
                (fun ((_, (blo, bhi)) as best) v ->
                  let lo, hi = Var.Map.find v ranges in
                  if Bigint.compare (Bigint.sub hi lo) (Bigint.sub bhi blo) > 0 then
                    (v, (lo, hi))
                  else best)
                (List.hd vars, Var.Map.find (List.hd vars) ranges)
                (List.tl vars)
            in
            if Bigint.compare lo hi >= 0 then
              (* every variable is pinned: decide by direct evaluation *)
              let env v = Some (Rat.of_bigint (fst (Var.Map.find v ranges))) in
              List.for_all (fun a -> Atom.eval_at env a = Some true) atoms
            else branch v (fdiv (Bigint.add lo hi) (Bigint.of_int 2))
      in
      node (clamp @ atoms) ranges

(* ----- entry points ----- *)

let is_sat atoms =
  Obs.incr ctr_sat;
  let budget = ref default_budget in
  try zsat budget atoms with Budget -> bb_is_sat atoms

let is_sat_bb atoms =
  Obs.incr ctr_sat;
  bb_is_sat atoms
