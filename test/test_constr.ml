(* Unit and property tests for the linear-arithmetic constraint solver:
   linear expressions, atoms, conjunctions (Gauss + Fourier-Motzkin) and
   DNF constraint sets. *)

open Cql_num
open Cql_constr
module Q = Rat
module Obs = Cql_obs.Obs

let x = Var.mk "X"
let y = Var.mk "Y"
let z = Var.mk "Z"
let w = Var.mk "W"
let vx = Linexpr.var x
let vy = Linexpr.var y
let vz = Linexpr.var z
let n i = Linexpr.of_int i
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the registry value of a named counter *)
let count name = Obs.value (Obs.counter name)

(* evaluate expressions/atoms/conjunctions/csets at a point *)
let eval_expr (env : Q.t Var.Map.t) e =
  List.fold_left
    (fun acc (v, c) -> Q.add acc (Q.mul c (Var.Map.find v env)))
    (Linexpr.constant e) (Linexpr.terms e)

let eval_atom env (a : Atom.t) =
  let v = eval_expr env a.Atom.expr in
  match a.Atom.op with
  | Atom.Le -> Q.sign v <= 0
  | Atom.Lt -> Q.sign v < 0
  | Atom.Eq -> Q.sign v = 0

let eval_conj env c = List.for_all (eval_atom env) (Conj.to_list c)
let eval_cset env cs = List.exists (eval_conj env) (Cset.disjuncts cs)

(* ----- Linexpr ----- *)

let test_linexpr_basics () =
  let e = Linexpr.of_terms [ (Q.of_int 2, x); (Q.of_int 3, y) ] (Q.of_int 5) in
  check_bool "coeff x" true (Q.equal (Linexpr.coeff x e) (Q.of_int 2));
  check_bool "coeff z" true (Q.is_zero (Linexpr.coeff z e));
  check_bool "const" true (Q.equal (Linexpr.constant e) (Q.of_int 5));
  let e2 = Linexpr.add e (Linexpr.term (Q.of_int (-2)) x) in
  check_bool "x canceled" true (Q.is_zero (Linexpr.coeff x e2));
  check_int "vars after cancel" 1 (Var.Set.cardinal (Linexpr.vars e2));
  check_bool "sub self is zero" true (Linexpr.equal (Linexpr.sub e e) Linexpr.zero)

let test_linexpr_subst () =
  (* substitute X := Y + 1 in  2X + Z  ->  2Y + Z + 2 *)
  let e = Linexpr.add (Linexpr.scale (Q.of_int 2) vx) vz in
  let e' = Linexpr.subst [ (x, Linexpr.add vy (n 1)) ] e in
  check_bool "subst result" true
    (Linexpr.equal e' (Linexpr.of_terms [ (Q.of_int 2, y); (Q.one, z) ] (Q.of_int 2)))

let test_linexpr_integerize () =
  (* (1/2)X + (1/3)Y - 1/6  scales to  3X + 2Y - 1 *)
  let e = Linexpr.of_terms [ (Q.of_ints 1 2, x); (Q.of_ints 1 3, y) ] (Q.of_ints (-1) 6) in
  let e' = Linexpr.integerize e in
  check_bool "integerized" true
    (Linexpr.equal e' (Linexpr.of_terms [ (Q.of_int 3, x); (Q.of_int 2, y) ] Q.minus_one));
  (* common factors are divided out: 4X + 6Y -> 2X + 3Y *)
  let f = Linexpr.of_terms [ (Q.of_int 4, x); (Q.of_int 6, y) ] Q.zero in
  check_bool "gcd reduced" true
    (Linexpr.equal (Linexpr.integerize f)
       (Linexpr.of_terms [ (Q.of_int 2, x); (Q.of_int 3, y) ] Q.zero));
  (* an expression already in normal form comes back as it is, not copied *)
  List.iter
    (fun g ->
      check_bool (Linexpr.to_string g ^ " returned as is") true (Linexpr.integerize g == g))
    [ e'; Linexpr.integerize f; Linexpr.of_terms [ (Q.of_int 2, x) ] (Q.of_int 3); vx ]

let test_linexpr_rename () =
  let e = Linexpr.add vx vy in
  let renamed = Linexpr.rename (fun v -> if Var.equal v x then z else v) e in
  check_bool "renamed" true (Linexpr.equal renamed (Linexpr.add vz vy));
  (* non-injective renaming merges coefficients *)
  let merged = Linexpr.rename (fun _ -> z) e in
  check_bool "merged" true (Linexpr.equal merged (Linexpr.scale (Q.of_int 2) vz))

(* ----- Atom ----- *)

let test_atom_normalization () =
  (* X >= 2 and -X <= -2 are the same atom *)
  check_bool "ge as le" true (Atom.equal (Atom.ge vx (n 2)) (Atom.le (n 2) vx));
  (* equalities have canonical sign: X = Y equals Y = X *)
  check_bool "eq symmetric" true (Atom.equal (Atom.eq vx vy) (Atom.eq vy vx));
  check_bool "tt" true (Atom.truth Atom.tt = Some true);
  check_bool "ff" true (Atom.truth Atom.ff = Some false);
  check_bool "const true atom" true (Atom.truth (Atom.le (n 1) (n 2)) = Some true);
  check_bool "const false atom" true (Atom.truth (Atom.lt (n 2) (n 2)) = Some false);
  check_bool "nonconst" true (Atom.truth (Atom.le vx (n 2)) = None)

let test_atom_negate () =
  let env = Var.Map.(add x (Q.of_int 3) empty) in
  let a = Atom.le vx (n 3) in
  (* X <= 3 is true at 3; its negation X > 3 must be false there *)
  check_bool "le at boundary" true (eval_atom env a);
  check_bool "negation at boundary" false
    (List.exists (eval_atom env) (Atom.negate a));
  let e = Atom.eq vx (n 5) in
  check_int "eq negates to two atoms" 2 (List.length (Atom.negate e))

(* ----- Conj: satisfiability ----- *)

let conj atoms = Conj.of_list atoms

let test_sat_basic () =
  check_bool "tt sat" true (Conj.is_sat Conj.tt);
  check_bool "ff unsat" false (Conj.is_sat Conj.ff);
  check_bool "x<=0 & x>=1 unsat" false
    (Conj.is_sat (conj [ Atom.le vx (n 0); Atom.ge vx (n 1) ]));
  check_bool "x<=1 & x>=1 sat" true
    (Conj.is_sat (conj [ Atom.le vx (n 1); Atom.ge vx (n 1) ]));
  check_bool "x<1 & x>1 unsat" false
    (Conj.is_sat (conj [ Atom.lt vx (n 1); Atom.gt vx (n 1) ]));
  check_bool "x<=1 & x>1 unsat" false
    (Conj.is_sat (conj [ Atom.le vx (n 1); Atom.gt vx (n 1) ]));
  check_bool "strict cycle unsat" false
    (Conj.is_sat (conj [ Atom.lt vx vy; Atom.lt vy vz; Atom.lt vz vx ]));
  check_bool "nonstrict cycle sat" true
    (Conj.is_sat (conj [ Atom.le vx vy; Atom.le vy vz; Atom.le vz vx ]));
  check_bool "eq and lt conflict" false
    (Conj.is_sat (conj [ Atom.eq vx vy; Atom.lt vx vy ]))

let test_sat_arithmetic_chain () =
  (* x + y <= 4, x >= 2, y >= 3 is unsat *)
  check_bool "sum bound unsat" false
    (Conj.is_sat (conj [ Atom.le (Linexpr.add vx vy) (n 4); Atom.ge vx (n 2); Atom.ge vy (n 3) ]));
  (* x + y <= 4, x >= 2, y >= 2 is sat (exactly the corner) *)
  check_bool "sum bound corner sat" true
    (Conj.is_sat (conj [ Atom.le (Linexpr.add vx vy) (n 4); Atom.ge vx (n 2); Atom.ge vy (n 2) ]));
  (* equalities chain: x = y+1, y = z+1, z = 5, x = 7 sat; x = 8 unsat *)
  let base = [ Atom.eq vx (Linexpr.add vy (n 1)); Atom.eq vy (Linexpr.add vz (n 1)); Atom.eq vz (n 5) ] in
  check_bool "eq chain sat" true (Conj.is_sat (conj (Atom.eq vx (n 7) :: base)));
  check_bool "eq chain unsat" false (Conj.is_sat (conj (Atom.eq vx (n 8) :: base)))

(* ----- Conj: projection ----- *)

let test_project () =
  (* exists Y. X + Y <= 6 & X >= 2 & Y >= 0  ->  2 <= X <= 6 *)
  let c = conj [ Atom.le (Linexpr.add vx vy) (n 6); Atom.ge vx (n 2); Atom.ge vy (n 0) ] in
  let p = Conj.project ~keep:(Var.Set.singleton x) c in
  check_bool "projection keeps x bounds" true
    (Conj.equiv p (conj [ Atom.ge vx (n 2); Atom.le vx (n 6) ]));
  (* paper, Example 4.1: X + Y <= 6 & X >= 2 projected onto Y gives Y <= 4 *)
  let c41 = conj [ Atom.le (Linexpr.add vx vy) (n 6); Atom.ge vx (n 2) ] in
  let p41 = Conj.project ~keep:(Var.Set.singleton y) c41 in
  check_bool "Y <= 4 (Example 4.1)" true (Conj.equiv p41 (conj [ Atom.le vy (n 4) ]));
  (* projecting an unsatisfiable conjunction stays unsatisfiable *)
  let bad = conj [ Atom.le vx (n 0); Atom.ge vx (n 1) ] in
  check_bool "unsat projects to unsat" false
    (Conj.is_sat (Conj.project ~keep:(Var.Set.singleton y) bad));
  (* strictness is preserved through elimination: X < Y & Y <= 3 -> X < 3 *)
  let s = conj [ Atom.lt vx vy; Atom.le vy (n 3) ] in
  let ps = Conj.project ~keep:(Var.Set.singleton x) s in
  check_bool "strict preserved" true (Conj.equiv ps (conj [ Atom.lt vx (n 3) ]));
  check_bool "not weaker" false (Conj.implies (conj [ Atom.le vx (n 3) ]) ps)

let test_project_equalities () =
  (* exists Y. X = Y + 1 & Y = Z + 2  ->  X = Z + 3 *)
  let c = conj [ Atom.eq vx (Linexpr.add vy (n 1)); Atom.eq vy (Linexpr.add vz (n 2)) ] in
  let p = Conj.project ~keep:(Var.Set.of_list [ x; z ]) c in
  check_bool "eq composition" true
    (Conj.equiv p (conj [ Atom.eq vx (Linexpr.add vz (n 3)) ]))

(* ----- Conj: implication & simplification ----- *)

let test_implies () =
  (* paper, after Definition 2.3: (X + Y <= 4) & (X >= 2) implies Y <= 2 *)
  let c = conj [ Atom.le (Linexpr.add vx vy) (n 4); Atom.ge vx (n 2) ] in
  check_bool "paper implication" true (Conj.implies_atom c (Atom.le vy (n 2)));
  check_bool "not stronger" false (Conj.implies_atom c (Atom.lt vy (n 2)));
  check_bool "self implication" true (Conj.implies c c);
  check_bool "ff implies anything" true (Conj.implies Conj.ff (conj [ Atom.eq vx (n 99) ]));
  check_bool "tt implies only trivial" false (Conj.implies Conj.tt (conj [ Atom.le vx (n 0) ]));
  (* scaling invariance: 2X <= 4 implies X <= 2 and vice versa *)
  let a = conj [ Atom.le (Linexpr.scale (Q.of_int 2) vx) (n 4) ] in
  let b = conj [ Atom.le vx (n 2) ] in
  check_bool "scaled equiv" true (Conj.equiv a b)

let test_simplify () =
  (* X <= 3 makes X <= 5 redundant *)
  let c = conj [ Atom.le vx (n 3); Atom.le vx (n 5) ] in
  let s = Conj.simplify c in
  check_int "redundant dropped" 1 (Conj.size s);
  check_bool "still equiv" true (Conj.equiv s c);
  (* unsat simplifies to ff *)
  check_bool "unsat to ff" true
    (Conj.equal (Conj.simplify (conj [ Atom.le vx (n 0); Atom.ge vx (n 1) ])) Conj.ff);
  (* implied sum: X <= 2 & Y <= 2 makes X + Y <= 4 redundant *)
  let c2 = conj [ Atom.le vx (n 2); Atom.le vy (n 2); Atom.le (Linexpr.add vx vy) (n 4) ] in
  check_int "sum dropped" 2 (Conj.size (Conj.simplify c2))

(* ----- Cset ----- *)

let test_cset_basics () =
  check_bool "ff is ff" true (Cset.is_ff Cset.ff);
  check_bool "tt is tt" true (Cset.is_tt Cset.tt);
  (* unsat disjuncts are pruned *)
  let cs = Cset.of_disjuncts [ conj [ Atom.le vx (n 0); Atom.ge vx (n 1) ] ] in
  check_bool "pruned to ff" true (Cset.is_ff cs);
  (* subsumed disjuncts are pruned: (X<=3) | (X<=5)  ->  X<=5 *)
  let cs2 = Cset.or_ (Cset.of_conj (conj [ Atom.le vx (n 3) ])) (Cset.of_conj (conj [ Atom.le vx (n 5) ])) in
  check_int "subsumption pruning" 1 (Cset.num_disjuncts cs2);
  check_bool "kept the weaker" true
    (Cset.equiv cs2 (Cset.of_conj (conj [ Atom.le vx (n 5) ])))

let test_cset_implies () =
  (* (X<=1) | (X>=5)  ⊨  (X<=2) | (X>=4) *)
  let small = Cset.of_disjuncts [ conj [ Atom.le vx (n 1) ]; conj [ Atom.ge vx (n 5) ] ] in
  let big = Cset.of_disjuncts [ conj [ Atom.le vx (n 2) ]; conj [ Atom.ge vx (n 4) ] ] in
  check_bool "dnf implication holds" true (Cset.implies small big);
  check_bool "dnf implication converse fails" false (Cset.implies big small);
  (* a conjunction implying a *disjunction* without implying either disjunct:
     0<=X<=10  ⊨  (X<=5) | (X>=5) *)
  let mid = conj [ Atom.ge vx (n 0); Atom.le vx (n 10) ] in
  let split = Cset.of_disjuncts [ conj [ Atom.le vx (n 5) ]; conj [ Atom.ge vx (n 5) ] ] in
  check_bool "case split implication" true (Cset.conj_implies mid split);
  check_bool "not via single disjunct (a)" false (Conj.implies mid (conj [ Atom.le vx (n 5) ]));
  check_bool "strict gap fails" false
    (Cset.conj_implies mid
       (Cset.of_disjuncts [ conj [ Atom.lt vx (n 5) ]; conj [ Atom.gt vx (n 5) ] ]))

(* Implication cases, one row each: the conjunction [d], the disjuncts of
   the set it is tested against, and whether [d ⊨ set].  Each row is
   decided with caches and the box prefilter on and off. *)
let implication_cases =
  let between v lo hi = [ Atom.ge v (n lo); Atom.le v (n hi) ] in
  let unit_cover k = List.init k (fun i -> between vx i (i + 1)) in
  [
    ( "disjunct itself",
      [ Atom.le vx (n 1) ],
      [ [ Atom.le vx (n 1) ]; [ Atom.ge vx (n 5) ] ],
      true );
    ("unsatisfiable d", [ Atom.le vx (n 0); Atom.ge vx (n 1) ], [ [ Atom.ge vy (n 9) ] ], true);
    ("empty set", [ Atom.le vx (n 1) ], [], false);
    ("one disjunct implied", [ Atom.le vx (n 1) ], [ [ Atom.le vx (n 2) ] ], true);
    ("one disjunct not implied", [ Atom.le vx (n 3) ], [ [ Atom.le vx (n 2) ] ], false);
    ( "case split on a closed point",
      between vx 0 10,
      [ [ Atom.le vx (n 5) ]; [ Atom.ge vx (n 5) ] ],
      true );
    ( "open gap escapes",
      between vx 0 10,
      [ [ Atom.lt vx (n 5) ]; [ Atom.gt vx (n 5) ] ],
      false );
    ( "box-disjoint from every disjunct",
      between vx 20 21,
      [ between vx 0 1; between vx 5 6 ],
      false );
    ( "equality negates to two sides",
      between vx 0 10,
      [ [ Atom.eq vx (n 3) ]; [ Atom.lt vx (n 3) ]; [ Atom.gt vx (n 3) ] ],
      true );
    ( "two variables, split by a diagonal",
      between vx 0 4 @ between vy 0 4,
      [ [ Atom.le vx vy ]; [ Atom.ge vx vy ] ],
      true );
    ( "two variables, diagonal band missing",
      between vx 0 4 @ between vy 0 4,
      [ [ Atom.le (Linexpr.add vx (n 1)) vy ]; [ Atom.ge vx (Linexpr.add vy (n 1)) ] ],
      false );
    ( "quadrants cover a square",
      between vx 0 4 @ between vy 0 4,
      [
        between vx 0 2 @ between vy 0 2;
        between vx 2 4 @ between vy 0 2;
        between vx 0 2 @ between vy 2 4;
        between vx 2 4 @ between vy 2 4;
      ],
      true );
    ("many disjuncts cover", between vx 0 24, unit_cover 24, true);
    ( "many disjuncts, the last gap escapes",
      between vx 0 25,
      unit_cover 24 @ [ [ Atom.gt vx (n 24); Atom.lt vx (n 25) ] ],
      false );
    ( "many disjuncts, one missing",
      between vx 0 24,
      List.filteri (fun i _ -> i <> 17) (unit_cover 24),
      false );
  ]

let test_implication_table () =
  List.iter
    (fun (label, d, ds, expected) ->
      let cs = Cset.of_disjuncts (List.map conj ds) in
      List.iter
        (fun caches ->
          let got = Memo.with_caches caches (fun () -> Cset.conj_implies (conj d) cs) in
          check_bool (Printf.sprintf "%s (caches %b)" label caches) expected got)
        [ true; false ])
    implication_cases

let test_cset_prune_multi () =
  (* three disjuncts: (0<=X<=1) | (0<=X<=3) | (5<=X<=6); the first is
     subsumed by the second, the third is disjoint from both *)
  let d1 = conj [ Atom.ge vx (n 0); Atom.le vx (n 1) ] in
  let d2 = conj [ Atom.ge vx (n 0); Atom.le vx (n 3) ] in
  let d3 = conj [ Atom.ge vx (n 5); Atom.le vx (n 6) ] in
  let cs = Cset.or_ (Cset.of_disjuncts [ d1; d2 ]) (Cset.of_conj d3) in
  check_int "two disjuncts survive" 2 (Cset.num_disjuncts cs);
  check_bool "subsumed disjunct gone" false (List.exists (Conj.equal d1) (Cset.disjuncts cs));
  check_bool "incomparable pair kept" true
    (List.exists (Conj.equal d2) (Cset.disjuncts cs)
    && List.exists (Conj.equal d3) (Cset.disjuncts cs));
  (* a 2-disjunct set of incomparable disjuncts survives prune intact *)
  check_int "incomparable pair intact" 2
    (Cset.num_disjuncts (Cset.or_ (Cset.of_conj d2) (Cset.of_conj d3)));
  (* a conjunction disjoint from every disjunct implies none of them *)
  let far = conj [ Atom.ge vx (n 10); Atom.le vx (n 11) ] in
  check_bool "disjoint conj_implies is false" false
    (Cset.conj_implies far (Cset.of_disjuncts [ d1; d3 ]))

let test_cset_and () =
  let a = Cset.of_disjuncts [ conj [ Atom.le vx (n 1) ]; conj [ Atom.ge vx (n 5) ] ] in
  let b = Cset.of_conj (conj [ Atom.ge vx (n 0) ]) in
  let r = Cset.and_ a b in
  (* (X<=1 | X>=5) & X>=0  =  (0<=X<=1) | (X>=5) *)
  check_int "two disjuncts" 2 (Cset.num_disjuncts r);
  check_bool "equiv" true
    (Cset.equiv r
       (Cset.of_disjuncts
          [ conj [ Atom.ge vx (n 0); Atom.le vx (n 1) ]; conj [ Atom.ge vx (n 5) ] ]))

let test_cset_disjointify () =
  (* flight example shape: overlapping (T<=240) | (C<=150) with T,C > 0 *)
  let t = Var.mk "T" and c = Var.mk "C" in
  let vt = Linexpr.var t and vc = Linexpr.var c in
  let d1 = conj [ Atom.gt vt (n 0); Atom.le vt (n 240); Atom.gt vc (n 0) ] in
  let d2 = conj [ Atom.gt vt (n 0); Atom.gt vc (n 0); Atom.le vc (n 150) ] in
  let cs = Cset.of_disjuncts [ d1; d2 ] in
  let dj = Cset.disjointify cs in
  check_bool "equivalent" true (Cset.equiv cs dj);
  (* pairwise disjoint *)
  let ds = Cset.disjuncts dj in
  List.iteri
    (fun i di ->
      List.iteri
        (fun j djj -> if i < j then check_bool "disjoint" false (Conj.is_sat (Conj.and_ di djj)))
        ds)
    ds

let test_cset_weaken_to_one () =
  let t = Var.mk "T" and c = Var.mk "C" in
  let vt = Linexpr.var t and vc = Linexpr.var c in
  let d1 = conj [ Atom.gt vt (n 0); Atom.le vt (n 240); Atom.gt vc (n 0) ] in
  let d2 = conj [ Atom.gt vt (n 0); Atom.gt vc (n 0); Atom.le vc (n 150) ] in
  let weak = Cset.weaken_to_one (Cset.of_disjuncts [ d1; d2 ]) in
  (* Section 4.6: bounding to one disjunct yields ($3 > 0)&($4 > 0) *)
  check_bool "weakened hull" true (Conj.equiv weak (conj [ Atom.gt vt (n 0); Atom.gt vc (n 0) ]));
  check_bool "ff weakens to ff" true (Conj.equal (Cset.weaken_to_one Cset.ff) Conj.ff)

(* every operation on the [tt] / [ff] boundary values: the fuzzing harness
   feeds these degenerate sets to the rewrites constantly (QRP seeds every
   non-query predicate with [false]), so their algebra must be exact *)
let test_cset_edge_cases () =
  let c_le4 = conj [ Atom.le vx (n 4) ] in
  let cs = Cset.of_conj c_le4 in
  (* construction *)
  check_bool "of_disjuncts [] is ff" true (Cset.is_ff (Cset.of_disjuncts []));
  check_bool "of_conj Conj.ff is ff" true (Cset.is_ff (Cset.of_conj Conj.ff));
  check_bool "of_conj Conj.tt is tt" true (Cset.is_tt (Cset.of_conj Conj.tt));
  check_bool "unsat disjunct pruned" true
    (Cset.num_disjuncts (Cset.of_disjuncts [ c_le4; Conj.ff ]) = 1);
  check_bool "tt disjunct absorbs the rest" true
    (Cset.is_tt (Cset.of_disjuncts [ c_le4; Conj.tt ]));
  check_int "num_disjuncts ff" 0 (Cset.num_disjuncts Cset.ff);
  check_int "num_disjuncts tt" 1 (Cset.num_disjuncts Cset.tt);
  (* lattice identities *)
  check_bool "ff and cs" true (Cset.is_ff (Cset.and_ Cset.ff cs));
  check_bool "tt and cs" true (Cset.equiv (Cset.and_ Cset.tt cs) cs);
  check_bool "ff or cs" true (Cset.equiv (Cset.or_ Cset.ff cs) cs);
  check_bool "tt or cs" true (Cset.is_tt (Cset.or_ Cset.tt cs));
  check_bool "and_conj Conj.ff" true (Cset.is_ff (Cset.and_conj Conj.ff cs));
  check_bool "and_conj Conj.tt" true (Cset.equiv (Cset.and_conj Conj.tt cs) cs);
  (* implication: ff is bottom, tt is top *)
  check_bool "ff implies anything" true (Cset.implies Cset.ff cs && Cset.implies Cset.ff Cset.ff);
  check_bool "anything implies tt" true (Cset.implies cs Cset.tt && Cset.implies Cset.tt Cset.tt);
  check_bool "tt does not imply ff" false (Cset.implies Cset.tt Cset.ff);
  check_bool "sat set does not imply ff" false (Cset.implies cs Cset.ff);
  check_bool "conj_implies from Conj.ff" true (Cset.conj_implies Conj.ff Cset.ff);
  check_bool "conj_implies unsat conj to ff" true
    (Cset.conj_implies (conj [ Atom.le (n 1) (n 0) ]) Cset.ff);
  check_bool "conj_implies Conj.tt to ff" false (Cset.conj_implies Conj.tt Cset.ff);
  (* complement: cs /\ ~cs = ff, cs \/ ~cs = tt *)
  check_bool "cs and its negation" true (Cset.is_ff (Cset.and_ cs (Cset.negate_conj c_le4)));
  check_bool "cs or its negation" true (Cset.equiv (Cset.or_ cs (Cset.negate_conj c_le4)) Cset.tt);
  check_bool "negate_conj tt" true (Cset.is_ff (Cset.negate_conj Conj.tt));
  check_bool "negate_conj ff" true (Cset.is_tt (Cset.negate_conj Conj.ff));
  (* transformations preserve the boundary values *)
  check_bool "disjointify ff" true (Cset.is_ff (Cset.disjointify Cset.ff));
  check_bool "disjointify tt" true (Cset.is_tt (Cset.disjointify Cset.tt));
  check_bool "simplify ff" true (Cset.is_ff (Cset.simplify Cset.ff));
  check_bool "simplify tt" true (Cset.is_tt (Cset.simplify Cset.tt));
  check_bool "project ff" true (Cset.is_ff (Cset.project ~keep:Var.Set.empty Cset.ff));
  check_bool "project tt" true (Cset.is_tt (Cset.project ~keep:Var.Set.empty Cset.tt));
  check_bool "project everything away is tt" true
    (Cset.is_tt (Cset.project ~keep:Var.Set.empty cs));
  check_bool "weaken_to_one tt" true (Conj.is_tt (Cset.weaken_to_one Cset.tt));
  check_bool "weaken_to_one with tt disjunct" true
    (Conj.is_tt (Cset.weaken_to_one (Cset.of_disjuncts [ c_le4; Conj.tt ])));
  (* pairwise-unsatisfiable conjunction collapses to ff *)
  let low_or_high = Cset.of_disjuncts [ conj [ Atom.le vx (n 0) ]; conj [ Atom.le (n 10) vx ] ] in
  let middle = Cset.of_conj (conj [ Atom.le (n 2) vx; Atom.le vx (n 5) ]) in
  check_bool "disjoint bands conjoin to ff" true (Cset.is_ff (Cset.and_ low_or_high middle));
  (* comparison treats semantically-false sets alike *)
  check_bool "equal ff ff" true (Cset.equal Cset.ff Cset.ff);
  check_bool "tt distinct from ff" false (Cset.equal Cset.tt Cset.ff);
  check_bool "unsat conj equiv ff" true
    (Cset.equiv Cset.ff (Cset.of_conj (conj [ Atom.le (n 1) (n 0) ])))

(* ----- properties ----- *)

let vars_pool = [| x; y; z; w |]

let expr_gen =
  QCheck.Gen.(
    let coeff = map Q.of_int (int_range (-3) 3) in
    let term = map2 (fun c i -> (c, vars_pool.(i))) coeff (int_range 0 3) in
    map2 (fun ts k -> Linexpr.of_terms ts (Q.of_int k)) (list_size (int_range 1 3) term)
      (int_range (-5) 5))

let atom_gen =
  QCheck.Gen.(
    map2
      (fun e op -> Atom.make e (match op with 0 -> Atom.Le | 1 -> Atom.Lt | _ -> Atom.Eq))
      expr_gen (int_range 0 2))

let conj_gen = QCheck.Gen.(map Conj.of_list (list_size (int_range 0 4) atom_gen))

let point_gen =
  QCheck.Gen.(
    map
      (fun l ->
        List.fold_left2
          (fun acc v q -> Var.Map.add v (Q.of_ints q 2) acc)
          Var.Map.empty
          (Array.to_list vars_pool) l)
      (list_repeat 4 (int_range (-8) 8)))

let conj_point = QCheck.make QCheck.Gen.(pair conj_gen point_gen)

(* a conjunction over the canonical $1..$3 and X, and a substitution
   binding some of the $i to X, Y, a constant or an affine expression in Y
   (repeats included: $1 := X, $2 := X); no replacement mentions a $i *)
let subst_case_gen =
  QCheck.Gen.(
    let pool = [| Var.arg 1; Var.arg 2; Var.arg 3; x |] in
    let coeff = map Q.of_int (int_range (-3) 3) in
    let term = map2 (fun c i -> (c, pool.(i))) coeff (int_range 0 3) in
    let expr =
      map2 (fun ts k -> Linexpr.of_terms ts (Q.of_int k)) (list_size (int_range 1 3) term)
        (int_range (-5) 5)
    in
    let atom =
      map2
        (fun e op -> Atom.make e (match op with 0 -> Atom.Le | 1 -> Atom.Lt | _ -> Atom.Eq))
        expr (int_range 0 2)
    in
    let repl =
      oneof
        [
          return vx;
          return vy;
          map n (int_range (-4) 4);
          map2 (fun a k -> Linexpr.affine (Q.of_int a) y (Q.of_int k)) (int_range (-2) 2)
            (int_range (-3) 3);
        ]
    in
    pair
      (map Conj.of_list (list_size (int_range 0 4) atom))
      (map
         (fun rs ->
           List.concat
             (List.mapi
                (fun i r -> match r with Some e -> [ (Var.arg (i + 1), e) ] | None -> [])
                rs))
         (list_repeat 3 (opt repl))))

let prop_subst_one_pass =
  QCheck.Test.make ~name:"one-pass subst equals sequential single-variable substs" ~count:1000
    (QCheck.make
       ~print:(fun (c, s) ->
         Conj.to_string c ^ " with "
         ^ String.concat ", "
             (List.map (fun (v, e) -> Var.name v ^ " := " ^ Linexpr.to_string e) s))
       subst_case_gen)
    (fun (c, s) ->
      Conj.equal (Conj.subst s c) (List.fold_left (fun acc b -> Conj.subst [ b ] acc) c s)
      && (s <> [] || Conj.subst s c == c))

let prop_sat_sound =
  QCheck.Test.make ~name:"point satisfying conj => is_sat" ~count:500 conj_point
    (fun (c, env) ->
      QCheck.assume (eval_conj env c);
      Conj.is_sat c)

let prop_project_sound =
  QCheck.Test.make ~name:"projection preserves satisfying points" ~count:500 conj_point
    (fun (c, env) ->
      QCheck.assume (eval_conj env c);
      let keep = Var.Set.of_list [ x; y ] in
      eval_conj env (Conj.project ~keep c))

let prop_implies_sound =
  QCheck.Test.make ~name:"implication respected by points" ~count:300
    (QCheck.make QCheck.Gen.(triple conj_gen conj_gen point_gen)) (fun (c, d, env) ->
      QCheck.assume (Conj.implies c d);
      QCheck.assume (eval_conj env c);
      eval_conj env d)

let prop_negate_complement =
  QCheck.Test.make ~name:"atom negation is complement at points" ~count:500
    (QCheck.make QCheck.Gen.(pair atom_gen point_gen)) (fun (a, env) ->
      let na = List.exists (eval_atom env) (Atom.negate a) in
      eval_atom env a = not na)

let prop_simplify_equiv =
  QCheck.Test.make ~name:"simplify preserves point semantics" ~count:300 conj_point
    (fun (c, env) -> eval_conj env c = eval_conj env (Conj.simplify c))

let prop_disjointify_equiv =
  QCheck.Test.make ~name:"disjointify preserves point semantics" ~count:150
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 3) conj_gen) point_gen))
    (fun (ds, env) ->
      let cs = Cset.of_disjuncts ds in
      eval_cset env cs = eval_cset env (Cset.disjointify cs))

let prop_weaken_sound =
  QCheck.Test.make ~name:"weaken_to_one is implied by the set" ~count:150
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 3) conj_gen) point_gen))
    (fun (ds, env) ->
      let cs = Cset.of_disjuncts ds in
      QCheck.assume (eval_cset env cs);
      eval_conj env (Cset.weaken_to_one cs))


(* ----- additional coverage ----- *)

let test_cset_negate_conj () =
  (* ¬(1<=X<=3) = (X<1) | (X>3) *)
  let c = conj [ Atom.ge vx (n 1); Atom.le vx (n 3) ] in
  let neg = Cset.negate_conj c in
  check_int "two disjuncts" 2 (Cset.num_disjuncts neg);
  check_bool "covers below" true (Cset.conj_implies (conj [ Atom.lt vx (n 1) ]) neg);
  check_bool "covers above" true (Cset.conj_implies (conj [ Atom.gt vx (n 3) ]) neg);
  check_bool "excludes inside" false (Cset.conj_implies (conj [ Atom.eq vx (n 2) ]) neg);
  (* ¬(X = 2) has two strict branches *)
  let neq = Cset.negate_conj (conj [ Atom.eq vx (n 2) ]) in
  check_int "eq negation" 2 (Cset.num_disjuncts neq);
  (* negating true is false and vice versa *)
  check_bool "neg tt is ff" true (Cset.is_ff (Cset.negate_conj Conj.tt))

let test_cset_project () =
  (* exists Y. (X <= Y & Y <= 2) | (X >= Y & Y >= 9)  =  (X <= 2) | (X >= 9) *)
  let cs =
    Cset.of_disjuncts
      [ conj [ Atom.le vx vy; Atom.le vy (n 2) ]; conj [ Atom.ge vx vy; Atom.ge vy (n 9) ] ]
  in
  let p = Cset.project ~keep:(Var.Set.singleton x) cs in
  check_bool "disjunctwise projection" true
    (Cset.equiv p
       (Cset.of_disjuncts [ conj [ Atom.le vx (n 2) ]; conj [ Atom.ge vx (n 9) ] ]))

let test_equalities_everywhere () =
  (* a system of equalities solved by substitution: X = 2Y, Y = Z + 1, Z = 3
     implies X = 8 *)
  let c =
    conj
      [ Atom.eq vx (Linexpr.scale (Q.of_int 2) vy);
        Atom.eq vy (Linexpr.add vz (n 1));
        Atom.eq vz (n 3) ]
  in
  check_bool "chain solved" true (Conj.implies_atom c (Atom.eq vx (n 8)));
  check_bool "chain not over-solved" false (Conj.implies_atom c (Atom.eq vx (n 9)));
  (* inconsistent equalities *)
  let bad = Conj.add (Atom.eq vx (n 7)) c in
  check_bool "inconsistent" false (Conj.is_sat bad)

let test_scaled_atom_normalization () =
  check_bool "2X <= 4 is X <= 2" true
    (Atom.equal (Atom.le (Linexpr.scale (Q.of_int 2) vx) (n 4)) (Atom.le vx (n 2)));
  check_bool "fractions normalize" true
    (Atom.equal
       (Atom.le (Linexpr.scale (Q.of_ints 1 3) vx) (Linexpr.const (Q.of_ints 2 3)))
       (Atom.le vx (n 2)));
  (* equalities: -X + Y = 0 same as X - Y = 0 *)
  check_bool "eq sign canonical" true
    (Atom.equal (Atom.eq (Linexpr.sub vy vx) (n 0)) (Atom.eq (Linexpr.sub vx vy) (n 0)))

let test_unbounded_directions () =
  (* only upper bounds: satisfiable (goes to -inf) *)
  check_bool "upper only" true (Conj.is_sat (conj [ Atom.le vx (n 0); Atom.le vx vy ]));
  (* x appears with same sign everywhere: eliminating drops all *)
  let c = conj [ Atom.le vx vy; Atom.le vx vz ] in
  let p = Conj.project ~keep:(Var.Set.of_list [ y; z ]) c in
  check_bool "no residual constraint" true (Conj.is_tt (Conj.simplify p))


(* ----- Simplex: the independent decision procedure ----- *)

let test_simplex_units () =
  let sat atoms = Simplex.is_sat atoms in
  check_bool "empty sat" true (sat []);
  check_bool "x<=0 & x>=1" false (sat [ Atom.le vx (n 0); Atom.ge vx (n 1) ]);
  check_bool "x<=1 & x>=1" true (sat [ Atom.le vx (n 1); Atom.ge vx (n 1) ]);
  check_bool "x<1 & x>=1" false (sat [ Atom.lt vx (n 1); Atom.ge vx (n 1) ]);
  check_bool "strict cycle" false (sat [ Atom.lt vx vy; Atom.lt vy vz; Atom.lt vz vx ]);
  check_bool "nonstrict cycle" true (sat [ Atom.le vx vy; Atom.le vy vz; Atom.le vz vx ]);
  check_bool "eq chain" false
    (sat
       [ Atom.eq vx (Linexpr.add vy (n 1)); Atom.eq vy (Linexpr.add vz (n 1));
         Atom.eq vz (n 5); Atom.eq vx (n 8) ]);
  check_bool "sum corner" true
    (sat [ Atom.le (Linexpr.add vx vy) (n 4); Atom.ge vx (n 2); Atom.ge vy (n 2) ]);
  check_bool "sum over" false
    (sat [ Atom.le (Linexpr.add vx vy) (n 4); Atom.ge vx (n 2); Atom.ge vy (n 3) ]);
  check_bool "const false" false (sat [ Atom.ff ]);
  (* a model is produced and satisfies the constraints up to epsilon *)
  match Simplex.solve [ Atom.lt vx vy; Atom.le vy (n 3) ] with
  | None -> Alcotest.fail "should be sat"
  | Some asst ->
      let value v = try List.assoc v asst with Not_found -> Simplex.Qeps.zero in
      check_bool "x < y in the model" true
        (Simplex.Qeps.compare (value x) (value y) < 0)

let test_qeps_order () =
  let open Simplex.Qeps in
  let one = of_rat Q.one in
  let one_minus_eps = { re = Q.one; eps = Q.minus_one } in
  check_bool "1 - eps < 1" true (compare one_minus_eps one < 0);
  check_bool "1 - eps > 0.999" true
    (compare one_minus_eps (of_rat (Q.of_ints 999 1000)) > 0);
  check_bool "scale flips sign" true
    (compare (scale Q.minus_one one_minus_eps) zero < 0)

(* the key property: simplex and Fourier-Motzkin agree on satisfiability *)
let bigger_conj_gen =
  QCheck.Gen.(map (fun l -> l) (list_size (int_range 0 8) atom_gen))

let prop_simplex_agrees_fm =
  QCheck.Test.make ~name:"simplex agrees with Fourier-Motzkin" ~count:2000
    (QCheck.make bigger_conj_gen) (fun atoms ->
      (* Conj.is_sat now uses simplex itself; compare against the
         Fourier-Motzkin eliminator directly: projecting onto no variables
         yields the empty (true) conjunction iff satisfiable *)
      let fm_sat = Conj.is_tt (Conj.project ~keep:Var.Set.empty (Conj.of_list atoms)) in
      Simplex.is_sat atoms = fm_sat)

let prop_simplex_model_satisfies =
  QCheck.Test.make ~name:"simplex models satisfy non-strict atoms" ~count:500
    (QCheck.make bigger_conj_gen) (fun atoms ->
      match Simplex.solve atoms with
      | None -> QCheck.assume_fail ()
      | Some asst ->
          (* at eps = 0 all non-strict constraints must hold exactly *)
          let env v =
            match List.assoc_opt v asst with
            | Some q -> Q.add q.Simplex.Qeps.re (Q.mul (Q.of_ints 1 1000000) q.Simplex.Qeps.eps)
            | None -> Q.zero
          in
          List.for_all
            (fun (a : Atom.t) ->
              match a.Atom.op with
              | Atom.Le | Atom.Eq ->
                  (* evaluate with tiny epsilon; non-strict atoms must hold
                     for every sufficiently small eps, in particular this one
                     if coefficients are moderate *)
                  eval_atom (List.fold_left (fun m v -> Var.Map.add v (env v) m) Var.Map.empty
                               (Var.Set.elements (Atom.vars a))) a
              | Atom.Lt -> true)
            atoms)

let prop_cset_or_is_union =
  QCheck.Test.make ~name:"cset or is pointwise union" ~count:200
    (QCheck.make QCheck.Gen.(triple conj_gen conj_gen point_gen)) (fun (a, b, env) ->
      let u = Cset.or_ (Cset.of_conj a) (Cset.of_conj b) in
      eval_cset env u = (eval_conj env a || eval_conj env b))

let prop_cset_and_is_intersection =
  QCheck.Test.make ~name:"cset and is pointwise intersection" ~count:200
    (QCheck.make QCheck.Gen.(triple conj_gen conj_gen point_gen)) (fun (a, b, env) ->
      let u = Cset.and_ (Cset.of_conj a) (Cset.of_conj b) in
      eval_cset env u = (eval_conj env a && eval_conj env b))

let prop_negate_conj_complement =
  QCheck.Test.make ~name:"negate_conj is pointwise complement" ~count:200
    (QCheck.make QCheck.Gen.(pair conj_gen point_gen)) (fun (c, env) ->
      eval_cset env (Cset.negate_conj c) = not (eval_conj env c))

(* ----- structural terms and memoization ----- *)

(* terms built apart are equal, hash alike and share memo entries *)
let test_structural_terms () =
  let a = Atom.le vx (n 4) and a' = Atom.le vx (n 4) in
  check_bool "atoms built apart are equal" true (Atom.equal a a');
  check_int "atom hashes agree" (Atom.hash a) (Atom.hash a');
  (* the expression's variable map built in another order *)
  let e1 = Linexpr.add vx (Linexpr.add vy vz) and e2 = Linexpr.add vz (Linexpr.add vy vx) in
  check_bool "term order does not matter" true
    (Atom.equal (Atom.le e1 (n 1)) (Atom.le e2 (n 1)));
  (* conjunctions canonicalize (sort + dedup), so atom order and
     duplicates don't matter *)
  let b = Atom.lt vy vx in
  let c1 = Conj.of_list [ a; b ] and c2 = Conj.of_list [ b; a'; b ] in
  check_bool "conjs equal" true (Conj.equal c1 c2);
  check_int "conj hashes agree" (Conj.hash c1) (Conj.hash c2);
  check_bool "distinct conjs distinct" false (Conj.equal c1 (Conj.of_list [ a ]));
  (* the tt and syntactic-ff tests stay physical *)
  check_bool "empty list is the shared tt" true (Conj.of_list [] == Conj.tt);
  check_bool "contradiction is the shared ff" true
    (Conj.of_list [ a; Atom.lt vx vx ] == Conj.ff);
  Memo.clear_all ();
  Obs.zero "solver.";
  check_bool "sat" true (Conj.is_sat c1);
  check_bool "sat again" true (Conj.is_sat c2);
  check_int "an equal conjunction hits the entry" 1 (count "solver.memo.conj_is_sat.hits")

let total_entries () =
  List.fold_left (fun acc (s : Memo.table_stats) -> acc + s.Memo.entries) 0 (Memo.stats ())

let test_memo_hit_counting () =
  Memo.clear_all ();
  Obs.zero "solver.";
  let c = Conj.of_list [ Atom.le vx (n 2); Atom.le vy vx ] in
  let d = Conj.of_list [ Atom.le vx (n 5) ] in
  check_bool "implies holds" true (Conj.implies c d);
  let s1 = Solver_stats.snapshot () in
  check_bool "first query misses" true (Solver_stats.total_misses s1 > 0);
  check_bool "implies holds again" true (Conj.implies c d);
  let s2 = Solver_stats.snapshot () in
  check_bool "repeat is a cache hit" true
    (Solver_stats.total_hits s2 > Solver_stats.total_hits s1);
  check_int "repeat adds no misses" (Solver_stats.total_misses s1)
    (Solver_stats.total_misses s2);
  check_int "raw counter sees both entries" 2 s2.Solver_stats.implies_checks;
  check_int "the implies cache counted the hit" 1 (count "solver.memo.conj_implies.hits")

(* Every solver and cache count is one registry counter: the cache's own
   hit/miss counters move, a traced span carries their deltas, and the
   Solver_stats record only copies registry values. *)
let test_memo_registry () =
  Memo.clear_all ();
  Obs.zero "solver.";
  let c = Conj.of_list [ Atom.le vx (n 7); Atom.ge vx (Linexpr.add vy (n 3)) ] in
  let hits () = count "solver.memo.conj_is_sat.hits"
  and misses () = count "solver.memo.conj_is_sat.misses" in
  check_bool "sat" true (Conj.is_sat c);
  check_int "first query: one miss" 1 (misses ());
  check_int "first query: no hit" 0 (hits ());
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let repeat =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was_enabled)
      (fun () -> Obs.span "test.memo_repeat" (fun () -> Conj.is_sat c))
  in
  check_bool "repeat agrees" true repeat;
  check_int "repeat: one hit" 1 (hits ());
  check_int "repeat: no further miss" 1 (misses ());
  let ev =
    List.find (fun (e : Obs.event) -> e.Obs.name = "test.memo_repeat") (List.rev (Obs.events ()))
  in
  check_bool "the span carries the cache hit" true
    (List.assoc_opt "solver.memo.conj_is_sat.hits" ev.Obs.counter_deltas = Some 1);
  let s = Solver_stats.snapshot () in
  List.iter
    (fun (name, v) -> check_int name (count ("solver." ^ name)) v)
    [
      ("sat_checks", s.Solver_stats.sat_checks);
      ("implies_checks", s.Solver_stats.implies_checks);
      ("implies_atom_checks", s.Solver_stats.implies_atom_checks);
      ("cset_implies_checks", s.Solver_stats.cset_implies_checks);
      ("project_calls", s.Solver_stats.project_calls);
      ("simplex_runs", s.Solver_stats.simplex_runs);
      ("simplex_pivots", s.Solver_stats.simplex_pivots);
      ("fm_eliminations", s.Solver_stats.fm_eliminations);
      ("int.omega_eliminations", s.Solver_stats.int_omega_eliminations);
      ("int.bb_nodes", s.Solver_stats.int_bb_nodes);
    ];
  check_int "sat checks" 2 s.Solver_stats.sat_checks;
  let memo suffix =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:"solver.memo." name && String.ends_with ~suffix name then
          acc + v
        else acc)
      0 (Obs.counters ())
  in
  check_int "total_hits sums solver.memo.*.hits" (memo ".hits") (Solver_stats.total_hits s);
  check_int "total_misses sums solver.memo.*.misses" (memo ".misses")
    (Solver_stats.total_misses s);
  let registered = List.map fst (Obs.counters ()) in
  List.iter
    (fun cache ->
      List.iter
        (fun k ->
          let name = "solver.memo." ^ cache ^ k in
          check_bool (name ^ " registered") true (List.mem name registered))
        [ ".hits"; ".misses" ])
    [ "conj_is_sat"; "conj_implies"; "conj_project"; "conj_simplify"; "conj_ztighten" ]

let test_memo_clear_all () =
  Memo.clear_all ();
  Obs.zero "solver.";
  let c = Conj.of_list [ Atom.le vx (n 2); Atom.le vy vx ] in
  let d = Conj.of_list [ Atom.le vx (n 5) ] in
  ignore (Conj.implies c d);
  check_bool "entries cached" true (total_entries () > 0);
  Memo.clear_all ();
  check_int "clear_all drops every entry" 0 (total_entries ());
  let misses_before = Solver_stats.total_misses (Solver_stats.snapshot ()) in
  ignore (Conj.implies c d);
  check_bool "recompute after clear is a miss" true
    (Solver_stats.total_misses (Solver_stats.snapshot ()) > misses_before)

(* a cache of its own, so the bound is reached with cheap keys *)
let generations_cache : (int, int) Memo.cache =
  Memo.create ~name:"test_generations" ~hash:Hashtbl.hash ~equal:Int.equal

(* A table that fills past its 4,096-entry bound keeps the full table as
   its previous generation: a question asked shortly before still hits,
   and moves back.  A third table's worth of questions drops the oldest. *)
let test_memo_generations () =
  Memo.clear_all ();
  let computed = ref 0 in
  let ask k =
    Memo.cached generations_cache k (fun () ->
        incr computed;
        k * k)
  in
  for k = 0 to 4_999 do
    ignore (ask k)
  done;
  check_int "every first question computed" 5_000 !computed;
  check_int "an entry of the full table" (4_000 * 4_000) (ask 4_000);
  check_int "is a hit" 5_000 !computed;
  check_int "the newest entry" (4_999 * 4_999) (ask 4_999);
  check_int "is a hit too" 5_000 !computed;
  for k = 5_000 to 12_999 do
    ignore (ask k)
  done;
  let entries =
    (List.find (fun (s : Memo.table_stats) -> s.Memo.name = "test_generations") (Memo.stats ()))
      .Memo.entries
  in
  check_bool "at most two generations of entries" true (entries <= 2 * 4_096);
  let before = !computed in
  ignore (ask 0);
  check_int "the oldest generation was dropped" (before + 1) !computed;
  Memo.clear_all ()

let test_memo_with_caches_off () =
  let c = Conj.of_list [ Atom.le vx (n 2); Atom.le vy vx ] in
  let d = Conj.of_list [ Atom.le vx (n 5) ] in
  let unsat = Conj.of_list [ Atom.le vx (n 0); Atom.le (n 1) vx ] in
  let cached = (Conj.implies c d, Conj.is_sat unsat, Conj.is_sat c) in
  let uncached =
    Memo.with_caches false (fun () ->
        check_int "fresh state on entry" 0 (total_entries ());
        let r = (Conj.implies c d, Conj.is_sat unsat, Conj.is_sat c) in
        check_int "disabled caches stay empty" 0 (total_entries ());
        r)
  in
  check_bool "caches change nothing but speed" true (cached = uncached);
  check_bool "enabled restored" true !Memo.enabled;
  check_int "fresh state on exit" 0 (total_entries ())

(* ----- the integer domain: tightening, Omega elimination, B&B ----- *)

let scale2 e = Linexpr.scale (Q.of_int 2) e
let scale3 e = Linexpr.scale (Q.of_int 3) e
let parity_atom = Atom.eq (scale2 vx) (Linexpr.add (scale2 vy) (n 1))

let test_ztighten_rules () =
  (* strict bounds close: X < 3 ↦ X ≤ 2 *)
  check_bool "strict closes" true
    (Atom.equal (Zsolve.tighten_atom (Atom.lt vx (n 3))) (Atom.le vx (n 2)));
  (* constants round through the coefficient gcd: 2X ≤ 5 ↦ X ≤ 2 *)
  check_bool "gcd rounding" true
    (Atom.equal (Zsolve.tighten_atom (Atom.le (scale2 vx) (n 5))) (Atom.le vx (n 2)));
  (* fractional inputs integerize first: (1/2)X ≤ 3/4 ↦ X ≤ 1 *)
  check_bool "fractional rounding" true
    (Atom.equal
       (Zsolve.tighten_atom
          (Atom.le
             (Linexpr.of_terms [ (Q.of_ints 1 2, x) ] Q.zero)
             (Linexpr.of_terms [] (Q.of_ints 3 4))))
       (Atom.le vx (n 1)));
  (* an equality whose coefficient gcd does not divide the constant refutes *)
  check_bool "parity equality refutes" true
    (Atom.equal (Zsolve.tighten_atom parity_atom) Atom.ff);
  (* dividing equalities stay: 2X = 2Y + 4 keeps its solutions *)
  let even = Atom.eq (scale2 vx) (Linexpr.add (scale2 vy) (n 4)) in
  check_bool "dividing equality kept" false (Atom.equal (Zsolve.tighten_atom even) Atom.ff);
  (* ground atoms come back physically unchanged *)
  let ground = Atom.lt (n 0) (n 1) in
  check_bool "ground untouched" true (Zsolve.tighten_atom ground == ground);
  (* and the Conj-level sweep refutes the whole conjunction *)
  check_bool "ztighten to ff" true (Conj.equal (Conj.ztighten (conj [ parity_atom ])) Conj.ff)

let test_zsat_basics () =
  (* 2X = 2Y + 1: rationally satisfiable, no integer solution *)
  check_bool "parity sat over Q" true (Simplex.is_sat [ parity_atom ]);
  check_bool "parity unsat via Omega" false (Zsolve.is_sat [ parity_atom ]);
  check_bool "parity unsat via B&B" false (Zsolve.is_sat_bb [ parity_atom ]);
  (* the point X = 1/2: nonempty over Q, empty over ℤ *)
  let half = [ Atom.ge (scale2 vx) (n 1); Atom.le (scale2 vx) (n 1) ] in
  check_bool "half-point sat over Q" true (Simplex.is_sat half);
  check_bool "half-point unsat over Z" false (Zsolve.is_sat half);
  (* [2/3, 4/3] contains the integer 1; [2/3, 5/6] contains none *)
  check_bool "unit-width interval sat" true
    (Zsolve.is_sat [ Atom.ge (scale3 vx) (n 2); Atom.le (scale3 vx) (n 4) ]);
  let thin = [ Atom.ge (Linexpr.scale (Q.of_int 6) vx) (n 4); Atom.le (Linexpr.scale (Q.of_int 6) vx) (n 5) ] in
  check_bool "thin interval sat over Q" true (Simplex.is_sat thin);
  check_bool "thin interval unsat over Z" false (Zsolve.is_sat thin);
  check_bool "thin interval unsat via B&B" false (Zsolve.is_sat_bb thin);
  (* a two-variable equality with a Bézout solution: 3X + 5Y = 1 *)
  check_bool "bezout sat" true
    (Zsolve.is_sat [ Atom.eq (Linexpr.add (scale3 vx) (Linexpr.scale (Q.of_int 5) vy)) (n 1) ]);
  (* Conj.is_sat routes through Zsolve exactly when the domain is Z *)
  Memo.with_caches true @@ fun () ->
  let c = conj half in
  check_bool "Conj.is_sat over Q" true (Conj.is_sat c);
  check_bool "Conj.is_sat over Z" false
    (Cdomain.with_domain Cdomain.Z (fun () -> Conj.is_sat c))

let test_int_counters () =
  Memo.with_caches true @@ fun () ->
  Obs.zero "solver.";
  let half = conj [ Atom.ge (scale2 vx) (n 1); Atom.le (scale2 vx) (n 1) ] in
  check_bool "half-point unsat" false
    (Cdomain.with_domain Cdomain.Z (fun () -> Conj.is_sat half));
  check_bool "sat checks counted" true (count "solver.int.sat_checks" >= 1);
  check_bool "tightened atoms counted" true (count "solver.int.tightened_atoms" >= 2)

let test_z_endpoints () =
  (* Conj.is_sat under Z agrees with Zsolve on the endpoint cases *)
  let cases =
    [
      ("half-point", [ Atom.ge (scale2 vx) (n 1); Atom.le (scale2 vx) (n 1) ], false);
      ("open gap", [ Atom.gt vx (n 2); Atom.lt vx (n 3) ], false);
      ("endpoint", [ Atom.ge (scale2 vx) (n 4); Atom.le vx (n 2) ], true);
      ("unit-width", [ Atom.ge (scale3 vx) (n 2); Atom.le (scale3 vx) (n 4) ], true);
      ("parity", [ parity_atom ], false);
    ]
  in
  List.iter
    (fun (label, atoms, expected) ->
      Cdomain.with_domain Cdomain.Z (fun () ->
          check_bool (label ^ ": exact") expected (Zsolve.is_sat atoms);
          check_bool (label ^ ": Conj.is_sat") expected
            (Memo.with_caches true (fun () -> Conj.is_sat (conj atoms)))))
    cases

(* inexact eliminations whose dark shadow refutes go through the splinter
   equalities; each case asserts the verdict, that splinters ran, and that
   branch-and-bound agrees *)
let check_splinters label ~expected atoms =
  Obs.zero "solver.";
  check_bool (label ^ ": Omega") expected (Zsolve.is_sat atoms);
  check_bool (label ^ ": splinters ran") true (count "solver.int.splinters" > 0);
  check_bool (label ^ ": B&B agrees") expected (Zsolve.is_sat_bb atoms)

let lin2 a b = Linexpr.add (Linexpr.scale (Q.of_int a) vx) (Linexpr.scale (Q.of_int b) vy)

let test_z_splinters_pugh () =
  (* Pugh's example: 27 <= 11X + 13Y <= 45, -10 <= 7X - 9Y <= 4 has
     rational solutions but no integer one *)
  let pugh =
    [
      Atom.ge (lin2 11 13) (n 27);
      Atom.le (lin2 11 13) (n 45);
      Atom.ge (lin2 7 (-9)) (n (-10));
      Atom.le (lin2 7 (-9)) (n 4);
    ]
  in
  check_bool "sat over Q" true (Simplex.is_sat pugh);
  check_splinters "Pugh" ~expected:false pugh

let test_z_splinter_sat () =
  (* 2Y + 1 <= 3X <= 2Y + 2, 0 <= Y <= 3: the dark shadow refutes, and one
     splinter finds X = Y = 1 *)
  check_splinters "one splinter" ~expected:true
    [
      Atom.ge (lin2 3 (-2)) (n 1);
      Atom.le (lin2 3 (-2)) (n 2);
      Atom.ge vy (n 0);
      Atom.le vy (n 3);
    ]

(* ----- integer-domain properties ----- *)

let int_point_gen =
  QCheck.Gen.(
    map
      (fun l ->
        List.fold_left2
          (fun acc v q -> Var.Map.add v (Q.of_int q) acc)
          Var.Map.empty (Array.to_list vars_pool) l)
      (list_repeat 4 (int_range (-8) 8)))

let prop_ztighten_preserves_z_points =
  QCheck.Test.make ~name:"tighten_atom preserves integer solutions" ~count:500
    (QCheck.make QCheck.Gen.(pair atom_gen int_point_gen)) (fun (a, env) ->
      eval_atom env a = eval_atom env (Zsolve.tighten_atom a))

let prop_z_sound =
  QCheck.Test.make ~name:"integer point satisfying conj => Z-sat" ~count:500
    (QCheck.make QCheck.Gen.(pair conj_gen int_point_gen)) (fun (c, env) ->
      QCheck.assume (eval_conj env c);
      Zsolve.is_sat (Conj.to_list c))

(* pure branch-and-bound explores the whole von zur Gathen box when the
   system is unbounded, so the cross-check generator pins every variable
   inside an explicit box; the fuzz harness's int-mode Solver oracle
   cross-checks the two on the conjunctions its rewrites meet, unbounded
   ones included *)
let boxed_z_gen =
  QCheck.Gen.(
    let coeff = map Q.of_int (int_range (-3) 3) in
    let term = map2 (fun c i -> (c, vars_pool.(i))) coeff (int_range 0 1) in
    let expr =
      map2
        (fun ts k -> Linexpr.of_terms ts (Q.of_int k))
        (list_size (int_range 1 2) term) (int_range (-5) 5)
    in
    let atom =
      map2
        (fun e op -> Atom.make e (match op with 0 -> Atom.Le | 1 -> Atom.Lt | _ -> Atom.Eq))
        expr (int_range 0 2)
    in
    map
      (fun atoms ->
        Atom.ge vx (n (-6)) :: Atom.le vx (n 6) :: Atom.ge vy (n (-6)) :: Atom.le vy (n 6)
        :: atoms)
      (list_size (int_range 0 4) atom))

let prop_omega_bb_agree =
  QCheck.Test.make ~name:"Omega elimination agrees with branch-and-bound" ~count:500
    (QCheck.make boxed_z_gen) (fun atoms ->
      Zsolve.is_sat atoms = Zsolve.is_sat_bb atoms)

let prop_z_relaxation =
  QCheck.Test.make ~name:"Z-sat implies Q-sat (relaxation soundness)" ~count:500
    (QCheck.make bigger_conj_gen) (fun atoms ->
      (not (Zsolve.is_sat atoms)) || Simplex.is_sat atoms)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "constr"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basics" `Quick test_linexpr_basics;
          Alcotest.test_case "subst" `Quick test_linexpr_subst;
          Alcotest.test_case "integerize" `Quick test_linexpr_integerize;
          Alcotest.test_case "rename" `Quick test_linexpr_rename;
        ] );
      ( "atom",
        [
          Alcotest.test_case "normalization" `Quick test_atom_normalization;
          Alcotest.test_case "negate" `Quick test_atom_negate;
        ] );
      ( "conj",
        [
          Alcotest.test_case "sat basics" `Quick test_sat_basic;
          Alcotest.test_case "sat arithmetic chains" `Quick test_sat_arithmetic_chain;
          Alcotest.test_case "projection" `Quick test_project;
          Alcotest.test_case "projection equalities" `Quick test_project_equalities;
          Alcotest.test_case "implication" `Quick test_implies;
          Alcotest.test_case "simplify" `Quick test_simplify;
        ] );
      ( "cset",
        [
          Alcotest.test_case "basics" `Quick test_cset_basics;
          Alcotest.test_case "implication" `Quick test_cset_implies;
          Alcotest.test_case "implication table" `Quick test_implication_table;
          Alcotest.test_case "prune multi-disjunct" `Quick test_cset_prune_multi;
          Alcotest.test_case "conjunction" `Quick test_cset_and;
          Alcotest.test_case "disjointify" `Quick test_cset_disjointify;
          Alcotest.test_case "weaken_to_one" `Quick test_cset_weaken_to_one;
          Alcotest.test_case "tt/ff edge cases" `Quick test_cset_edge_cases;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "units" `Quick test_simplex_units;
          Alcotest.test_case "qeps ordering" `Quick test_qeps_order;
        ] );
      ( "memo",
        [
          Alcotest.test_case "equal terms share entries" `Quick test_structural_terms;
          Alcotest.test_case "hit counting" `Quick test_memo_hit_counting;
          Alcotest.test_case "registry is the one source" `Quick test_memo_registry;
          Alcotest.test_case "clear_all" `Quick test_memo_clear_all;
          Alcotest.test_case "two generations" `Quick test_memo_generations;
          Alcotest.test_case "with_caches off" `Quick test_memo_with_caches_off;
        ] );
      ( "extra",
        [
          Alcotest.test_case "negate_conj" `Quick test_cset_negate_conj;
          Alcotest.test_case "cset projection" `Quick test_cset_project;
          Alcotest.test_case "equalities" `Quick test_equalities_everywhere;
          Alcotest.test_case "atom scaling" `Quick test_scaled_atom_normalization;
          Alcotest.test_case "unbounded directions" `Quick test_unbounded_directions;
        ] );
      ( "properties",
        qt
          [
            prop_simplex_agrees_fm;
            prop_simplex_model_satisfies;
            prop_subst_one_pass;
            prop_cset_or_is_union;
            prop_cset_and_is_intersection;
            prop_negate_conj_complement;
            prop_sat_sound;
            prop_project_sound;
            prop_implies_sound;
            prop_negate_complement;
            prop_simplify_equiv;
            prop_disjointify_equiv;
            prop_weaken_sound;
          ] );
      ( "integer-domain",
        [
          Alcotest.test_case "tightening rules" `Quick test_ztighten_rules;
          Alcotest.test_case "Z satisfiability" `Quick test_zsat_basics;
          Alcotest.test_case "solver.int counters" `Quick test_int_counters;
          Alcotest.test_case "Conj.is_sat endpoints over Z" `Quick test_z_endpoints;
          Alcotest.test_case "splinters refute Pugh's example" `Quick test_z_splinters_pugh;
          Alcotest.test_case "a splinter finds an integer point" `Quick test_z_splinter_sat;
        ] );
      ( "integer-properties",
        qt
          [
            prop_ztighten_preserves_z_points;
            prop_z_sound;
            prop_omega_bb_agree;
            prop_z_relaxation;
          ] );
    ]
