open Cql_num

(* A sound box abstraction of a conjunction's solution set, used only to
   prove two conjunctions disjoint.  A box may be larger than the solution
   set, never smaller, so "disjoint" is always exact and "maybe
   compatible" falls through to the caller's exact check. *)

(* the prefilter's on/off state; only [with_tier] flips it, for a scope *)
let on = ref true
let enabled () = !on

let with_tier b f =
  let prev = !on in
  on := b;
  Fun.protect ~finally:(fun () -> on := prev) f

(* ----- the domain ----- *)

(* one side of an interval: a finite rational endpoint, open or closed;
   [None] at the interval level means unbounded on that side *)
type bnd = { v : Rat.t; strict : bool }
type itv = { lo : bnd option; hi : bnd option }

let top = { lo = None; hi = None }

let itv_is_empty i =
  match (i.lo, i.hi) with
  | Some l, Some h ->
      let c = Rat.compare l.v h.v in
      c > 0 || (c = 0 && (l.strict || h.strict))
  | _ -> false

(* tighter of two like-sided bounds; on a value tie the open one wins *)
let max_lo a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some l1, Some l2 ->
      let c = Rat.compare l1.v l2.v in
      if c > 0 then a
      else if c < 0 then b
      else Some { l1 with strict = l1.strict || l2.strict }

let min_hi a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some h1, Some h2 ->
      let c = Rat.compare h1.v h2.v in
      if c < 0 then a
      else if c > 0 then b
      else Some { h1 with strict = h1.strict || h2.strict }

let meet i j = { lo = max_lo i.lo j.lo; hi = min_hi i.hi j.hi }

let bnd_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x.strict = y.strict && Rat.equal x.v y.v
  | _ -> false

let itv_eq i j = bnd_eq i.lo j.lo && bnd_eq i.hi j.hi

(* environment: absent variables are unconstrained (⊤) *)
type env = itv Var.Map.t

let find env x = match Var.Map.find_opt x env with Some i -> i | None -> top
let env_is_empty env = Var.Map.exists (fun _ i -> itv_is_empty i) env

(* ----- interval arithmetic over linear expressions ----- *)

(* [residual_lo x env e] is a sound lower bound, over the box, of [e]
   without its [x] term (the residual used by one-unknown propagation), or
   [None] when unbounded below. *)
let residual_lo x env (e : Linexpr.t) =
  List.fold_left
    (fun acc (y, c) ->
      match acc with
      | None -> None
      | Some b -> (
          if Var.id x = Var.id y then acc
          else
            let i = find env y in
            (* the lower bound of c·y uses lo(y) for c>0, hi(y) for c<0 *)
            let side = if Rat.sign c > 0 then i.lo else i.hi in
            match side with
            | None -> None
            | Some s ->
                (* unit coefficients dominate in practice; skip the rational
                   multiply (a gcd normalization over bigints) when we can *)
                let cs =
                  if Rat.equal c Rat.one then s.v
                  else if Rat.equal c Rat.minus_one then Rat.neg s.v
                  else Rat.mul c s.v
                in
                let v = if Rat.is_zero b.v then cs else Rat.add b.v cs in
                Some { v; strict = b.strict || s.strict }))
    (Some { v = Linexpr.constant e; strict = false })
    (Linexpr.terms e)

(* ----- bound propagation ----- *)

(* In integer mode every candidate bound rounds to a closed integer
   endpoint: non-integral values floor/ceil inward, integral-but-strict
   bounds step by one.  The rounded box still contains every integer
   solution (rounding only discards fractional points), so disjointness
   stays exact over ℤ. *)
let zround_hi (b : bnd) =
  if Rat.is_integer b.v then
    if b.strict then { v = Rat.sub b.v Rat.one; strict = false } else b
  else { v = Rat.of_bigint (Zsolve.floor_rat b.v); strict = false }

let zround_lo (b : bnd) =
  if Rat.is_integer b.v then
    if b.strict then { v = Rat.add b.v Rat.one; strict = false } else b
  else { v = Rat.of_bigint (Zsolve.ceil_rat b.v); strict = false }

(* one-unknown propagation of [e ⋈ 0] (⋈ strict or not): for each term
   c·x, the rest of the expression has lower bound L over the box, so
   c·x ≤ -L (strict when the atom or L is), i.e. x gains an upper bound
   for c > 0 and a lower bound for c < 0 *)
let propagate_ineq ~z ~strict e (env, changed) =
  List.fold_left
    (fun (env, changed) (x, c) ->
      match residual_lo x env e with
      | None -> (env, changed)
      | Some l ->
          let v =
            if Rat.equal c Rat.one then Rat.neg l.v
            else if Rat.equal c Rat.minus_one then l.v
            else Rat.div (Rat.neg l.v) c
          in
          let upper = Rat.sign c > 0 in
          let cand = { v; strict = strict || l.strict } in
          let cand = Some (if z then (if upper then zround_hi cand else zround_lo cand) else cand) in
          let old = find env x in
          let tightened =
            if upper then { old with hi = min_hi old.hi cand }
            else { old with lo = max_lo old.lo cand }
          in
          if itv_eq tightened old then (env, changed)
          else (Var.Map.add x tightened env, true))
    (env, changed) (Linexpr.terms e)

let propagate_atom ~z acc (a : Atom.t) =
  match a.Atom.op with
  | Atom.Le -> propagate_ineq ~z ~strict:false a.Atom.expr acc
  | Atom.Lt -> propagate_ineq ~z ~strict:true a.Atom.expr acc
  | Atom.Eq ->
      (* e = 0 propagates as e ≤ 0 and -e ≤ 0 *)
      acc
      |> propagate_ineq ~z ~strict:false a.Atom.expr
      |> propagate_ineq ~z ~strict:false (Linexpr.neg a.Atom.expr)

(* a small pass cap: each pass only tightens, so stopping early loses
   precision (fewer disjoint pairs found), never soundness *)
let max_passes = 4

let build atoms =
  let z = Cdomain.is_z () in
  (* bounds only flow between variables through multi-term atoms; without
     any, the first pass (direct bounds) is already the fixpoint *)
  let multi =
    List.exists
      (fun (a : Atom.t) ->
        match Linexpr.terms a.Atom.expr with _ :: _ :: _ -> true | _ -> false)
      atoms
  in
  let rec go env pass =
    let env, changed = List.fold_left (propagate_atom ~z) (env, false) atoms in
    if env_is_empty env then env (* already conclusive *)
    else if multi && changed && pass < max_passes then go env (pass + 1)
    else env
  in
  go Var.Map.empty 1

(* ----- memoized environments ----- *)

let env_memo : (int, env) Memo.cache = Memo.create ~name:"interval_env"
let ctr_env_builds = Cql_obs.Obs.counter "solver.interval.env_builds"

(* integer-mode boxes are rounded differently, so the domain tag rides in
   the cache key's low bit — same discipline as the Conj memo tables *)
let env_of ~id atoms =
  Memo.cached env_memo ((id lsl 1) lor Cdomain.tag ()) (fun () ->
      Cql_obs.Obs.incr ctr_env_builds;
      build atoms)

let disjoint ~id1 atoms1 ~id2 atoms2 =
  let e1 = env_of ~id:id1 atoms1 in
  let e2 = env_of ~id:id2 atoms2 in
  env_is_empty e1 || env_is_empty e2
  || Var.Map.exists
       (fun x i1 ->
         match Var.Map.find_opt x e2 with
         | Some i2 -> itv_is_empty (meet i1 i2)
         | None -> false)
       e1
