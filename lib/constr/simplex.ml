open Cql_num

module Qeps = struct
  type t = { re : Rat.t; eps : Rat.t }

  let of_rat q = { re = q; eps = Rat.zero }
  let zero = of_rat Rat.zero
  let add a b = { re = Rat.add a.re b.re; eps = Rat.add a.eps b.eps }
  let sub a b = { re = Rat.sub a.re b.re; eps = Rat.sub a.eps b.eps }
  let scale k a = { re = Rat.mul k a.re; eps = Rat.mul k a.eps }

  let compare a b =
    let c = Rat.compare a.re b.re in
    if c <> 0 then c else Rat.compare a.eps b.eps

  let pp fmt a =
    if Rat.is_zero a.eps then Rat.pp fmt a.re
    else Format.fprintf fmt "%a%s%a*eps" Rat.pp a.re
           (if Rat.sign a.eps >= 0 then "+" else "")
           Rat.pp a.eps
end

module IntMap = Map.Make (Int)
module Obs = Cql_obs.Obs

let ctr_runs = Obs.counter "solver.simplex_runs"
let ctr_pivots = Obs.counter "solver.simplex_pivots"

type tableau = {
  mutable rows : Rat.t IntMap.t IntMap.t; (* basic var -> sparse row over nonbasics *)
  beta : Qeps.t array;
  lower : Qeps.t option array;
  upper : Qeps.t option array;
}

(* Dutertre-de Moura "AssertUpper/AssertLower" merged into initial bounds;
   we only ever solve a full conjunction at once. *)

let pivot_and_update t xb xn v =
  Obs.incr ctr_pivots;
  let row_b = IntMap.find xb t.rows in
  let a = IntMap.find xn row_b in
  let theta = Qeps.scale (Rat.inv a) (Qeps.sub v t.beta.(xb)) in
  t.beta.(xb) <- v;
  t.beta.(xn) <- Qeps.add t.beta.(xn) theta;
  IntMap.iter
    (fun xk row ->
      if xk <> xb then
        match IntMap.find_opt xn row with
        | Some ak -> t.beta.(xk) <- Qeps.add t.beta.(xk) (Qeps.scale ak theta)
        | None -> ())
    t.rows;
  (* pivot: xn becomes basic with row derived from xb's *)
  let inv_a = Rat.inv a in
  let row_n =
    IntMap.fold
      (fun i ci acc ->
        if i = xn then acc
        else
          let c = Rat.neg (Rat.mul ci inv_a) in
          if Rat.is_zero c then acc else IntMap.add i c acc)
      row_b
      (IntMap.singleton xb inv_a)
  in
  let rows = IntMap.remove xb t.rows in
  let rows =
    IntMap.map
      (fun row ->
        match IntMap.find_opt xn row with
        | None -> row
        | Some ak ->
            let row = IntMap.remove xn row in
            IntMap.union
              (fun _ c1 c2 ->
                let c = Rat.add c1 c2 in
                if Rat.is_zero c then None else Some c)
              row
              (IntMap.map (Rat.mul ak) row_n))
      rows
  in
  t.rows <- IntMap.add xn row_n rows

let below_lower t x = match t.lower.(x) with Some l -> Qeps.compare t.beta.(x) l < 0 | None -> false
let above_upper t x = match t.upper.(x) with Some u -> Qeps.compare t.beta.(x) u > 0 | None -> false
let can_increase t x = match t.upper.(x) with Some u -> Qeps.compare t.beta.(x) u < 0 | None -> true
let can_decrease t x = match t.lower.(x) with Some l -> Qeps.compare t.beta.(x) l > 0 | None -> true

(* ----- pivot budget ----- *)

exception Pivot_limit of { pivots : int }

let default_pivot_limit = 200_000

(* The budget is a constant default plus a per-domain override:
   [with_pivot_limit] in one request (domain) must not change the budget a
   concurrent request observes, so the scoped form only ever touches the
   calling domain's cell. *)
let pivot_limit_override : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_pivot_limit () =
  match !(Domain.DLS.get pivot_limit_override) with
  | Some n -> n
  | None -> default_pivot_limit

let with_pivot_limit n f =
  let cell = Domain.DLS.get pivot_limit_override in
  let prev = !cell in
  cell := Some (max 1 n);
  Fun.protect ~finally:(fun () -> cell := prev) f

(* how far a violating basic variable is outside its bound *)
let violation t x = function
  | `Low -> Qeps.sub (Option.get t.lower.(x)) t.beta.(x)
  | `High -> Qeps.sub t.beta.(x) (Option.get t.upper.(x))

let suitable_dir dir a t xn =
  match dir with
  | `Low -> (Rat.sign a > 0 && can_increase t xn) || (Rat.sign a < 0 && can_decrease t xn)
  | `High -> (Rat.sign a < 0 && can_increase t xn) || (Rat.sign a > 0 && can_decrease t xn)

(* Pivot selection runs in two regimes.  The first [limit/2] pivots use a
   largest-violation heuristic (pick the basic variable furthest outside its
   bounds, enter on the suitable nonbasic with the largest |coefficient|),
   which converges fastest in practice but — unlike Bland's rule — can cycle
   on degenerate tableaus.  Past that threshold the solver switches to pure
   Bland's rule (smallest violating basic index, smallest suitable nonbasic
   index), which provably terminates.  The hard budget is a backstop for
   pathological sizes: exhausting it raises {!Pivot_limit} so a caller can
   fall back to another procedure instead of spinning. *)
let check t =
  let limit = current_pivot_limit () in
  let bland_after = limit / 2 in
  let pivots = ref 0 in
  let rec go () =
    let bland = !pivots >= bland_after in
    let violating =
      IntMap.fold
        (fun xb _ acc ->
          let dir =
            if below_lower t xb then Some `Low
            else if above_upper t xb then Some `High
            else None
          in
          match (dir, acc) with
          | None, _ -> acc
          | Some d, None -> Some (xb, d)
          | Some _, Some _ when bland -> acc (* keep the smallest index *)
          | Some d, Some (xb', d') ->
              if Qeps.compare (violation t xb d) (violation t xb' d') > 0 then Some (xb, d)
              else acc)
        t.rows None
    in
    match violating with
    | None -> true
    | Some (xb, dir) ->
        let row = IntMap.find xb t.rows in
        let suitable =
          IntMap.fold
            (fun xn a acc ->
              if not (suitable_dir dir a t xn) then acc
              else
                match acc with
                | None -> Some (xn, a)
                | Some _ when bland -> acc (* keep the smallest index *)
                | Some (_, a') -> if Rat.compare (Rat.abs a) (Rat.abs a') > 0 then Some (xn, a) else acc)
            row None
        in
        (match suitable with
        | None -> false
        | Some (xn, _) ->
            if !pivots >= limit then raise (Pivot_limit { pivots = !pivots });
            incr pivots;
            let target =
              match dir with
              | `Low -> Option.get t.lower.(xb)
              | `High -> Option.get t.upper.(xb)
            in
            pivot_and_update t xb xn target;
            go ())
  in
  go ()

let build (atoms : Atom.t list) =
  (* index original variables *)
  let var_ids = Hashtbl.create 16 in
  let n_orig = ref 0 in
  List.iter
    (fun a ->
      Var.Set.iter
        (fun v ->
          if not (Hashtbl.mem var_ids v) then begin
            Hashtbl.add var_ids v !n_orig;
            incr n_orig
          end)
        (Atom.vars a))
    atoms;
  (* one slack per distinct variable part *)
  let slack_ids : (Linexpr.t * int) list ref = ref [] in
  let n = ref !n_orig in
  let exception Trivially_false in
  let constraints = ref [] in
  (* (slack id or `Const, bound kind) per atom *)
  try
    List.iter
      (fun (a : Atom.t) ->
        let e = a.Atom.expr in
        let cst = Linexpr.constant e in
        let varpart = Linexpr.sub e (Linexpr.const cst) in
        if Linexpr.is_const varpart then begin
          (* constant atom: decide immediately *)
          let holds =
            match a.Atom.op with
            | Atom.Le -> Rat.sign cst <= 0
            | Atom.Lt -> Rat.sign cst < 0
            | Atom.Eq -> Rat.sign cst = 0
          in
          if not holds then raise Trivially_false
        end
        else begin
          let sid =
            match
              List.find_opt (fun (vp, _) -> Linexpr.compare vp varpart = 0) !slack_ids
            with
            | Some (_, id) -> id
            | None ->
                let id = !n in
                incr n;
                slack_ids := (varpart, id) :: !slack_ids;
                id
          in
          constraints := (sid, a.Atom.op, Rat.neg cst) :: !constraints
        end)
      atoms;
    let total = !n in
    let t =
      {
        rows = IntMap.empty;
        beta = Array.make total Qeps.zero;
        lower = Array.make total None;
        upper = Array.make total None;
      }
    in
    (* tableau rows: slack = variable part *)
    List.iter
      (fun (vp, sid) ->
        let row =
          List.fold_left
            (fun acc (v, k) -> IntMap.add (Hashtbl.find var_ids v) k acc)
            IntMap.empty (Linexpr.terms vp)
        in
        t.rows <- IntMap.add sid row t.rows)
      !slack_ids;
    (* bounds from atoms: s op bound *)
    let tighten_upper x (b : Qeps.t) =
      match t.upper.(x) with
      | Some u when Qeps.compare u b <= 0 -> ()
      | _ -> t.upper.(x) <- Some b
    and tighten_lower x (b : Qeps.t) =
      match t.lower.(x) with
      | Some l when Qeps.compare l b >= 0 -> ()
      | _ -> t.lower.(x) <- Some b
    in
    List.iter
      (fun (sid, op, bound) ->
        match op with
        | Atom.Le -> tighten_upper sid (Qeps.of_rat bound)
        | Atom.Lt -> tighten_upper sid { Qeps.re = bound; eps = Rat.minus_one }
        | Atom.Eq ->
            tighten_upper sid (Qeps.of_rat bound);
            tighten_lower sid (Qeps.of_rat bound))
      !constraints;
    (* a slack may end up with lower > upper: immediately unsat *)
    let bounds_ok =
      Array.for_all
        (fun i -> i)
        (Array.init total (fun x ->
             match (t.lower.(x), t.upper.(x)) with
             | Some l, Some u -> Qeps.compare l u <= 0
             | _ -> true))
    in
    if bounds_ok then Some (t, var_ids) else None
  with Trivially_false -> None

let solve c =
  Obs.incr ctr_runs;
  match build c with
  | None -> None
  | Some (t, var_ids) ->
      if check t then
        Some (Hashtbl.fold (fun v id acc -> (v, t.beta.(id)) :: acc) var_ids [])
      else None

let is_sat c = solve c <> None
