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

module Obs = Cql_obs.Obs

let ctr_runs = Obs.counter "solver.simplex_runs"
let ctr_pivots = Obs.counter "solver.simplex_pivots"

(* Variables are dense indices: the original variables first, then one
   slack per distinct variable part.  A basic variable's row is dense over
   all of them (zero at every basic index, its own included); a nonbasic
   variable's row is empty. *)
type tableau = {
  rows : Rat.t array array;
  beta : Qeps.t array;
  lower : Qeps.t option array;
  upper : Qeps.t option array;
}

let is_basic t x = Array.length t.rows.(x) > 0

(* Dutertre-de Moura "AssertUpper/AssertLower" merged into initial bounds;
   we only ever solve a full conjunction at once. *)

let pivot_and_update t xb xn v =
  Obs.incr ctr_pivots;
  let n = Array.length t.rows in
  let row_b = t.rows.(xb) in
  let inv_a = Rat.inv row_b.(xn) in
  let theta = Qeps.scale inv_a (Qeps.sub v t.beta.(xb)) in
  t.beta.(xb) <- v;
  t.beta.(xn) <- Qeps.add t.beta.(xn) theta;
  (* pivot: xn becomes basic with row derived from xb's *)
  let row_n = Array.make n Rat.zero in
  for i = 0 to n - 1 do
    let c = row_b.(i) in
    if i <> xn && not (Rat.is_zero c) then row_n.(i) <- Rat.neg (Rat.mul c inv_a)
  done;
  row_n.(xb) <- inv_a;
  t.rows.(xb) <- [||];
  for xk = 0 to n - 1 do
    let row = t.rows.(xk) in
    if Array.length row > 0 then begin
      let ak = row.(xn) in
      if not (Rat.is_zero ak) then begin
        t.beta.(xk) <- Qeps.add t.beta.(xk) (Qeps.scale ak theta);
        row.(xn) <- Rat.zero;
        for i = 0 to n - 1 do
          let c = row_n.(i) in
          if not (Rat.is_zero c) then row.(i) <- Rat.add row.(i) (Rat.mul ak c)
        done
      end
    end
  done;
  t.rows.(xn) <- row_n

let below_lower t x = match t.lower.(x) with Some l -> Qeps.compare t.beta.(x) l < 0 | None -> false
let above_upper t x = match t.upper.(x) with Some u -> Qeps.compare t.beta.(x) u > 0 | None -> false
let can_increase t x = match t.upper.(x) with Some u -> Qeps.compare t.beta.(x) u < 0 | None -> true
let can_decrease t x = match t.lower.(x) with Some l -> Qeps.compare t.beta.(x) l > 0 | None -> true

(* how far a violating basic variable is outside its bound *)
let violation t x = function
  | `Low -> Qeps.sub (Option.get t.lower.(x)) t.beta.(x)
  | `High -> Qeps.sub t.beta.(x) (Option.get t.upper.(x))

let suitable_dir dir a t xn =
  match dir with
  | `Low -> (Rat.sign a > 0 && can_increase t xn) || (Rat.sign a < 0 && can_decrease t xn)
  | `High -> (Rat.sign a < 0 && can_increase t xn) || (Rat.sign a > 0 && can_decrease t xn)

(* Pivot selection runs in two regimes.  The first [bland_after] pivots use
   a largest-violation heuristic (pick the basic variable furthest outside
   its bounds, enter on the suitable nonbasic with the largest
   |coefficient|), which converges fastest in practice but can cycle on
   degenerate tableaus.  Past that threshold the solver switches to pure
   Bland's rule (smallest violating basic index, smallest suitable nonbasic
   index), which cannot cycle, so every solve terminates with a verdict. *)
let bland_after = 100_000

let check t =
  let pivots = ref 0 in
  let n = Array.length t.rows in
  let rec go () =
    let bland = !pivots >= bland_after in
    (* basic variables in ascending index *)
    let rec violating xb acc =
      if xb = n then acc
      else if not (is_basic t xb) then violating (xb + 1) acc
      else
        let dir =
          if below_lower t xb then Some `Low
          else if above_upper t xb then Some `High
          else None
        in
        let acc =
          match (dir, acc) with
          | None, _ -> acc
          | Some d, None -> Some (xb, d)
          | Some _, Some _ when bland -> acc (* keep the smallest index *)
          | Some d, Some (xb', d') ->
              if Qeps.compare (violation t xb d) (violation t xb' d') > 0 then Some (xb, d)
              else acc
        in
        violating (xb + 1) acc
    in
    match violating 0 None with
    | None -> true
    | Some (xb, dir) ->
        let row = t.rows.(xb) in
        (* nonbasic variables of the row in ascending index *)
        let rec suitable xn acc =
          if xn = n then acc
          else
            let a = row.(xn) in
            if Rat.is_zero a || not (suitable_dir dir a t xn) then suitable (xn + 1) acc
            else
              let acc =
                match acc with
                | None -> Some (xn, a)
                | Some _ when bland -> acc (* keep the smallest index *)
                | Some (_, a') ->
                    if Rat.compare (Rat.abs a) (Rat.abs a') > 0 then Some (xn, a) else acc
              in
              suitable (xn + 1) acc
        in
        let suitable = suitable 0 None in
        (match suitable with
        | None -> false
        | Some (xn, _) ->
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
  (* index original variables in order of first occurrence *)
  let var_ids = Hashtbl.create 16 in
  let n_orig = ref 0 in
  List.iter
    (fun (a : Atom.t) ->
      Linexpr.iter
        (fun v _ ->
          if not (Hashtbl.mem var_ids v) then begin
            Hashtbl.add var_ids v !n_orig;
            incr n_orig
          end)
        a.Atom.expr)
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
        rows = Array.make total [||];
        beta = Array.make total Qeps.zero;
        lower = Array.make total None;
        upper = Array.make total None;
      }
    in
    (* tableau rows: slack = variable part *)
    List.iter
      (fun (vp, sid) ->
        let row = Array.make total Rat.zero in
        Linexpr.iter (fun v k -> row.(Hashtbl.find var_ids v) <- k) vp;
        t.rows.(sid) <- row)
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
