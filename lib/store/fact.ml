open Cql_num
open Cql_constr
open Cql_datalog

type pos = Psym of string | Pvar

type t = {
  pred : string;
  args : pos array;
  terms : Term.t array; (* the constant a position holds or is pinned to, else [$i] *)
  constr : Conj.t option; (* [None]: ground, the pins are the whole constraint *)
}

exception Unsat

let numeric_vars args =
  let s = ref Var.Set.empty in
  Array.iteri (fun i p -> match p with Pvar -> s := Var.Set.add (Var.arg (i + 1)) !s | Psym _ -> ()) args;
  !s

(* extract the value a simplified conjunction pins a variable to, if any *)
let pinned_value cstr v =
  let rec find = function
    | [] -> None
    | (a : Atom.t) :: rest ->
        if a.Atom.op = Atom.Eq && Atom.mem v a then begin
          let k = Linexpr.coeff v a.Atom.expr in
          let r = Linexpr.sub a.Atom.expr (Linexpr.term k v) in
          if Linexpr.is_const r then Some (Rat.neg (Rat.div (Linexpr.constant r) k))
          else find rest
        end
        else find rest
  in
  find (Conj.to_list cstr)

let compute_terms args cstr =
  Array.mapi
    (fun i p ->
      match p with
      | Psym s -> Term.sym s
      | Pvar -> (
          let v = Var.arg (i + 1) in
          match pinned_value cstr v with
          | Some q -> Term.num q
          | None -> (
              (* an equality may pin it only after projecting the others out *)
              match pinned_value (Conj.project ~keep:(Var.Set.singleton v) cstr) v with
              | Some q -> Term.num q
              | None -> Term.var v)))
    args

(* A satisfiable constraint that pins every numeric position denotes one
   point, so it is equivalent to the pins: such a fact keeps only them, and
   is the very fact [of_consts] builds from the same values. *)
let make pred args cstr =
  let keep = numeric_vars args in
  let c = Conj.simplify (Conj.project ~keep cstr) in
  if not (Conj.is_sat c) then raise Unsat;
  let terms = compute_terms args c in
  let ground = Array.for_all Term.is_ground terms in
  { pred; args; terms; constr = (if ground then None else Some c) }

(* Ground fast path: every position is a symbol or a known numeric value,
   and the pins are satisfiable (over ℤ only when every value is an
   integer, which callers check), so the fact is built directly, with no
   solver call and no constraint. *)
let of_consts pred (consts : Term.const array) =
  {
    pred;
    args = Array.map (function Term.Sym s -> Psym s | Term.Num _ -> Pvar) consts;
    terms = Array.map (fun c -> Term.C c) consts;
    constr = None;
  }

let is_fractional = function Term.C (Term.Num q) -> not (Rat.is_integer q) | _ -> false

(* the pin conjunction [$i = q], one atom per numeric position *)
let pins f =
  let atoms = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Term.C (Term.Num q) -> atoms := Atom.pin (Var.arg (i + 1)) q :: !atoms
      | Term.C (Term.Sym _) | Term.V _ -> ())
    f.terms;
  Conj.of_list !atoms

(* Over ℤ a pin to a fractional value is unsatisfiable: such a fact is left
   to [make], which raises [Unsat].  Every other ground fact is [of_consts]'s. *)
let ground pred consts =
  let f = of_consts pred (Array.of_list consts) in
  if Cdomain.is_z () && Array.exists is_fractional f.terms then make pred f.args (pins f) else f

let of_fact_rule (r : Rule.t) =
  if r.Rule.body <> [] then invalid_arg "Fact.of_fact_rule: rule has body literals";
  let head = r.Rule.head in
  let consts =
    List.filter_map (function Term.C c -> Some c | Term.V _ -> None) head.Literal.args
  in
  if Conj.is_tt r.Rule.cstr && List.compare_lengths consts head.Literal.args = 0 then
    ground head.Literal.pred consts
  else
    let n = Literal.arity head in
    let args = Array.make n Pvar in
    (* bind each head term to $i; repeated variables become $i = $j *)
    let atoms = ref (Conj.to_list r.Rule.cstr) in
    let seen : (Var.t * int) list ref = ref [] in
    List.iteri
      (fun i t ->
        let ai = Var.arg (i + 1) in
        match t with
        | Term.C (Term.Sym s) -> args.(i) <- Psym s
        | Term.C (Term.Num q) -> atoms := Atom.pin ai q :: !atoms
        | Term.V v -> (
            match List.assoc_opt v !seen with
            | Some j ->
                atoms := Atom.eq (Linexpr.var ai) (Linexpr.var (Var.arg j)) :: !atoms
            | None ->
                seen := (v, i + 1) :: !seen;
                atoms := Atom.eq (Linexpr.var ai) (Linexpr.var v) :: !atoms))
      head.Literal.args;
    make head.Literal.pred args (Conj.of_list !atoms)

let of_fact_rule_opt r = match of_fact_rule r with f -> Some f | exception Unsat -> None

let pred f = f.pred
let arity f = Array.length f.args
let cstr f = match f.constr with Some c -> c | None -> pins f
let is_ground f = Option.is_none f.constr

let ground_value f i =
  match f.terms.(i - 1) with
  | Term.C (Term.Num q) -> Some q
  | Term.C (Term.Sym _) | Term.V _ -> None

let same_pattern a b =
  a.pred = b.pred
  && Array.length a.args = Array.length b.args
  && Array.for_all2 (fun x y ->
         match (x, y) with
         | Psym s1, Psym s2 -> s1 = s2
         | Pvar, Pvar -> true
         | Psym _, Pvar | Pvar, Psym _ -> false)
       a.args b.args

(* cheap pre-filter: can this fact possibly unify with the literal?
   Constant literal arguments must match the fact's symbolic pattern and
   pinned values.  A [Pvar] position not pinned to a number can still cover
   a symbolic constant — either as a universal wildcard ([$i] absent from
   the constraint) or through a position-equality over symbol-bound
   positions, which unification decides exactly — so only a numeric pin
   rejects a symbol here.  (Repeated variables are left to real
   unification.) *)
let matches_literal (l : Literal.t) f =
  Array.length f.args = Literal.arity l
  && begin
       let ok i t =
         match (t, f.args.(i), f.terms.(i)) with
         | Term.C (Term.Sym s), Psym s', _ -> s = s'
         | Term.C (Term.Sym _), Pvar, ft -> Term.is_var ft
         | Term.C (Term.Num _), Psym _, _ -> false
         | Term.C (Term.Num q), Pvar, Term.C (Term.Num v) -> Rat.equal v q
         | Term.C (Term.Num _), Pvar, _ -> true
         | Term.V _, _, _ -> true
       in
       List.for_all Fun.id (List.mapi ok l.Literal.args)
     end

(* two ground facts of one pattern: the same point *)
let same_values a b = Array.for_all2 Term.equal a.terms b.terms

let subsumes general specific =
  same_pattern general specific
  &&
  match (general.constr, specific.constr) with
  | None, None -> same_values general specific
  | Some g, None -> (
      (* evaluate the general constraint at the specific point: no solver *)
      let env v =
        match Var.arg_index v with
        | Some i when i >= 1 && i <= Array.length specific.terms -> ground_value specific i
        | _ -> None
      in
      match Conj.eval_at env g with Some b -> b | None -> Conj.implies (pins specific) g)
  | None, Some s -> Conj.implies s (pins general)
  | Some g, Some s -> Conj.implies s g

(* ----- the order ----- *)

(* position by position, [Pvar] before [Psym], then the shorter pattern
   first: the order of the patterns as [string option] lists *)
let rec compare_args (a : pos array) (b : pos array) i =
  let la = Array.length a and lb = Array.length b in
  if i = la || i = lb then Int.compare la lb
  else
    match (a.(i), b.(i)) with
    | Pvar, Pvar -> compare_args a b (i + 1)
    | Pvar, Psym _ -> -1
    | Psym _, Pvar -> 1
    | Psym s1, Psym s2 ->
        let c = String.compare s1 s2 in
        if c <> 0 then c else compare_args a b (i + 1)

(* The pin [$i = q] is the atom [den(q)·$i − num(q) = 0], and {!Atom.compare}
   orders such atoms by the constant [−num(q)], then by the variable, then
   by the coefficient [den(q)].  A ground fact's pin conjunction lists its
   pins in this order, so comparing the pins in it, least first, is
   {!Conj.compare} on the conjunctions, which are never built. *)
let compare_pin i p j q =
  let c = Rat.compare_num q p in
  if c <> 0 then c
  else
    let c = Var.compare (Var.arg (i + 1)) (Var.arg (j + 1)) in
    if c <> 0 then c else Rat.compare_den p q

let pin_value (t : Term.t array) i =
  if i < 0 then Rat.zero else match t.(i) with Term.C (Term.Num q) -> q | _ -> Rat.zero

(* the position of the least pin of [t] above the pin at [prev] (every pin
   when [prev] is [-1]) from position [i] on, given the [best] so far; [-1]
   when there is none.  Pins bind distinct positions, so the order among
   one fact's pins is strict. *)
let rec least_above (t : Term.t array) prev pq i best =
  if i = Array.length t then best
  else
    match t.(i) with
    | Term.C (Term.Num q)
      when (prev < 0 || compare_pin prev pq i q < 0)
           && (best < 0 || compare_pin i q best (pin_value t best) < 0) ->
        least_above t prev pq (i + 1) i
    | _ -> least_above t prev pq (i + 1) best

(* the pins of two ground facts in order, after the pins at [pa] and [pb]:
   a selection per step, allocation free; a fact out of pins first sorts
   first, as the shorter atom list *)
let rec compare_pins (ta : Term.t array) (tb : Term.t array) pa pb =
  let i = least_above ta pa (pin_value ta pa) 0 (-1) in
  let j = least_above tb pb (pin_value tb pb) 0 (-1) in
  if i < 0 then if j < 0 then 0 else -1
  else if j < 0 then 1
  else
    let c = compare_pin i (pin_value ta i) j (pin_value tb j) in
    if c <> 0 then c else compare_pins ta tb i j

let compare a b =
  if a == b then 0
  else
    let c = String.compare a.pred b.pred in
    if c <> 0 then c
    else
      let c = compare_args a.args b.args 0 in
      if c <> 0 then c
      else
        match (a.constr, b.constr) with
        | None, None -> compare_pins a.terms b.terms (-1) (-1)
        | Some ca, Some cb -> Conj.compare ca cb
        | None, Some _ | Some _, None -> Conj.compare (cstr a) (cstr b)

let rec same_terms (a : Term.t array) (b : Term.t array) i =
  i = Array.length a || (Term.equal a.(i) b.(i) && same_terms a b (i + 1))

(* [compare a b = 0], decided without ordering.  Two ground facts are equal
   exactly when they hold the same values, which give the pattern too.  A
   ground fact never equals a constraint fact: [make] keeps a constraint
   only when some position stays unpinned, and a constraint structurally
   equal to a pin conjunction would pin them all. *)
let equal a b =
  a == b
  || String.equal a.pred b.pred
     &&
     match (a.constr, b.constr) with
     | None, None -> Array.length a.terms = Array.length b.terms && same_terms a.terms b.terms 0
     | Some ca, Some cb -> compare_args a.args b.args 0 = 0 && Conj.equal ca cb
     | None, Some _ | Some _, None -> false

let hash_term acc (t : Term.t) =
  let h =
    match t with
    | Term.C (Term.Sym s) -> Hashtbl.hash s
    | Term.C (Term.Num q) -> Rat.hash q
    | Term.V _ -> 1
  in
  (acc * 65599) lxor h

(* Consistent with [equal]: equal facts hold the same terms (the values a
   canonical constraint pins are a function of it) and equal constraints.
   The fold keeps the low bits of the values' own hashes, so the product's
   high bits are shifted down into the bucket index, as in [Index]. *)
let hash f =
  let h = Array.fold_left hash_term (Hashtbl.hash f.pred) f.terms in
  let h = match f.constr with None -> h | Some c -> (h * 65599) lxor Conj.hash c in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let pp fmt f =
  let n = Array.length f.args in
  let pinned i = Term.is_ground f.terms.(i) in
  (* residual constraints: those not expressed by pinned positions *)
  let residual =
    match f.constr with
    | None -> []
    | Some c ->
        List.filter
          (fun (a : Atom.t) ->
            not
              (Var.Set.for_all
                 (fun v ->
                   match Var.arg_index v with Some i when i <= n -> pinned (i - 1) | _ -> false)
                 (Atom.vars a)))
          (Conj.to_list c)
  in
  Format.fprintf fmt "%s(" f.pred;
  for i = 0 to n - 1 do
    if i > 0 then Format.pp_print_string fmt ", ";
    Term.pp fmt f.terms.(i)
  done;
  if residual <> [] then
    Format.fprintf fmt "; %a"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Atom.pp)
      residual;
  Format.pp_print_string fmt ")"

(* a ground fact has no residual: its terms, printed as [pp] prints them,
   straight into a buffer *)
let to_string f =
  match f.constr with
  | Some _ -> Format.asprintf "%a" pp f
  | None ->
      let b = Buffer.create 64 in
      Buffer.add_string b f.pred;
      Buffer.add_char b '(';
      Array.iteri
        (fun i (t : Term.t) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (match t with
            | Term.C (Term.Num q) -> Rat.to_string q
            | Term.C (Term.Sym s) -> s
            | Term.V v -> Var.name v))
        f.terms;
      Buffer.add_char b ')';
      Buffer.contents b
