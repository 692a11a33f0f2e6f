open Cql_num

type t = { coeffs : Rat.t Var.Map.t; const : Rat.t }

let zero = { coeffs = Var.Map.empty; const = Rat.zero }
let const c = { coeffs = Var.Map.empty; const = c }
let of_int n = const (Rat.of_int n)

let norm_coeffs m = Var.Map.filter (fun _ c -> not (Rat.is_zero c)) m

let term a x =
  if Rat.is_zero a then zero else { coeffs = Var.Map.singleton x a; const = Rat.zero }

let var x = term Rat.one x

let affine a x c =
  if Rat.is_zero a then const c else { coeffs = Var.Map.singleton x a; const = c }

let add a b =
  let coeffs =
    Var.Map.union
      (fun _ c1 c2 ->
        let c = Rat.add c1 c2 in
        if Rat.is_zero c then None else Some c)
      a.coeffs b.coeffs
  in
  { coeffs; const = Rat.add a.const b.const }

let scale k e =
  if Rat.is_zero k then zero
  else { coeffs = Var.Map.map (Rat.mul k) e.coeffs; const = Rat.mul k e.const }

let neg e = scale Rat.minus_one e
let sub a b = add a (neg b)

let of_terms ts c =
  List.fold_left (fun acc (a, x) -> add acc (term a x)) (const c) ts

let coeff x e = match Var.Map.find_opt x e.coeffs with Some c -> c | None -> Rat.zero
let constant e = e.const
let vars e = Var.Map.fold (fun x _ acc -> Var.Set.add x acc) e.coeffs Var.Set.empty
let is_const e = Var.Map.is_empty e.coeffs
let terms e = Var.Map.bindings e.coeffs
let iter f e = Var.Map.iter f e.coeffs

(* no replacement mentions a bound variable, so each binding reads its
   coefficient off [e] and the order of the bindings does not matter *)
let subst s e =
  List.fold_left
    (fun acc (x, repl) ->
      match Var.Map.find_opt x e.coeffs with
      | None -> acc
      | Some c -> add { acc with coeffs = Var.Map.remove x acc.coeffs } (scale c repl))
    e s

let rename f e =
  let coeffs =
    Var.Map.fold
      (fun x c acc ->
        let y = f x in
        match Var.Map.find_opt y acc with
        | None -> Var.Map.add y c acc
        | Some c' -> Var.Map.add y (Rat.add c c') acc)
      e.coeffs Var.Map.empty
  in
  { e with coeffs = norm_coeffs coeffs }

let integerize e =
  if Var.Map.is_empty e.coeffs && Rat.is_zero e.const then zero
  else
    (* divide by the content: the largest g with every coefficient and the
       constant of e/g an integer, so they come out jointly coprime; an
       expression already in that form is returned as it is *)
    let g = Var.Map.fold (fun _ c acc -> Rat.gcd acc c) e.coeffs (Rat.abs e.const) in
    if Rat.equal g Rat.one then e else scale (Rat.inv g) e

let compare a b =
  let c = Rat.compare a.const b.const in
  if c <> 0 then c else Var.Map.compare Rat.compare a.coeffs b.coeffs

let equal a b = compare a b = 0

let hash e =
  Var.Map.fold
    (fun x c acc -> ((acc * 65599) lxor ((Var.id x * 31) + Rat.hash c)) land max_int)
    e.coeffs (Rat.hash e.const)

let pp fmt e =
  let open Format in
  let first = ref true in
  let pp_term x c =
    let c_abs = Rat.abs c in
    if !first then begin
      first := false;
      if Rat.sign c < 0 then pp_print_string fmt "-"
    end
    else if Rat.sign c < 0 then pp_print_string fmt " - "
    else pp_print_string fmt " + ";
    if not (Rat.equal c_abs Rat.one) then fprintf fmt "%a*" Rat.pp c_abs;
    Var.pp fmt x
  in
  Var.Map.iter (fun x c -> pp_term x c) e.coeffs;
  if not (Rat.is_zero e.const) || !first then begin
    if !first then Rat.pp fmt e.const
    else if Rat.sign e.const < 0 then fprintf fmt " - %a" Rat.pp (Rat.abs e.const)
    else fprintf fmt " + %a" Rat.pp e.const
  end

let to_string e = Format.asprintf "%a" pp e
