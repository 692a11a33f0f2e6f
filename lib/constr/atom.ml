open Cql_num

type op = Le | Lt | Eq

type t = { expr : Linexpr.t; op : op; hash : int }

let mk e op =
  let tag = match op with Le -> 3 | Lt -> 5 | Eq -> 7 in
  { expr = e; op; hash = ((Linexpr.hash e * 31) + tag) land max_int }

let make e op =
  let e = Linexpr.integerize e in
  match op with
  | Eq ->
      (* canonical sign for equalities: first nonzero coefficient positive *)
      let e =
        match Linexpr.terms e with
        | (_, c) :: _ when Rat.sign c < 0 -> Linexpr.neg e
        | [] when Rat.sign (Linexpr.constant e) < 0 -> Linexpr.neg e
        | _ -> e
      in
      mk e op
  | Le | Lt -> mk e op

let le e1 e2 = make (Linexpr.sub e1 e2) Le
let lt e1 e2 = make (Linexpr.sub e1 e2) Lt
let ge e1 e2 = make (Linexpr.sub e2 e1) Le
let gt e1 e2 = make (Linexpr.sub e2 e1) Lt
let eq e1 e2 = make (Linexpr.sub e1 e2) Eq

(* [x = q] is [den(q)·x − num(q) = 0], already in [make]'s normal form: the
   two integers are coprime and the leading coefficient is positive *)
let pin x q =
  let e =
    if Rat.is_integer q then Linexpr.affine Rat.one x (Rat.neg q)
    else
      Linexpr.affine (Rat.of_bigint (Rat.den q)) x (Rat.of_bigint (Bigint.neg (Rat.num q)))
  in
  mk e Eq

let tt = make Linexpr.zero Eq
let ff = make Linexpr.zero Lt

let truth a =
  if Linexpr.is_const a.expr then
    let c = Rat.sign (Linexpr.constant a.expr) in
    Some (match a.op with Le -> c <= 0 | Lt -> c < 0 | Eq -> c = 0)
  else None

let vars a = Linexpr.vars a.expr
let mem x a = not (Rat.is_zero (Linexpr.coeff x a.expr))

let negate a =
  match a.op with
  | Le -> [ make (Linexpr.neg a.expr) Lt ]
  | Lt -> [ make (Linexpr.neg a.expr) Le ]
  | Eq -> [ make a.expr Lt; make (Linexpr.neg a.expr) Lt ]

let eval_at env a =
  let exception Unvalued in
  try
    let v =
      List.fold_left
        (fun acc (x, c) ->
          match env x with
          | Some q -> Rat.add acc (Rat.mul c q)
          | None -> raise Unvalued)
        (Linexpr.constant a.expr) (Linexpr.terms a.expr)
    in
    Some (match a.op with Le -> Rat.sign v <= 0 | Lt -> Rat.sign v < 0 | Eq -> Rat.sign v = 0)
  with Unvalued -> None

let subst s a =
  let e = Linexpr.subst s a.expr in
  if e == a.expr then a else make e a.op
let rename f a = make (Linexpr.rename f a.expr) a.op

(* structural order (op, then expression): the canonical atom order inside
   conjunctions *)
let compare a b =
  if a == b then 0
  else
    let c = Stdlib.compare a.op b.op in
    if c <> 0 then c else Linexpr.compare a.expr b.expr

let equal a b = a == b || (a.hash = b.hash && a.op = b.op && Linexpr.equal a.expr b.expr)
let hash a = a.hash

let op_string = function Le -> "<=" | Lt -> "<" | Eq -> "="

(* Print with positive terms on the left where possible, e.g. "X - Y <= 4"
   rather than "X - Y - 4 <= 0": we split out the constant. *)
let pp fmt a =
  let c = Linexpr.constant a.expr in
  let lhs = Linexpr.sub a.expr (Linexpr.const c) in
  Format.fprintf fmt "%a %s %a" Linexpr.pp lhs (op_string a.op) Rat.pp (Rat.neg c)

let to_string a = Format.asprintf "%a" pp a
