(* Canonical fractions: den > 0, gcd (|num|, den) = 1. *)

module B = Bigint

type t = { num : B.t; den : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then { num = B.zero; den = B.one }
  else
    let g = B.gcd num den in
    if B.is_one g then { num; den } else { num = B.div num g; den = B.div den g }

let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints a b = make (B.of_int a) (B.of_int b)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num x = x.num
let den x = x.den
let sign x = B.sign x.num
let is_zero x = B.is_zero x.num
let is_integer x = B.is_one x.den
let to_small_int x = if B.is_one x.den then B.to_small_int x.num else Stdlib.min_int

(* integers (den = 1) dominate evaluator arithmetic: comparing, adding and
   multiplying them must not pay for cross-multiplication or reduction —
   the canonical forms below are exactly what the general path produces *)
let compare a b =
  if B.is_one a.den && B.is_one b.den then B.compare a.num b.num
  else B.compare (B.mul a.num b.den) (B.mul b.num a.den)
let equal a b = B.equal a.num b.num && B.equal a.den b.den
let hash x = (B.hash x.num * 65599) lxor B.hash x.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg x = { x with num = B.neg x.num }
let abs x = { x with num = B.abs x.num }

let add a b =
  if B.is_one a.den && B.is_one b.den then { num = B.add a.num b.num; den = B.one }
  else make (B.add (B.mul a.num b.den) (B.mul b.num a.den)) (B.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if B.is_one a.den && B.is_one b.den then { num = B.mul a.num b.num; den = B.one }
  else make (B.mul a.num b.num) (B.mul a.den b.den)

let inv x =
  if is_zero x then raise Division_by_zero;
  make x.den x.num

let div a b = mul a (inv b)

let to_string x =
  if is_integer x then B.to_string x.num
  else B.to_string x.num ^ "/" ^ B.to_string x.den

let pp fmt x = Format.pp_print_string fmt (to_string x)

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let n = B.of_string (String.sub s 0 i) in
      let d = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make n d
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (B.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          if String.length frac = 0 then invalid_arg "Rat.of_string: trailing dot";
          let negative = String.length int_part > 0 && int_part.[0] = '-' in
          let whole =
            if String.length int_part = 0 || int_part = "-" || int_part = "+" then B.zero
            else B.of_string int_part
          in
          let digits = B.of_string frac in
          let scale = B.pow (B.of_int 10) (String.length frac) in
          let frac_part = make digits scale in
          let frac_part = if negative then neg frac_part else frac_part in
          add (of_bigint whole) frac_part)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
