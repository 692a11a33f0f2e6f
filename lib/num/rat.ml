(* Canonical fractions: den > 0, gcd (|num|, den) = 1.

   A fraction whose numerator and denominator are both below 2^30 in
   magnitude is an immediate int packing the two ([num lsl 30 lor den]),
   so arithmetic on it allocates nothing; any other fraction is a boxed
   pair of bigints.  Every constructor picks the packed form whenever the
   value fits it, so the split is canonical: polymorphic [=] and [hash]
   still agree with numeric equality.  [t] is abstract here too, so the
   compiler never specializes a comparison of [t]s to ints. *)

module B = Bigint

type big = { num : B.t; den : B.t }
type t

let bits = 30
let lim = 1 lsl bits
let dmask = lim - 1

let is_small (x : t) = Obj.is_int (Obj.repr x)
let pack n d : t = Obj.magic ((n lsl bits) lor d)
let snum (x : t) = (Obj.magic x : int) asr bits
let sden (x : t) = (Obj.magic x : int) land dmask
let big (x : t) : big = Obj.magic x
let fits n d = n > -lim && n < lim && d < lim

(* [num/den] in lowest terms with [den > 0] *)
let of_reduced num den =
  match (B.to_small_int num, B.to_small_int den) with
  | n, d when n <> min_int && d <> min_int -> pack n d
  | _ -> (Obj.magic { num; den } : t)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* native [n/d] with [d > 0] and |n|, d < 2^61, reduced *)
let of_native n d =
  let g = gcd_int (Stdlib.abs n) d in
  let n, d = if g = 1 then (n, d) else (n / g, d / g) in
  if fits n d then pack n d else of_reduced (B.of_int n) (B.of_int d)

let make num den =
  if B.is_zero den then raise Division_by_zero;
  let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then pack 0 1
  else
    let g = B.gcd num den in
    if B.is_one g then of_reduced num den else of_reduced (B.div num g) (B.div den g)

let of_bigint n = of_reduced n B.one
let of_int n = if n > -lim && n < lim then pack n 1 else of_bigint (B.of_int n)

(* operands within 2^61 reduce natively; the rest go through bigints *)
let native_bound = 1 lsl 61

let of_ints a b =
  if b = 0 then raise Division_by_zero;
  if a > -native_bound && a < native_bound && b > -native_bound && b < native_bound then
    if b < 0 then of_native (-a) (-b) else of_native a b
  else make (B.of_int a) (B.of_int b)

let zero = pack 0 1
let one = pack 1 1
let minus_one = pack (-1) 1

let num x = if is_small x then B.of_int (snum x) else (big x).num
let den x = if is_small x then B.of_int (sden x) else (big x).den
let sign x = if is_small x then Int.compare (snum x) 0 else B.sign (big x).num
let is_zero x = x == zero
let is_integer x = if is_small x then sden x = 1 else B.is_one (big x).den
let to_small_int x = if is_small x && sden x = 1 then snum x else Stdlib.min_int

(* both packed: every cross product is below 2^60 in magnitude *)
let compare a b =
  if is_small a && is_small b then
    let da = sden a and db = sden b in
    if da = db then Int.compare (snum a) (snum b)
    else Int.compare (snum a * db) (snum b * da)
  else if is_integer a && is_integer b then B.compare (num a) (num b)
  else B.compare (B.mul (num a) (den b)) (B.mul (num b) (den a))

let equal a b =
  if is_small a || is_small b then a == b
  else
    let a = big a and b = big b in
    B.equal a.num b.num && B.equal a.den b.den

(* a packed part against a bigint part, allocation free: a bigint outside
   the packed range lies beyond every packed value on its sign's side *)
let compare_part n b =
  let m = B.to_small_int b in
  if m <> min_int then Int.compare n m else -B.sign b

let compare_num a b =
  match (is_small a, is_small b) with
  | true, true -> Int.compare (snum a) (snum b)
  | true, false -> compare_part (snum a) (big b).num
  | false, true -> -compare_part (snum b) (big a).num
  | false, false -> B.compare (big a).num (big b).num

let compare_den a b =
  match (is_small a, is_small b) with
  | true, true -> Int.compare (sden a) (sden b)
  | true, false -> compare_part (sden a) (big b).den
  | false, true -> -compare_part (sden b) (big a).den
  | false, false -> B.compare (big a).den (big b).den

(* [Bigint.hash] of a packed part, computed without building the bigint,
   so a value hashes the same in either representation's history *)
let small_hash n =
  if n = 0 then 0 else if n > 0 then 1000003 lxor n else (-1000003) lxor (-n)

let hash x =
  if is_small x then (small_hash (snum x) * 65599) lxor small_hash (sden x)
  else (B.hash (big x).num * 65599) lxor B.hash (big x).den

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg x =
  if is_small x then pack (-snum x) (sden x)
  else (Obj.magic { (big x) with num = B.neg (big x).num } : t)

let abs x = if sign x < 0 then neg x else x

let add a b =
  if is_small a && is_small b then
    let da = sden a and db = sden b in
    if da = 1 && db = 1 then of_int (snum a + snum b)
    else of_native ((snum a * db) + (snum b * da)) (da * db)
  else if is_integer a && is_integer b then of_bigint (B.add (num a) (num b))
  else make (B.add (B.mul (num a) (den b)) (B.mul (num b) (den a))) (B.mul (den a) (den b))

let sub a b = add a (neg b)

let mul a b =
  if is_small a && is_small b then
    let da = sden a and db = sden b in
    if da = 1 && db = 1 then of_int (snum a * snum b)
    else of_native (snum a * snum b) (da * db)
  else if is_integer a && is_integer b then of_bigint (B.mul (num a) (num b))
  else make (B.mul (num a) (num b)) (B.mul (den a) (den b))

let inv x =
  if is_zero x then raise Division_by_zero;
  if is_small x then
    let n = snum x and d = sden x in
    if n > 0 then pack d n else pack (-d) (-n)
  else make (big x).den (big x).num

let div a b = mul a (inv b)

(* gcd(a, b) for fractions in lowest terms is gcd of the numerators over
   lcm of the denominators, already in lowest terms: the largest [g] with
   [a/g] and [b/g] integers *)
let gcd a b =
  if is_small a && is_small b then
    let da = sden a and db = sden b in
    let n = gcd_int (Stdlib.abs (snum a)) (Stdlib.abs (snum b)) in
    let d = da / gcd_int da db * db in
    if n = 0 then zero else if d < lim then pack n d else of_reduced (B.of_int n) (B.of_int d)
  else
    let n = B.gcd (num a) (num b) in
    if B.is_zero n then zero else of_reduced n (B.lcm (den a) (den b))

let floor x =
  if is_small x then
    let n = snum x and d = sden x in
    pack (if n >= 0 then n / d else -((-n + d - 1) / d)) 1
  else
    let q, r = B.divmod (big x).num (big x).den in
    of_bigint (if B.sign r < 0 then B.sub q B.one else q)

let to_string x =
  if is_small x then
    if sden x = 1 then string_of_int (snum x)
    else string_of_int (snum x) ^ "/" ^ string_of_int (sden x)
  else if is_integer x then B.to_string (big x).num
  else B.to_string (big x).num ^ "/" ^ B.to_string (big x).den

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* an optional sign and at most 18 digits: below 10^18 < 2^62, so the
   value is read natively, with no bignum *)
let is_small_numeral s =
  let len = String.length s in
  let start = if len > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  let rec digits i = i = len || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  len > start && len - start <= 18 && digits start

let of_string s =
  if is_small_numeral s then of_int (int_of_string s)
  else
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
