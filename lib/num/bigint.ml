(* Sign-magnitude arbitrary-precision integers.
   mag is little-endian in base 2^30 with no leading zero limb;
   sign is 0 exactly when mag is empty. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ----- magnitude helpers ----- *)

let mag_normalize a =
  let n = Array.length a in
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  let t = top (n - 1) in
  if t = n - 1 then a else Array.sub a 0 (t + 1)

let mag_is_zero a = Array.length a = 0

(* limbs from the top down; a top-level loop over int arrays, so a
   comparison allocates no closure and calls no polymorphic compare *)
let rec mag_compare_from (a : int array) (b : int array) i =
  if i < 0 then 0
  else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
  else mag_compare_from a b (i - 1)

let mag_compare (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else mag_compare_from a b (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  mag_normalize r

(* requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; adding r and carry stays below 2^62 *)
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    mag_normalize r
  end

let mag_bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0

let mag_get_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

(* Magnitudes of at most two limbs fit a nonnegative 60-bit native int:
   the workhorse fast path for division and gcd (almost every value the
   evaluator touches is a small constant or a reduced fraction of one). *)
let mag_small a =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl base_bits) lor a.(0))
  | _ -> None

let mag_of_small v =
  if v = 0 then [||] else if v < base then [| v |] else [| v land mask; v lsr base_bits |]

(* small ops: d must satisfy 0 < d < 2^31 *)
let mag_divmod_small a d =
  let n = Array.length a in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (mag_normalize q, !rem)

(* Binary long division on magnitudes: returns (quotient, remainder). *)
let rec mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero;
  match (mag_small a, mag_small b) with
  | Some x, Some y -> (mag_of_small (x / y), mag_of_small (x mod y))
  | _ ->
      if Array.length b = 1 then
        let q, r = mag_divmod_small a b.(0) in
        (q, mag_of_small r)
      else mag_divmod_large a b

and mag_divmod_large a b =
  let cmp = mag_compare a b in
  if cmp < 0 then ([||], a)
  else if cmp = 0 then ([| 1 |], [||])
  else begin
    let abits = mag_bit_length a in
    let la = Array.length a in
    let q = Array.make la 0 in
    (* remainder buffer: enough limbs for b plus one *)
    let rlen = Array.length b + 1 in
    let r = Array.make (rlen + 1) 0 in
    let shift_in bit =
      (* r := (r << 1) | bit *)
      let carry = ref bit in
      for i = 0 to rlen do
        let v = (r.(i) lsl 1) lor !carry in
        r.(i) <- v land mask;
        carry := v lsr base_bits
      done
    in
    let r_ge_b () =
      let rec go i =
        if i < 0 then true
        else
          let rv = if i <= rlen then r.(i) else 0
          and bv = if i < Array.length b then b.(i) else 0 in
          if rv <> bv then rv > bv else go (i - 1)
      in
      go rlen
    in
    let r_sub_b () =
      let borrow = ref 0 in
      for i = 0 to rlen do
        let bv = if i < Array.length b then b.(i) else 0 in
        let s = r.(i) - bv - !borrow in
        if s < 0 then begin
          r.(i) <- s + base;
          borrow := 1
        end else begin
          r.(i) <- s;
          borrow := 0
        end
      done
    in
    for i = abits - 1 downto 0 do
      shift_in (mag_get_bit a i);
      if r_ge_b () then begin
        r_sub_b ();
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mag_normalize q, mag_normalize (Array.sub r 0 (rlen + 1)))
  end


let mag_mul_small_add a m add =
  let n = Array.length a in
  let r = Array.make (n + 2) 0 in
  let carry = ref add in
  for i = 0 to n - 1 do
    let s = (a.(i) * m) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  let i = ref n in
  while !carry <> 0 do
    r.(!i) <- !carry land mask;
    carry := !carry lsr base_bits;
    incr i
  done;
  mag_normalize r

(* ----- signed layer ----- *)

let make sign mag =
  let mag = mag_normalize mag in
  if mag_is_zero mag then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int negation overflows; go through three limbs of abs value *)
    let v = if n = Stdlib.min_int then n else Stdlib.abs n in
    if v > 0 && v < base * base then { sign; mag = mag_of_small v } (* one or two limbs *)
    else
      let v0 = v land mask
      and v1 = (v lsr base_bits) land mask
      and v2 = (v lsr (2 * base_bits)) land 7 in
      make sign [| v0; v1; v2 |]
  end

let one = of_int 1
let minus_one = of_int (-1)

let sign x = x.sign
let is_zero x = x.sign = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0

(* [is_one] guards the reduction in [Rat.make] on every arithmetic result,
   so it must not pay for a generic magnitude comparison *)
let is_one x = x.sign = 1 && Array.length x.mag = 1 && Stdlib.( = ) x.mag.(0) 1
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash x = Array.fold_left (fun h l -> (h * 1000003) lxor l) x.sign x.mag

(* signed value from a native int with |v| < 2^60 *)
let of_small_signed v =
  if v = 0 then zero
  else if v > 0 then { sign = 1; mag = mag_of_small v }
  else { sign = -1; mag = mag_of_small (-v) }

(* single-limb magnitude as a native int, for the add/mul fast paths below
   (two-limb sums could carry past what [mag_of_small] represents) *)
let mag_small1 a =
  match Array.length a with 0 -> Some 0 | 1 -> Some a.(0) | _ -> None

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else
    match (mag_small1 a.mag, mag_small1 b.mag) with
    | Some x, Some y ->
        (* |x|, |y| < 2^30: the signed sum is exact in a native int *)
        of_small_signed ((a.sign * x) + (b.sign * y))
    | _ ->
        if a.sign = b.sign then { sign = a.sign; mag = mag_add a.mag b.mag }
        else
          let c = mag_compare a.mag b.mag in
          if c = 0 then zero
          else if c > 0 then { sign = a.sign; mag = mag_sub a.mag b.mag }
          else { sign = b.sign; mag = mag_sub b.mag a.mag }

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else
    match (mag_small1 a.mag, mag_small1 b.mag) with
    | Some x, Some y ->
        (* x*y < 2^60 fits [mag_of_small] *)
        { sign = a.sign * b.sign; mag = mag_of_small (x * y) }
    | _ -> { sign = a.sign * b.sign; mag = mag_mul a.mag b.mag }

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_small x y = if y = 0 then x else gcd_small y (x mod y)

let rec gcd_mag a b =
  if mag_is_zero b then a
  else
    match (mag_small a, mag_small b) with
    | Some x, Some y -> mag_of_small (gcd_small x y)
    | _ -> gcd_mag b (snd (mag_divmod a b))

let gcd a b = make 1 (gcd_mag a.mag b.mag)

let lcm a b =
  if a.sign = 0 || b.sign = 0 then zero
  else
    let g = gcd a b in
    abs (mul (div a g) b)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
  in
  go one x n

let to_int_opt x =
  (* valid when |x| <= max_int (also accept min_int exactly) *)
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v0 = x.mag.(0)
    and v1 = if n > 1 then x.mag.(1) else 0
    and v2 = if n > 2 then x.mag.(2) else 0 in
    if v2 > 4 then None
    else if v2 = 4 then
      (* magnitude 2^62 fits only as min_int *)
      if v1 = 0 && v0 = 0 && x.sign < 0 then Some Stdlib.min_int else None
    else
      let v = (v2 lsl (2 * base_bits)) lor (v1 lsl base_bits) lor v0 in
      Some (if x.sign < 0 then -v else v)
  end

let to_small_int x =
  match x.mag with [||] -> 0 | [| l |] -> x.sign * l | _ -> Stdlib.min_int

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec chunks mag acc =
      if mag_is_zero mag then acc
      else
        let q, r = mag_divmod_small mag 1_000_000_000 in
        chunks q (r :: acc)
    in
    (match chunks x.mag [] with
    | [] -> assert false
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let mag = ref [||] in
  let i = ref start in
  while !i < len do
    let stop = Stdlib.min len (!i + 9) in
    let chunk_len = stop - !i in
    let chunk = ref 0 in
    for j = !i to stop - 1 do
      match s.[j] with
      | '0' .. '9' -> chunk := (!chunk * 10) + (Char.code s.[j] - Char.code '0')
      | c -> invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c)
    done;
    let scale =
      let rec p acc k = if k = 0 then acc else p (acc * 10) (k - 1) in
      p 1 chunk_len
    in
    mag := mag_mul_small_add !mag scale !chunk;
    i := stop
  done;
  make sign !mag

let pp fmt x = Format.pp_print_string fmt (to_string x)

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
