(* Unit and property tests for the arbitrary-precision arithmetic substrate. *)

open Cql_num
module B = Bigint
module Q = Rat

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Bigint unit tests ----- *)

let test_of_to_int () =
  List.iter
    (fun n ->
      match B.to_int_opt (B.of_int n) with
      | Some m -> check_int (Printf.sprintf "roundtrip %d" n) n m
      | None -> Alcotest.failf "roundtrip lost %d" n)
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 30; 1 lsl 31 ]

let test_to_string () =
  check "zero" "0" (B.to_string B.zero);
  check "one" "1" (B.to_string B.one);
  check "neg" "-123456789" (B.to_string (B.of_int (-123456789)));
  check "max_int" (string_of_int max_int) (B.to_string (B.of_int max_int));
  check "min_int" (string_of_int min_int) (B.to_string (B.of_int min_int))

let test_of_string () =
  check "roundtrip small" "12345" (B.to_string (B.of_string "12345"));
  check "plus sign" "7" (B.to_string (B.of_string "+7"));
  check "neg" "-987654321012345678901234567890"
    (B.to_string (B.of_string "-987654321012345678901234567890"));
  check "leading zeros" "42" (B.to_string (B.of_string "00042"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string") (fun () ->
      ignore (B.of_string ""));
  Alcotest.check_raises "bad char" (Invalid_argument "Bigint.of_string: bad character 'x'")
    (fun () -> ignore (B.of_string "1x2"))

let test_pow_and_big_values () =
  let two_100 = B.pow (B.of_int 2) 100 in
  check "2^100" "1267650600228229401496703205376" (B.to_string two_100);
  let prod = B.mul two_100 two_100 in
  check_bool "2^100 * 2^100 = 2^200" true (B.equal prod (B.pow (B.of_int 2) 200));
  (* 100! has a known decimal form; spot-check its length and trailing zeros *)
  let fact100 =
    let rec go acc i = if i > 100 then acc else go (B.mul acc (B.of_int i)) (i + 1) in
    go B.one 1
  in
  let s = B.to_string fact100 in
  check_int "100! digit count" 158 (String.length s);
  check "100! tail" "000000000000000000000000" (String.sub s (String.length s - 24) 24)

let test_divmod_signs () =
  (* truncation towards zero: r has sign of a *)
  let dm a b =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    (B.to_int_exn q, B.to_int_exn r)
  in
  Alcotest.(check (pair int int)) "7/2" (3, 1) (dm 7 2);
  Alcotest.(check (pair int int)) "-7/2" (-3, -1) (dm (-7) 2);
  Alcotest.(check (pair int int)) "7/-2" (-3, 1) (dm 7 (-2));
  Alcotest.(check (pair int int)) "-7/-2" (3, -1) (dm (-7) (-2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd_lcm () =
  let g a b = B.to_int_exn (B.gcd (B.of_int a) (B.of_int b)) in
  check_int "gcd 12 18" 6 (g 12 18);
  check_int "gcd -12 18" 6 (g (-12) 18);
  check_int "gcd 0 5" 5 (g 0 5);
  check_int "gcd 0 0" 0 (g 0 0);
  let l a b = B.to_int_exn (B.lcm (B.of_int a) (B.of_int b)) in
  check_int "lcm 4 6" 12 (l 4 6);
  check_int "lcm 0 6" 0 (l 0 6);
  check_int "lcm -4 6" 12 (l (-4) 6)

let test_compare () =
  let cmp a b = B.compare (B.of_string a) (B.of_string b) in
  check_bool "big > small" true (cmp "10000000000000000000000" "9999" > 0);
  check_bool "neg < pos" true (cmp "-1" "1" < 0);
  check_bool "neg magnitudes" true (cmp "-10000000000000000000000" "-9999" < 0);
  check_bool "equal" true (cmp "123" "0123" = 0);
  check_bool "min" true B.(equal (min (of_int 3) (of_int 5)) (of_int 3));
  check_bool "max" true B.(equal (max (of_int 3) (of_int 5)) (of_int 5))

(* ----- Bigint properties against native ints ----- *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let prop_add =
  QCheck.Test.make ~name:"bigint add agrees with int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.add (B.of_int a) (B.of_int b)) = a + b)

let prop_mul =
  QCheck.Test.make ~name:"bigint mul agrees with int" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.mul (B.of_int a) (B.of_int b)) = a * b)

let prop_divmod =
  QCheck.Test.make ~name:"bigint divmod identity" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.equal (B.add (B.mul q (B.of_int b)) r) (B.of_int a)
      && B.compare (B.abs r) (B.abs (B.of_int b)) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) small_int) (fun parts ->
      (* combine parts into one big number *)
      let x =
        List.fold_left
          (fun acc p -> B.add (B.mul acc (B.of_string "1000000000000")) (B.of_int p))
          B.zero parts
      in
      B.equal x (B.of_string (B.to_string x)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300 (QCheck.pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (a <> 0 || b <> 0);
      let g = B.gcd (B.of_int a) (B.of_int b) in
      B.sign g > 0
      && B.is_zero (B.rem (B.of_int a) g)
      && B.is_zero (B.rem (B.of_int b) g))

(* ----- Bigint word-boundary properties -----

   The add/mul fast paths trigger below one limb (2^30) and divmod/gcd
   below two limbs (2^60); [of_int min_int] has its own branch.  Draw
   operands clustered on those boundaries and cross-check every result
   against the same computation routed through the multi-limb code by
   offsetting with 2^70 first. *)

let boundary_values =
  let b30 = 1 lsl 30 and b31 = 1 lsl 31 and b60 = 1 lsl 60 and b62 = 1 lsl 62 in
  [
    0; 1; -1; b30 - 1; -(b30 - 1); b30; b30 + 1; -b30; -(b30 + 1); b31; -b31; b60 - 1; b60;
    b60 + 1; -b60; -(b60 + 1); b62; -b62; max_int; min_int; min_int + 1;
  ]

let boundary_int =
  let n = List.length boundary_values in
  QCheck.make
    ~print:string_of_int
    QCheck.Gen.(
      frequency
        [ (4, map (List.nth boundary_values) (int_bound (n - 1))); (1, int) ])

(* the same value built without touching the native fast paths *)
let big_offset = B.pow (B.of_int 2) 70
let via_multilimb a = B.sub (B.add big_offset (B.of_int a)) big_offset

let prop_boundary_roundtrip =
  QCheck.Test.make ~name:"bigint of_int/to_int at word boundaries" ~count:300
    boundary_int (fun a ->
      let x = B.of_int a in
      B.equal x (via_multilimb a) && B.to_int_opt x = Some a)

let prop_boundary_add_sub =
  QCheck.Test.make ~name:"bigint add/sub at word boundaries" ~count:500
    (QCheck.pair boundary_int boundary_int) (fun (a, b) ->
      let fast = B.add (B.of_int a) (B.of_int b) in
      let slow = B.sub (B.add (B.add big_offset (B.of_int a)) (B.of_int b)) big_offset in
      B.equal fast slow && B.equal (B.sub fast (B.of_int b)) (B.of_int a))

let prop_boundary_mul =
  QCheck.Test.make ~name:"bigint mul at word boundaries" ~count:500
    (QCheck.pair boundary_int boundary_int) (fun (a, b) ->
      (* (big + a) * b is computed by the general schoolbook product;
         subtracting big * b must land exactly on the fast-path result *)
      let fast = B.mul (B.of_int a) (B.of_int b) in
      let slow =
        B.sub
          (B.mul (B.add big_offset (B.of_int a)) (B.of_int b))
          (B.mul big_offset (B.of_int b))
      in
      B.equal fast slow)

let prop_boundary_divmod =
  QCheck.Test.make ~name:"bigint divmod at word boundaries" ~count:500
    (QCheck.pair boundary_int boundary_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      (* scaling both operands by 2^70 forces binary long division and
         must preserve the quotient while scaling the remainder *)
      let q', r' =
        B.divmod (B.mul (B.of_int a) big_offset) (B.mul (B.of_int b) big_offset)
      in
      B.equal q q'
      && B.equal r' (B.mul r big_offset)
      && B.equal (B.add (B.mul q (B.of_int b)) r) (B.of_int a)
      && B.compare (B.abs r) (B.abs (B.of_int b)) < 0)

let prop_boundary_gcd =
  QCheck.Test.make ~name:"bigint gcd at word boundaries" ~count:500
    (QCheck.pair boundary_int boundary_int) (fun (a, b) ->
      QCheck.assume (a <> 0 || b <> 0);
      let g = B.gcd (B.of_int a) (B.of_int b) in
      (* gcd(a*m, b*m) = gcd(a, b) * m with multi-limb operands *)
      B.equal
        (B.gcd (B.mul (B.of_int a) big_offset) (B.mul (B.of_int b) big_offset))
        (B.mul g big_offset)
      && B.sign g > 0
      && B.is_zero (B.rem (B.of_int a) g)
      && B.is_zero (B.rem (B.of_int b) g))

(* ----- Rat unit tests ----- *)

let q = Q.of_ints

let test_rat_normalization () =
  check_bool "2/4 = 1/2" true (Q.equal (q 2 4) (q 1 2));
  check_bool "-2/-4 = 1/2" true (Q.equal (q (-2) (-4)) (q 1 2));
  check_bool "den positive" true (Bigint.sign (Q.den (q 3 (-7))) > 0);
  check "print" "-3/7" (Q.to_string (q 3 (-7)));
  check "print int" "5" (Q.to_string (q 10 2));
  Alcotest.check_raises "zero den" Division_by_zero (fun () -> ignore (q 1 0))

let test_rat_arith () =
  check_bool "1/2 + 1/3 = 5/6" true (Q.equal (Q.add (q 1 2) (q 1 3)) (q 5 6));
  check_bool "1/2 * 2/3 = 1/3" true (Q.equal (Q.mul (q 1 2) (q 2 3)) (q 1 3));
  check_bool "(1/2) / (3/4) = 2/3" true (Q.equal (Q.div (q 1 2) (q 3 4)) (q 2 3));
  check_bool "inv" true (Q.equal (Q.inv (q (-2) 3)) (q (-3) 2));
  check_bool "sub" true (Q.equal (Q.sub (q 1 2) (q 1 3)) (q 1 6));
  Alcotest.check_raises "div by zero rat" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_rat_compare () =
  check_bool "1/3 < 1/2" true Q.(q 1 3 < q 1 2);
  check_bool "-1/2 < 1/3" true Q.(q (-1) 2 < q 1 3);
  check_bool "equal classes" true (Q.compare (q 4 6) (q 2 3) = 0);
  check_int "sign neg" (-1) (Q.sign (q (-1) 5));
  check_int "sign zero" 0 (Q.sign Q.zero);
  check_bool "is_integer" true (Q.is_integer (q 8 4));
  check_bool "not integer" false (Q.is_integer (q 8 3))

let test_rat_of_string () =
  check_bool "42" true (Q.equal (Q.of_string "42") (Q.of_int 42));
  check_bool "-3/4" true (Q.equal (Q.of_string "-3/4") (q (-3) 4));
  check_bool "2.5" true (Q.equal (Q.of_string "2.5") (q 5 2));
  check_bool "-0.25" true (Q.equal (Q.of_string "-0.25") (q (-1) 4));
  check_bool "0.125" true (Q.equal (Q.of_string "0.125") (q 1 8))

(* ----- Rat properties ----- *)

let rat_gen =
  QCheck.map
    (fun (n, d) -> q n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))

let prop_rat_field =
  QCheck.Test.make ~name:"rat field laws" ~count:500 (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.sub (Q.add a b) b) a)

let prop_rat_compare_antisym =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:500 (QCheck.pair rat_gen rat_gen)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

let prop_rat_string_roundtrip =
  QCheck.Test.make ~name:"rat string roundtrip" ~count:500 rat_gen (fun a ->
      Q.equal a (Q.of_string (Q.to_string a)))

(* A numeral of at most 18 digits is read natively, any other through
   bigints: both routes must build the same canonical value, with leading
   zeros and a sign, around the packed (2^30) and native (2^62) bounds, and
   at 18, 19 and 20 digits. *)
let numeral =
  let open QCheck.Gen in
  let digits n = map (String.concat "") (list_repeat n (map string_of_int (int_bound 9))) in
  let near e =
    map (fun d -> B.to_string (B.add (B.pow (B.of_int 2) e) (B.of_int d))) (int_range (-3) 3)
  in
  let body =
    frequency
      [
        (2, int_range 1 20 >>= digits);
        (2, oneofl [ 17; 18; 19; 20 ] >>= digits);
        (1, near 30);
        (1, near 62);
      ]
  in
  let sign = oneofl [ ""; "-"; "+" ] in
  let zeros = map (fun k -> String.make k '0') (int_bound 3) in
  QCheck.make ~print:Fun.id (map (fun ((s, z), b) -> s ^ z ^ b) (pair (pair sign zeros) body))

let prop_rat_of_numeral =
  QCheck.Test.make ~name:"rat of_string of a numeral is its bigint" ~count:1000 numeral
    (fun s ->
      let a = Q.of_string s and b = Q.of_bigint (B.of_string s) in
      Q.equal a b && Stdlib.( = ) a b)

(* ----- Rat across the packed/bigint split -----

   A fraction whose numerator and denominator are both below 2^30 is an
   immediate value with native arithmetic; any other is a pair of bigints.
   Draw numerators and denominators on both sides of that line (and far
   past it) and check every operation against the same computation done
   on bigints and normalized by [make]. *)

let rat_boundary =
  QCheck.map
    (fun (n, d) -> Q.make (B.of_int n) (B.of_int (if d = 0 then 1 else d)))
    (QCheck.pair boundary_int boundary_int)

let via_bigints a b f g =
  Q.make (f (Q.num a) (Q.den a) (Q.num b) (Q.den b)) (g (Q.den a) (Q.den b))

let prop_rat_boundary_construct =
  QCheck.Test.make ~name:"rat make and of_ints agree across the packed split" ~count:1000
    (QCheck.pair boundary_int boundary_int) (fun (n, d) ->
      let d = if d = 0 then 1 else d in
      let a = Q.of_ints n d in
      a = Q.make (B.of_int n) (B.of_int d)
      && Q.hash a = Q.hash (Q.make (B.of_int n) (B.of_int d))
      && Q.of_int n = Q.of_ints n 1
      && Q.of_bigint (B.of_int n) = Q.of_int n
      && Q.of_string (Q.to_string a) = a)

let prop_rat_boundary_field =
  QCheck.Test.make ~name:"rat field laws across the packed split" ~count:1000
    (QCheck.triple rat_boundary rat_boundary rat_boundary) (fun (a, b, c) ->
      Q.add a b
      = via_bigints a b (fun na da nb db -> B.add (B.mul na db) (B.mul nb da)) B.mul
      && Q.mul a b = via_bigints a b (fun na _ nb _ -> B.mul na nb) B.mul
      && Q.add a b = Q.add b a
      && Q.add (Q.add a b) c = Q.add a (Q.add b c)
      && Q.mul a (Q.add b c) = Q.add (Q.mul a b) (Q.mul a c)
      && Q.sub (Q.add a b) b = a
      && (Q.is_zero a || Q.mul a (Q.inv a) = Q.one))

let prop_rat_boundary_compare =
  QCheck.Test.make ~name:"rat compare across the packed split agrees with bigints" ~count:1000
    (QCheck.pair rat_boundary rat_boundary) (fun (a, b) ->
      let c = Q.compare a b in
      c = B.compare (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a))
      && Q.compare_num a b = B.compare (Q.num a) (Q.num b)
      && Q.compare_den a b = B.compare (Q.den a) (Q.den b)
      && Q.equal a b = (c = 0)
      && (a = b) = (c = 0))

let prop_rat_boundary_gcd_floor =
  QCheck.Test.make ~name:"rat gcd and floor across the packed split" ~count:1000
    (QCheck.pair rat_boundary rat_boundary) (fun (a, b) ->
      let g = Q.gcd a b and f = Q.floor a in
      (if Q.is_zero a && Q.is_zero b then Q.is_zero g
       else
         Q.sign g > 0
         && Q.is_integer (Q.div a g)
         && Q.is_integer (Q.div b g)
         && B.is_one (B.gcd (Q.num (Q.div a g)) (Q.num (Q.div b g))))
      && Q.is_integer f
      && Q.(f <= a)
      && Q.(a < f + one))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "num"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "pow and big values" `Quick test_pow_and_big_values;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "compare" `Quick test_compare;
        ] );
      ( "bigint-properties",
        qt [ prop_add; prop_mul; prop_divmod; prop_string_roundtrip; prop_gcd_divides ] );
      ( "bigint-boundaries",
        qt
          [
            prop_boundary_roundtrip; prop_boundary_add_sub; prop_boundary_mul;
            prop_boundary_divmod; prop_boundary_gcd;
          ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
        ] );
      ( "rat-properties",
        qt
          [
            prop_rat_field; prop_rat_compare_antisym; prop_rat_string_roundtrip;
            prop_rat_of_numeral;
          ] );
      ( "rat-boundaries",
        qt
          [
            prop_rat_boundary_construct; prop_rat_boundary_field; prop_rat_boundary_compare;
            prop_rat_boundary_gcd_floor;
          ] );
    ]
