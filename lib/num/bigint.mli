(** Arbitrary-precision signed integers.

    Fourier–Motzkin elimination multiplies constraint coefficients together,
    so intermediate coefficients can exceed the native 63-bit range even when
    the program's constants are tiny.  This module provides the exact integer
    arithmetic the constraint solver is built on.  The representation is a
    sign plus a little-endian array of base-2{^30} limbs with no leading zero
    limb. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_small_int : t -> int
(** [to_small_int x] is [x] when [|x| < 2{^30}] (at most one limb), and
    [min_int] otherwise — a sentinel no small value can take.  Allocation
    free, for hot paths that switch to native arithmetic. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optionally-signed decimal numeral.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation, e.g. ["-123"]. *)

val pp : Format.formatter -> t -> unit

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool

val min : t -> t -> t
val max : t -> t -> t

val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated towards zero, so
    [r] has the sign of [a] and [|r| < |b|].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t
(** Least common multiple; always non-negative. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0].
    @raise Invalid_argument on negative exponent. *)

(** {1 Infix operators} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
