(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly positive
    and numerator/denominator are coprime, so structural operations such as
    {!equal} and {!hash} agree with numeric equality.  A value whose
    numerator and denominator are both below 2{^30} in magnitude is an
    immediate (unboxed) value and arithmetic on such values allocates only
    when a result leaves that range; polymorphic [=] and [Hashtbl.hash]
    agree with {!equal}, but polymorphic [compare] is not the numeric
    order. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized fraction [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero when [b = 0]. *)

val of_string : string -> t
(** Accepts ["42"], ["-3/4"] and decimal notation ["2.5"].
    @raise Invalid_argument on malformed input. *)

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t
(** Always strictly positive. *)

val compare_num : t -> t -> int
val compare_den : t -> t -> int
(** [compare_num a b] is [Bigint.compare (num a) (num b)] (likewise for
    the denominators), without building a bigint for small values. *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val to_small_int : t -> int
(** [to_small_int q] is [q] when it is an integer with [|q| < 2{^30}], and
    [min_int] otherwise (see {!Bigint.to_small_int}). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero when the argument is zero. *)

val gcd : t -> t -> t
(** The largest [g >= 0] with [a/g] and [b/g] both integers: the gcd of
    the numerators over the lcm of the denominators.  [gcd 0 0 = 0]. *)

val floor : t -> t
(** The largest integer not above the argument. *)

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
