(** A minimal JSON value type with a parser and printer.

    The toolchain deliberately has no JSON dependency (lib/serve is
    dependency-free like lib/obs), so the wire protocol, the
    plan-service responses and bench's BENCH_results.json all go through
    this module.  It covers the whole of JSON except that numbers are split
    into [Int] (exact 63-bit integers) and [Float] (everything else), and
    [\uXXXX] escapes outside the BMP are decoded per UTF-16 surrogate
    half. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; the error names the byte offset.  Trailing
    whitespace is allowed, trailing content is an error. *)

val to_string : t -> string
(** Compact form, no newlines; strings escaped per RFC 8259 ([\uXXXX] for
    control characters). *)

val to_buffer : Buffer.t -> t -> unit

(** {1 Accessors} — shallow, total helpers for picking requests apart. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] on other
    constructors. *)

val to_str : t -> string option

type int_error =
  | Not_an_integer  (** not a number, or a float with a fractional part *)
  | Unsafe_integer
      (** an integral float at or beyond 2^53, where doubles no longer
          represent every integer — converting would silently round *)

val to_int_checked : t -> (int, int_error) result
(** [Ok] for [Int] and for integral [Float]s strictly inside the 2^53 safe
    range; lossy conversions are rejected with {!Unsafe_integer}. *)

val to_int : t -> int option
(** [to_int_checked] squashed to an option. *)

val to_bool : t -> bool option
val to_list : t -> t list option
