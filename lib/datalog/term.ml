open Cql_num
open Cql_constr

type const = Num of Rat.t | Sym of string

type t = V of Var.t | C of const

let var v = V v
let num q = C (Num q)
let int n = C (Num (Rat.of_int n))
let sym s = C (Sym s)

let is_var = function V _ -> true | C _ -> false
let is_ground = function V _ -> false | C _ -> true
let vars = function V v -> Var.Set.singleton v | C _ -> Var.Set.empty

let to_linexpr = function
  | V v -> Some (Linexpr.var v)
  | C (Num q) -> Some (Linexpr.const q)
  | C (Sym _) -> None

let compare_const a b =
  match (a, b) with
  | Num x, Num y -> Rat.compare x y
  | Num _, Sym _ -> -1
  | Sym _, Num _ -> 1
  | Sym x, Sym y -> String.compare x y

let equal_const a b =
  match (a, b) with
  | Num x, Num y -> Rat.equal x y
  | Sym x, Sym y -> String.equal x y
  | Num _, Sym _ | Sym _, Num _ -> false

let compare a b =
  match (a, b) with
  | V x, V y -> Var.compare x y
  | V _, C _ -> -1
  | C _, V _ -> 1
  | C x, C y -> compare_const x y

let equal a b =
  match (a, b) with
  | V x, V y -> Var.equal x y
  | C x, C y -> equal_const x y
  | V _, C _ | C _, V _ -> false

let pp_const fmt = function
  | Num q -> Rat.pp fmt q
  | Sym s -> Format.pp_print_string fmt s

let pp fmt = function V v -> Var.pp fmt v | C c -> pp_const fmt c

let to_string t = Format.asprintf "%a" pp t
