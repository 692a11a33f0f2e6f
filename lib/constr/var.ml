type t = { id : int; name : string; argi : int (* i for the canonical $i, else 0 *) }

(* the argument index is decided by the name, so it is parsed once at
   construction: [arg_index] sits on per-candidate paths of the evaluator
   (fact pinning, subsumption environments) where re-parsing the name
   string each call shows up in profiles *)
let argi_of_name n =
  if String.length n >= 2 && n.[0] = '$' then
    match int_of_string_opt (String.sub n 1 (String.length n - 1)) with
    | Some i when i >= 1 -> i
    | _ -> 0
  else 0

let table : (string, t) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let counter = Atomic.make 0

(* Interning is mutexed (named variables are rare and mostly created at
   parse time on the main domain); the counter is atomic because [fresh]
   is on the hot path of every domain evaluating a request. *)
let mk name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
          let v = { id = Atomic.fetch_and_add counter 1 + 1; name; argi = argi_of_name name } in
          Hashtbl.add table name v;
          v)

(* Fresh variables are NOT interned: the evaluation engine creates them per
   candidate derivation, and interning would retain them all in [table] for
   the life of the process.  The counter keeps their names unique among
   fresh variables; primes keep the names parseable by the CQL lexer. *)
let fresh base =
  let id = Atomic.fetch_and_add counter 1 + 1 in
  let name = Printf.sprintf "%s'%d" base id in
  { id; name; argi = argi_of_name name }

(* [$1]..[$32] cover every predicate arity in practice; resolving them once
   skips the sprintf + mutex + hashtable round-trip of [mk] on the head-
   construction path of every derivation *)
let arg_cache = Array.init 32 (fun i -> mk (Printf.sprintf "$%d" (i + 1)))

let arg i =
  if i < 1 then invalid_arg "Var.arg: positions are 1-based";
  if i <= 32 then arg_cache.(i - 1) else mk (Printf.sprintf "$%d" i)

let arg_index v = if v.argi >= 1 then Some v.argi else None

let name v = v.name
let id v = v.id
let compare a b = Stdlib.compare a.id b.id
let equal a b = a.id = b.id
let hash v = v.id
let pp fmt v = Format.pp_print_string fmt v.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
