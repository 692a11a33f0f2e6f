open Cql_num
open Cql_datalog

(* A stored fact with a liveness flag: back-subsumption marks cells dead
   instead of rebuilding every index that mentions them.  [part] tracks the
   cell's current partition so the store can keep live counts per partition
   without rescanning. *)
type cell = { fact : Fact.t; mutable live : bool; mutable part : int }

let hash_const = function Term.Sym s -> Hashtbl.hash s | Term.Num q -> Rat.hash q

(* A fold [(acc * 65599) lxor h] keeps the low bits of the values' own
   hashes, and those of small integers are the integers' low bits, so keys
   that agree there collide in [Hashtbl.Make]'s buckets.  The product's
   high bits depend on every bit of the fold; shifting them down mixes
   them in. *)
let hash_mix h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Key = struct
  type t = Term.const list

  let equal = List.equal Term.equal_const
  let hash k = hash_mix (List.fold_left (fun acc c -> (acc * 65599) lxor hash_const c) 17 k)
end

module KeyTbl = Hashtbl.Make (Key)

type t = {
  positions : int list; (* 0-based argument columns, ascending *)
  buckets : cell list ref KeyTbl.t;
  mutable wild : cell list;
      (* cells not ground on every indexed column: returned by every probe,
         filtered by [Fact.matches_literal] downstream *)
}

let positions idx = idx.positions
let create positions = { positions; buckets = KeyTbl.create 64; wild = [] }

(* the fact's key on [positions]; [Not_found] when some column is neither
   a symbol nor pinned to a single numeric value *)
let rec key_of_fact positions (f : Fact.t) : Term.const list =
  match positions with
  | [] -> []
  | i :: rest -> (
      match f.Fact.terms.(i) with
      | Term.C c -> c :: key_of_fact rest f
      | Term.V _ -> raise Not_found)

let add idx cell =
  match key_of_fact idx.positions cell.fact with
  | exception Not_found -> idx.wild <- cell :: idx.wild
  | key -> (
      match KeyTbl.find idx.buckets key with
      | l -> l := cell :: !l
      | exception Not_found -> KeyTbl.add idx.buckets key (ref [ cell ]))

let of_cells positions cells =
  let idx = create positions in
  (* cells arrive newest-first; keep bucket lists newest-first too *)
  List.iter (fun c -> add idx c) (List.rev cells);
  idx

(* the cells that can possibly carry a probed key are its bucket plus the
   wildcard cells (which a later matches_literal check filters) *)
let bucket idx key = match KeyTbl.find idx.buckets key with l -> !l | exception Not_found -> []
let wild idx = idx.wild
