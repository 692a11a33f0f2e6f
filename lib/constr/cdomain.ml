type t = Q | Z

(* an atomic process default plus a per-domain DLS override (as for the
   simplex pivot budget), so one request's scoped domain can never leak
   into a concurrent one *)
let process_default = Atomic.make Q

let override : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let set_default d = Atomic.set process_default d

let current () =
  match !(Domain.DLS.get override) with Some d -> d | None -> Atomic.get process_default

let is_z () = current () = Z
let tag () = match current () with Q -> 0 | Z -> 1

let with_domain d f =
  let cell = Domain.DLS.get override in
  let prev = !cell in
  cell := Some d;
  Fun.protect ~finally:(fun () -> cell := prev) f

let of_string = function
  | "q" | "rat" | "rational" -> Some Q
  | "z" | "int" | "integer" -> Some Z
  | _ -> None

let to_string = function Q -> "rat" | Z -> "int"
