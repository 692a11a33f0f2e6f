type t = Q | Z

(* a per-domain DLS scope, so one request's domain can never leak into a
   concurrent one; outside every scope it is the paper's ℚ *)
let scope : t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Q)

let current () = !(Domain.DLS.get scope)
let is_z () = current () = Z
let tag () = match current () with Q -> 0 | Z -> 1

let with_domain d f =
  let cell = Domain.DLS.get scope in
  let prev = !cell in
  cell := d;
  Fun.protect ~finally:(fun () -> cell := prev) f

let of_string = function
  | "q" | "rat" | "rational" -> Some Q
  | "z" | "int" | "integer" -> Some Z
  | _ -> None

let to_string = function Q -> "rat" | Z -> "int"
