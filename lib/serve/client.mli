(** Blocking client for the cqlserved protocol (one connection, requests
    answered in order).  Used by [cqlopt client], bench's [serve] experiment and
    the tests. *)

type t

val connect : string -> (t, string) result
(** Connect to a Unix-domain socket path. *)

val connect_retry : ?attempts:int -> ?delay:float -> string -> (t, string) result
(** Retry [connect] (default 50 × 0.1s) — for racing a daemon that is still
    binding its socket. *)

val close : t -> unit

val request : t -> Json.t -> (Json.t, string) result
(** Send one frame and block for the response frame. *)

val eval :
  t ->
  ?id:string ->
  ?tenant:string ->
  ?edb:string ->
  ?pipeline:string ->
  ?domain:Cql_constr.Cdomain.t ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  program:string ->
  unit ->
  (Json.t, string) result

val materialize :
  t ->
  ?id:string ->
  ?tenant:string ->
  ?edb:string ->
  ?pipeline:string ->
  ?domain:Cql_constr.Cdomain.t ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  view:string ->
  program:string ->
  unit ->
  (Json.t, string) result

val insert :
  t ->
  ?id:string ->
  ?tenant:string ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  view:string ->
  facts:string ->
  unit ->
  (Json.t, string) result

val retract :
  t ->
  ?id:string ->
  ?tenant:string ->
  ?max_iterations:int ->
  ?max_derivations:int ->
  view:string ->
  facts:string ->
  unit ->
  (Json.t, string) result

val query : t -> ?id:string -> ?tenant:string -> view:string -> unit -> (Json.t, string) result
val ping : t -> (Json.t, string) result
val stats : t -> (Json.t, string) result

(** {1 Response helpers} *)

val is_ok : Json.t -> bool
val error_kind : Json.t -> string option
(** [Some kind] when the response is an error. *)

val error_message : Json.t -> string option
val answers : Json.t -> string list
(** The ["answers"] strings of an ok eval response (empty otherwise). *)
