(** Admission control: per-tenant accounting over the engine's existing
    budget mechanisms.

    A request is admitted when (a) its program fits the byte limit, (b) its
    tenant is under the concurrent-request cap, and (c) it does not ask for
    more derivations or iterations than the server is willing to spend.
    Admitted requests get an {e effective} budget — the requested budget
    clamped to the server caps — which the engine already knows how to
    enforce ([max_derivations]/[max_iterations] truncation), so a runaway
    program costs at most one capped fixpoint.

    Each tenant has a row with its in-flight count and its served and
    rejected totals, which the [stats] op reports ({!tenants}).  Clients
    choose tenant names, so the table holds at most 1,024 rows: a new name
    that finds it full first drops every row with nothing in flight, and
    those tenants' totals with them. *)

type limits = {
  max_program_bytes : int;  (** reject larger program sources as oversized *)
  max_inflight_per_tenant : int;  (** concurrent eval requests per tenant *)
  max_derivations : int;  (** hard cap on any request's derivation budget *)
  max_iterations : int;  (** hard cap on any request's iteration budget *)
}

val default_limits : limits
(** 1 MiB programs, 4 in-flight per tenant, 200_000 derivations,
    200 iterations. *)

type t

val create : limits -> t
val limits : t -> limits

type verdict =
  | Admit of { max_iterations : int; max_derivations : int }
      (** effective budgets: requested clamped to the caps *)
  | Reject_oversized of string
  | Reject_busy of string  (** tenant at the in-flight cap *)
  | Reject_budget of string  (** asked for more than the server cap *)

val admit :
  t ->
  tenant:string ->
  program_bytes:int ->
  max_iterations:int option ->
  max_derivations:int option ->
  verdict
(** On [Admit] the tenant's in-flight count has been taken; pair with
    {!release} (exception-safely) when the request finishes.  A request
    whose explicit budget exceeds the server cap is rejected rather than
    silently clamped — the caller asked for work the server refuses to do —
    while an absent budget defaults to the cap. *)

val release : t -> tenant:string -> unit

type tenant_stats = { tenant : string; inflight : int; served : int; rejected : int }

val tenants : t -> tenant_stats list
(** The rows currently held, sorted by tenant name. *)
