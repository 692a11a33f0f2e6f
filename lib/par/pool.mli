(** A small, dependency-free domain pool for independent concurrent jobs —
    the executor behind [cqlserved], one connection per job.

    [create ~jobs] spawns [jobs - 1] worker domains once.  {!submit}
    enqueues a single independent job that any one worker picks up;
    multiple domains may submit concurrently and each {!await}s its own
    result.  With [jobs = 1] no domains are spawned and {!submit} runs the
    job synchronously — the exact sequential path, with no synchronization.

    A submitted job must not {!await} another job on the same pool — with
    all workers busy awaiting, no worker is left to run the awaited jobs.
    Domain-local state (the constraint domain, a pivot budget) does not
    follow a job onto its worker: a job that needs it re-establishes it
    itself. *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] worker domains; with [jobs <= 1] none, and every job
    runs in the caller of {!submit}.  The count includes the caller, which
    only submits and awaits, so [jobs = n + 1] gives [n] workers. *)

type 'a job

val submit : t -> (unit -> 'a) -> 'a job
(** [submit pool f] enqueues [f] to run on one worker domain and returns a
    handle to pass to {!await}.  Jobs submitted from different domains run
    concurrently (up to [jobs - 1] at a time).  With [jobs = 1] the job runs
    synchronously in the caller before [submit] returns. *)

val is_done : 'a job -> bool
(** Whether the job has finished (with a value or an exception); never
    blocks. *)

val await : 'a job -> 'a
(** Block until the job finishes; return its value or re-raise its
    exception (with the backtrace captured on the worker). *)

val shutdown : t -> unit
(** Terminate and join the worker domains; jobs still queued but unstarted
    are run in the caller so every {!await} returns.  Using the pool
    afterwards raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, exception-safely. *)
