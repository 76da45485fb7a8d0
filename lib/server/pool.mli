(** A worker pool of OCaml 5 domains.

    [create ~workers ~init ()] spawns [workers] domains; each builds its
    own private context with [init] (for this service: a fresh millicode
    machine, so no two requests ever share mutable simulator state).
    {!submit} enqueues a job and blocks the calling thread until a worker
    has run it, returning the job's value — or re-raising the exception
    the job raised, on the submitter's stack.

    Jobs are picked up in FIFO order but may complete in any order across
    workers; nothing a job computes may depend on which worker runs it
    (the plan functions are pure, so the reply bytes cannot). *)

type 'ctx t

val create :
  ?obs:Hppa_obs.Obs.Registry.t ->
  ?obs_labels:(string * string) list ->
  workers:int -> init:(unit -> 'ctx) -> unit -> 'ctx t
(** [workers >= 1], else [Invalid_argument]. With [?obs], the pool
    registers [hppa_pool_jobs_total], [hppa_pool_job_exceptions_total],
    a queue-wait histogram [hppa_pool_wait_us] (enqueue to job start,
    for {!submit} and {!post} jobs alike) and
    a live [hppa_pool_queue_depth] gauge, all under [obs_labels]
    (default none) — several pools (e.g. one per cache shard) can share
    a registry by labelling themselves apart. *)

val workers : 'ctx t -> int

val submit : 'ctx t -> ('ctx -> 'a) -> 'a
(** Blocking; safe to call from any thread or domain. Raises
    [Invalid_argument] after {!shutdown}. *)

val post : 'ctx t -> ('ctx -> unit) -> unit
(** Fire-and-forget: enqueue a job and return immediately — the async
    serving path's shard dispatch, where the event loop must never
    block. The job must deliver its own result (e.g. via a completion
    queue); an exception it raises is swallowed (counted on
    [hppa_pool_job_exceptions_total] when instrumented). Raises
    [Invalid_argument] after {!shutdown}. *)

val shutdown : 'ctx t -> unit
(** Drain: runs every job already queued, then joins all workers.
    Idempotent. Subsequent {!submit}s are refused. *)
