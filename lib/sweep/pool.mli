(** A fixed-size domain pool with a mutex-protected job queue.

    OCaml 5 multicore, stdlib only: jobs are drawn from a shared
    counter under a [Mutex], each worker runs in its own [Domain], and
    results land in a pre-sized slot array, so output order matches
    input order regardless of scheduling.  Simulation jobs own all
    their mutable state (graph, wheel engine, RNG streams), so workers
    share nothing but the queue itself.

    The pool is fault tolerant: {!run_outcomes} captures each job's
    exception (with the backtrace of the failing attempt, taken at the
    catch site) as a structured {!outcome} instead of aborting the
    whole run, and can retry failing jobs a bounded number of times. *)

(** [default_workers ()] is [Domain.recommended_domain_count () - 1],
    clamped to at least 1 — one domain is left for the orchestrator. *)
val default_workers : unit -> int

(** [budget_workers ?workers ~domains_per_job ()] is the worker count
    for a pool whose every job itself spawns [domains_per_job] domains
    (a sharded {!Gossip_scale.Wheel_engine} run): the requested count
    ([workers] or {!default_workers}) clamped so that
    [workers * domains_per_job] never exceeds
    [Domain.recommended_domain_count ()], and at least 1 — jobs slow
    down gracefully rather than oversubscribe the machine.
    @raise Invalid_argument if [domains_per_job < 1]. *)
val budget_workers : ?workers:int -> domains_per_job:int -> unit -> int

(** The error side of a job outcome.  [backtrace] is captured with
    [Printexc.get_raw_backtrace] at the catch site of the {e last}
    attempt, so it points at the failing job, not at the pool's join;
    [attempts] counts every execution of the job, so it is [1] without
    retries and at most [retries + 1]. *)
type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
}

type 'a outcome = Ok of 'a | Failed of failure

(** [failure_message f] is [Printexc.to_string f.exn]. *)
val failure_message : failure -> string

(** [us_of_seconds s] converts a wall-clock span in seconds to integer
    microseconds, rounding to nearest (truncation would record 0 for
    every sub-microsecond job). *)
val us_of_seconds : float -> int

(** [run_outcomes ?workers ?retries ?on_retry ?on_result ?telemetry f
    inputs] applies [f] to every element of [inputs] on a pool of
    [workers] domains (default {!default_workers}; clamped to
    [1 <= workers <= Array.length inputs]) and returns one {!outcome}
    per input, in input order.  A raising job never aborts the run: it
    is re-executed up to [retries] extra times (default [0]) by the
    same worker, and if every attempt raises the job yields [Failed].

    [on_retry i ~attempt e] fires after attempt [attempt] of job [i]
    raised [e] and a retry is about to run; [on_result i outcome]
    fires as soon as job [i]'s final outcome is known — before the
    pool joins, which is what makes streaming checkpoints possible.
    Both callbacks are serialized on a dedicated mutex (they may be
    invoked from any worker domain, but never concurrently) and must
    not raise.

    When [telemetry] is given, each worker keeps a private registry
    (no cross-domain contention) recording [pool.worker<w>.busy_us]
    and [pool.worker<w>.jobs] counters, shared-name [pool.retries]
    (retry attempts) and [pool.failures] (jobs that ultimately failed)
    counters, plus shared-name [pool.job_us] (per-job wall time,
    microseconds, rounded) and [pool.queue_depth] (jobs remaining at
    dequeue) histograms; all worker registries are merged into
    [telemetry] after the join.  Per-worker metrics are registered
    eagerly, so the merged name set depends only on the worker count,
    not on scheduling.
    @raise Invalid_argument if [retries < 0]. *)
val run_outcomes :
  ?workers:int ->
  ?retries:int ->
  ?on_retry:(int -> attempt:int -> exn -> unit) ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
