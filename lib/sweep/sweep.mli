(** Multicore experiment orchestrator over the flat-array runtime.

    A sweep is a list of [(family, n, seed, protocol)] jobs, fanned
    across a {!Pool} of domains; every job builds its own {!Csr} graph
    and {!Wheel_engine} run, so nothing mutable crosses domains.
    Per-group round counts are condensed into {!Gossip_util.Stats}
    summaries, and the whole record — raw results plus summaries — can
    be serialized as JSON for external plotting.

    The runtime is fault tolerant: {!run_ft} records each job's
    outcome as it finishes to an append-only JSONL checkpoint, retries
    failing jobs a bounded number of times, enforces a cooperative
    per-job wall-clock budget, and returns structured failures instead
    of aborting the campaign — so one crashing job out of thousands
    costs one result, not the run, and a killed sweep restarts where
    it left off ([run_ft ~resume:true]). *)

(** Large-graph families, built directly in CSR form. *)
type family =
  | Ring_of_cliques of { size : int; bridge_latency : int }
      (** [n / size] cliques of [size] nodes (at least 3 cliques; the
          realized node count is rounded to a multiple of [size]) *)
  | Braided_ring of { size : int; bridges : int; bridge_latency : int }
      (** ring of cliques joined by [bridges] parallel matching edges,
          bridge 0 one round faster than the rest (see
          {!Gossip_scale.Csr.braided_ring}) — the dynamic-scenario
          testbed family *)
  | Barabasi_albert of { attach : int }
  | Watts_strogatz of { k : int; beta : float }

val family_name : family -> string

(** [realized_n family ~n] is the node count [build] will materialize
    for a requested [n] — [max 3 (n / size) · size] for
    ring-of-cliques, [n] otherwise — computable without building the
    graph. *)
val realized_n : family -> n:int -> int

(** [build family ~n ~seed] materializes the graph; the realized node
    count may be rounded (ring-of-cliques, see {!realized_n}) and is
    reported in the job outcome. *)
val build : family -> n:int -> seed:int -> Gossip_scale.Csr.t

type job = {
  family : family;
  n : int;  (** requested node count *)
  seed : int;  (** drives both graph sampling and the protocol run *)
  protocol : Runner.protocol;
  latency : Gossip_graph.Gen.latency_spec option;
      (** optional redraw of edge latencies after construction *)
  scenario : Gossip_dyn.Scenario.t option;
      (** optional dynamic-network scenario, compiled per job against
          the realized graph (see {!run_job}); [None] is the static
          plan *)
  max_rounds : int;
}

(** [make_jobs ~family ~n ~protocol ~trials ~base_seed ~max_rounds ()]
    builds [trials] jobs with well-spread seeds
    ([base_seed + i * 7919], the convention of the bench harness). *)
val make_jobs :
  family:family ->
  n:int ->
  protocol:Runner.protocol ->
  trials:int ->
  base_seed:int ->
  max_rounds:int ->
  ?latency:Gossip_graph.Gen.latency_spec ->
  ?scenario:Gossip_dyn.Scenario.t ->
  unit ->
  job list

(** [family_json f] serializes a family descriptor as a JSON object
    keyed by ["kind"]; {!family_of_json} inverts it. *)
val family_json : family -> Gossip_util.Json.t

val family_of_json : Gossip_util.Json.t -> family option

(** [latency_json spec] serializes a latency redraw spec as a JSON
    object keyed by ["kind"]; {!latency_of_json} inverts it. *)
val latency_json : Gossip_graph.Gen.latency_spec -> Gossip_util.Json.t

val latency_of_json : Gossip_util.Json.t -> Gossip_graph.Gen.latency_spec option

(** A finished job: the runner's record plus what a sweep adds. *)
type outcome = {
  job : job;
  n_actual : int;  (** realized node count *)
  edges : int;  (** realized undirected edge count *)
  record : Runner.record;  (** rounds, metrics and route of the run *)
  elapsed_s : float;  (** wall-clock build + run time of this job *)
}

(** A job that ultimately failed (after every retry). *)
type failure = {
  failed_job : job;
  message : string;  (** [Printexc.to_string] of the final exception *)
  backtrace : string;  (** captured at the catch site of the final attempt *)
  attempts : int;
}

(** [run_job ?timeout_s ?domains ?on_round job] executes one job in
    the calling domain: it builds the job's graph (and latency redraw,
    from [seed + 7]), picks the source [seed mod n], and runs the job's
    descriptor and scenario through {!Runner.run}, which documents the
    seeds and what each route does with [domains] and [on_round].
    [timeout_s] is a cooperative wall-clock budget, passed on as an
    absolute deadline checked between rounds, so it never perturbs
    trajectories.  Under {!run_ft} a scenario that does not compile (an
    adversary off rr-spanner, say) is a structured failure.
    @raise Gossip_scale.Wheel_engine.Deadline_exceeded over budget. *)
val run_job :
  ?timeout_s:float ->
  ?domains:int ->
  ?on_round:(round:int -> informed:int -> unit) ->
  job ->
  outcome

(** One checkpoint record: a finished job or a recorded failure. *)
type checkpoint_entry = Ckpt_done of outcome | Ckpt_failed of failure

(** [outcome_json o] is the one row of a finished job: [family] (an
    object), [n_requested], the realized [n] and [edges], [seed],
    [protocol], [max_rounds], then {!Runner.record_fields} with
    [elapsed_s] after [dropped].  Sweep [results], [ckpt_job] lines
    (plus ["ev"]), telemetry [job] events (plus ["ev"], ["id"]) and
    gossipd [result] frames all carry it. *)
val outcome_json : outcome -> Gossip_util.Json.t

(** [checkpoint_event e] is the JSONL event ([ckpt_job] / [ckpt_fail])
    {!run_ft} streams for [e], exposed so other runtimes (the serve
    daemon's job journal) persist through the same schema.  A job's
    latency redraw and scenario follow as ["latency"] and ["scenario"]
    when they are set (and only then), since {!run_ft}'s resume keys
    on them.  Extra fields appended by a caller are ignored by
    {!entry_of_json}. *)
val checkpoint_event : checkpoint_entry -> (string * Gossip_util.Json.t) list

(** [entry_of_json j] parses one checkpoint event through the row's
    codec; [None] for foreign or malformed events (a ["latency"] or
    ["scenario"] that does not decode included — never an exception:
    checkpoints must be readable after any crash), and for a
    [ckpt_job] line whose [route] does not match its descriptor's route
    kind, so resume re-runs an older line of a chain or rr-spanner.  A
    line without the spec fields decodes to a job without specs. *)
val entry_of_json : Gossip_util.Json.t -> checkpoint_entry option

(** [seal_checkpoint path] terminates a torn final line (a process
    killed mid-write leaves no trailing newline) so appending cannot
    weld a new record onto the fragment.  A missing file is a no-op. *)
val seal_checkpoint : string -> unit

(** [read_checkpoint path] parses an append-only JSONL checkpoint.
    Torn lines (a process killed mid-write) and foreign events are
    skipped, never fatal. *)
val read_checkpoint : string -> checkpoint_entry list

(** What {!run_ft} hands back: [completed] and [failed] partition the
    submitted jobs (both in submission order, checkpointed entries
    included at their original positions), [skipped] counts jobs
    satisfied from the checkpoint, and [retried] logs every failed
    attempt that was retried as [(job, attempt, error)]. *)
type report = {
  completed : outcome list;
  failed : failure list;
  skipped : int;
  retried : (job * int * string) list;
}

(** [run_ft ?workers ?retries ?timeout_s ?checkpoint ?resume ?inject
    ?telemetry jobs] fans the jobs across a domain pool of [workers]
    (default {!Pool.default_workers}).  Outcomes come back in job order
    and are deterministic per job regardless of [workers] {e and}
    [domains]; every job's outcome comes back structured, so one
    failing job never aborts the campaign.

    - [retries] (default 0): extra attempts per failing job, via
      {!Pool.run_outcomes}.
    - [timeout_s]: cooperative per-job wall-clock budget (see
      {!run_job}); an over-budget job counts as failed.
    - [domains]: per-job engine sharding (see {!run_job}); the worker
      count is budgeted through {!Pool.budget_workers} so workers ×
      domains never oversubscribes the machine.
    - [checkpoint]: stream every outcome to this JSONL file {e as it
      finishes} (one flush per record), as [ckpt_job] / [ckpt_fail]
      events keyed by the job's identity fields as rows write them
      (the family with its parameters, [n_requested], [seed],
      [protocol], [max_rounds]) plus its latency redraw and scenario
      when set.
    - [resume] (default false; requires [checkpoint]): load the
      existing checkpoint, skip recorded jobs, and append new records
      instead of truncating — re-running only unfinished jobs with
      per-job results identical to an uninterrupted run.
    - [inject]: test hook invoked before each attempt of each job; an
      exception it raises is recorded as that attempt's failure
      (failure-injection for the test-suite and CI).
    - [telemetry]: forwarded to {!Pool.run_outcomes}: worker-local
      pool metrics (busy time, job latency histogram, queue depth,
      [pool.retries], [pool.failures]) are merged into it at join.

    @raise Invalid_argument if [resume] is set without [checkpoint]. *)
val run_ft :
  ?workers:int ->
  ?retries:int ->
  ?timeout_s:float ->
  ?domains:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?inject:(job -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  job list ->
  report

(** Aggregate statistics for one [(family, realized n, protocol)]
    group, in first-appearance order. *)
type summary = {
  family : string;
  n : int;  (** {e realized} node count (see {!realized_n}) *)
  protocol : string;
  trials : int;  (** submitted jobs in the group, failures included *)
  completed : int;  (** jobs that finished under the round cap *)
  failed : int;  (** jobs that ultimately failed *)
  rounds : Gossip_util.Stats.summary option;
      (** distribution of completion rounds over completed trials *)
  total_initiations : int;
  total_deliveries : int;
  total_dropped : int;
  mean_elapsed_s : float;
}

(** [summarize ?failures outcomes] groups by [(family, realized n,
    protocol)] — the node count that actually ran, so summary rows
    match the graphs behind them — and folds [failures] into their
    groups' [trials] / [failed] counts. *)
val summarize : ?failures:failure list -> outcome list -> summary list

(** [to_json ?meta ?failures outcomes] is an object with ["meta"],
    ["results"] (one object per job) and ["summaries"] fields, plus an
    ["errors"] field when [failures] is non-empty. *)
val to_json :
  ?meta:(string * Gossip_util.Json.t) list ->
  ?failures:failure list ->
  outcome list ->
  Gossip_util.Json.t

(** [write_json path ?meta ?failures outcomes] serializes to a file. *)
val write_json :
  string ->
  ?meta:(string * Gossip_util.Json.t) list ->
  ?failures:failure list ->
  outcome list ->
  unit

(** [write_telemetry path ?meta ?registry ?failures ?retries outcomes]
    writes the sweep's telemetry as JSONL through {!Gossip_obs.Sink}:
    one ["meta"] event carrying [meta], one ["job"] event per outcome
    ([ev], [id], then the {!outcome_json} row), one ["retry"] event
    per retried attempt and one ["job_error"] event per ultimate
    failure (each [ev], [id], the job's identity as the row writes
    it, then the attempt and error), then — when [registry]
    is given — a registry snapshot and, if the registry carries a
    ring, its trace events.  The file is readable back with
    {!Gossip_obs.Report.of_file}. *)
val write_telemetry :
  string ->
  ?meta:(string * Gossip_util.Json.t) list ->
  ?registry:Gossip_obs.Registry.t ->
  ?failures:failure list ->
  ?retries:(job * int * string) list ->
  outcome list ->
  unit
