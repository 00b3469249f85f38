(** The versioned JSONL wire protocol of the gossip daemon.

    Every frame is one line of compact JSON (see {!Frame}).  Requests
    carry [{"v": 1, "req": "<verb>", ...}]; the daemon answers with
    typed response frames [{"resp": "<kind>", ...}].  One request
    yields one response — except [watch], which acknowledges and then
    streams [progress] / [trial_done] frames until a terminal
    [job_done], and [results], which streams one [result] row per
    finished trial followed by [results_end].  Malformed input never
    kills the connection: the daemon answers a typed [error] frame and
    keeps reading.

    The full schema table (one row per message type) lives in
    DESIGN.md next to the telemetry schema. *)

(** Protocol version spoken by this build; a request carrying any
    other [v] is answered with a [version_mismatch] error. *)
val version : int

(** What a client submits: the same sweep family × protocol × seeded
    trials shape as [gossip-cli sweep], one daemon job per spec. *)
type spec = {
  family : Gossip_sweep.Sweep.family;
  n : int;  (** requested node count *)
  protocol : Gossip_sweep.Runner.protocol;
  trials : int;  (** independent seeded trials *)
  base_seed : int;
  max_rounds : int;
  latency : Gossip_graph.Gen.latency_spec option;
  scenario : Gossip_dyn.Scenario.t option;
      (** optional dynamic-network scenario threaded into every trial
          job; the field is omitted from the wire frame when [None],
          so the protocol stays v1-compatible with static clients *)
}

(** [jobs_of_spec spec] expands the spec into its trial jobs with the
    sweep harness's seed spread — byte-identical to what
    [gossip-cli sweep] would run for the same arguments. *)
val jobs_of_spec : spec -> Gossip_sweep.Sweep.job list

(** [validate_spec spec] rejects non-positive [n] / [trials] /
    [max_rounds] with a clear message before any engine code runs. *)
val validate_spec : spec -> (unit, string) result

type request =
  | Ping
  | Submit of spec
  | Status of string  (** job id *)
  | Watch of string
  | Cancel of string
  | Results of string
  | Stats
  | Shutdown

(** Daemon-job lifecycle.  [Failed] means the job finished with at
    least one trial failing every retry. *)
type job_state = Queued | Running | Done | Failed | Cancelled

val job_state_label : job_state -> string

val job_state_of_label : string -> job_state option

(** A point-in-time job snapshot: [position] is the 0-based queue
    position while [Queued], [None] otherwise. *)
type status = {
  s_job : string;
  s_state : job_state;
  s_trials : int;
  s_completed : int;
  s_failed : int;
  s_position : int option;
}

(** One live progress sample of a running trial, taken by the
    engine's between-round observer.  A watcher gets the newest sample
    of each job at most once per tick of the daemon's socket loop, not
    one per round. *)
type progress = {
  p_job : string;
  p_trial : int;  (** trial index within the spec *)
  p_trials : int;
  p_seed : int;
  p_round : int;
  p_informed : int;
  p_n : int;  (** realized node count of this trial's graph *)
}

type error_code =
  | Bad_request
  | Version_mismatch
  | Unknown_job
  | Queue_full  (** typed backpressure: the bounded queue rejected a submit *)
  | Shutting_down

val error_code_label : error_code -> string

val error_code_of_label : string -> error_code option

type response =
  | Pong of { proto : int; server : string }
  | Submitted of { job : string; position : int; trials : int }
  | Job_status of status
  | Watching of { job : string }
  | Progress of progress
  | Trial_done of {
      job : string;
      trial : int;
      trials : int;
      seed : int;
      rounds : int option;  (** [None] when capped *)
      ok : bool;
    }
  | Job_done of status  (** terminal frame of a [watch] stream *)
  | Result_row of { job : string; row : Gossip_util.Json.t }
  | Results_end of { job : string; count : int }
  | Server_stats of { counters : (string * int) list; gauges : (string * int) list }
  | Cancel_ok of { job : string; state : job_state }
  | Bye  (** acknowledges [shutdown] *)
  | Error of { code : error_code; message : string }

val spec_to_json : spec -> Gossip_util.Json.t

val spec_of_json : Gossip_util.Json.t -> (spec, string) result

val request_to_json : request -> Gossip_util.Json.t

(** [request_of_json j] decodes one request frame; the error side is
    the typed frame the daemon should answer ([Bad_request] for shape
    problems, [Version_mismatch] for a foreign [v]). *)
val request_of_json : Gossip_util.Json.t -> (request, error_code * string) result

val response_to_json : response -> Gossip_util.Json.t

val response_of_json : Gossip_util.Json.t -> (response, string) result
