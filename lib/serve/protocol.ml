module Json = Gossip_util.Json
module Sweep = Gossip_sweep.Sweep
module Runner = Gossip_sweep.Runner

let version = 1

type spec = {
  family : Sweep.family;
  n : int;
  protocol : Runner.protocol;
  trials : int;
  base_seed : int;
  max_rounds : int;
  latency : Gossip_graph.Gen.latency_spec option;
  scenario : Gossip_dyn.Scenario.t option;
}

let jobs_of_spec s =
  Sweep.make_jobs ~family:s.family ~n:s.n ~protocol:s.protocol ~trials:s.trials
    ~base_seed:s.base_seed ~max_rounds:s.max_rounds ?latency:s.latency
    ?scenario:s.scenario ()

let validate_spec s =
  if s.n < 1 then Error (Printf.sprintf "n must be >= 1 (got %d)" s.n)
  else if s.trials < 1 then Error (Printf.sprintf "trials must be >= 1 (got %d)" s.trials)
  else if s.max_rounds < 1 then
    Error (Printf.sprintf "max_rounds must be >= 1 (got %d)" s.max_rounds)
  else Ok ()

type request =
  | Ping
  | Submit of spec
  | Status of string
  | Watch of string
  | Cancel of string
  | Results of string
  | Stats
  | Shutdown

type job_state = Queued | Running | Done | Failed | Cancelled

let job_state_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let job_state_of_label = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

type status = {
  s_job : string;
  s_state : job_state;
  s_trials : int;
  s_completed : int;
  s_failed : int;
  s_position : int option;
}

type progress = {
  p_job : string;
  p_trial : int;
  p_trials : int;
  p_seed : int;
  p_round : int;
  p_informed : int;
  p_n : int;
}

type error_code = Bad_request | Version_mismatch | Unknown_job | Queue_full | Shutting_down

let error_code_label = function
  | Bad_request -> "bad_request"
  | Version_mismatch -> "version_mismatch"
  | Unknown_job -> "unknown_job"
  | Queue_full -> "queue_full"
  | Shutting_down -> "shutting_down"

let error_code_of_label = function
  | "bad_request" -> Some Bad_request
  | "version_mismatch" -> Some Version_mismatch
  | "unknown_job" -> Some Unknown_job
  | "queue_full" -> Some Queue_full
  | "shutting_down" -> Some Shutting_down
  | _ -> None

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
      rounds : int option;
      ok : bool;
    }
  | Job_done of status
  | Result_row of { job : string; row : Json.t }
  | Results_end of { job : string; count : int }
  | Server_stats of { counters : (string * int) list; gauges : (string * int) list }
  | Cancel_ok of { job : string; state : job_state }
  | Bye
  | Error of { code : error_code; message : string }

(* ------------------------------------------------------------------ *)
(* Spec *)

let spec_to_json s =
  Json.Obj
    ([
       ("family", Sweep.family_json s.family);
       ("n", Json.Int s.n);
       ("protocol", Json.String (Runner.protocol_name s.protocol));
       ("trials", Json.Int s.trials);
       ("base_seed", Json.Int s.base_seed);
       ("max_rounds", Json.Int s.max_rounds);
     ]
    @ (match s.latency with None -> [] | Some l -> [ ("latency", Sweep.latency_json l) ])
    @
    (* The scenario field is optional and absent for static plans, so
       a v1 client that has never heard of scenarios emits and reads
       the exact frames it always did. *)
    match s.scenario with
    | None -> []
    | Some sc -> [ ("scenario", Gossip_dyn.Scenario.to_json sc) ])

let spec_of_json j =
  let need name = function
    | Some v -> Ok v
    | None -> Result.Error (Printf.sprintf "spec: missing or malformed %S" name)
  in
  let ( let* ) = Result.bind in
  let* fj = need "family" (Json.field j "family") in
  let* family = need "family" (Sweep.family_of_json fj) in
  let* n = need "n" (Json.int_field j "n") in
  let* pname = need "protocol" (Json.string_field j "protocol") in
  let* protocol =
    match Runner.protocol_of_string pname with
    | Some p -> Ok p
    | None -> Result.Error (Printf.sprintf "spec: unknown protocol %S" pname)
  in
  let* trials = need "trials" (Json.int_field j "trials") in
  let* base_seed = need "base_seed" (Json.int_field j "base_seed") in
  let* max_rounds = need "max_rounds" (Json.int_field j "max_rounds") in
  let* latency =
    match Json.field j "latency" with
    | None | Some Json.Null -> Ok None
    | Some lj -> (
        match Sweep.latency_of_json lj with
        | Some l -> Ok (Some l)
        | None -> Result.Error "spec: malformed latency")
  in
  let* scenario =
    match Json.field j "scenario" with
    | None | Some Json.Null -> Ok None
    | Some sj -> (
        match Gossip_dyn.Scenario.of_json sj with
        | sc -> Ok (Some sc)
        | exception Gossip_dyn.Scenario.Invalid_scenario msg ->
            Result.Error (Printf.sprintf "spec: %s" msg))
  in
  Ok { family; n; protocol; trials; base_seed; max_rounds; latency; scenario }

(* ------------------------------------------------------------------ *)
(* Requests *)

let request_to_json r =
  let v = ("v", Json.Int version) in
  match r with
  | Ping -> Json.Obj [ v; ("req", Json.String "ping") ]
  | Submit s -> Json.Obj [ v; ("req", Json.String "submit"); ("spec", spec_to_json s) ]
  | Status job -> Json.Obj [ v; ("req", Json.String "status"); ("job", Json.String job) ]
  | Watch job -> Json.Obj [ v; ("req", Json.String "watch"); ("job", Json.String job) ]
  | Cancel job -> Json.Obj [ v; ("req", Json.String "cancel"); ("job", Json.String job) ]
  | Results job -> Json.Obj [ v; ("req", Json.String "results"); ("job", Json.String job) ]
  | Stats -> Json.Obj [ v; ("req", Json.String "stats") ]
  | Shutdown -> Json.Obj [ v; ("req", Json.String "shutdown") ]

let request_of_json j =
  match Json.int_field j "v" with
  | None -> Result.Error (Bad_request, "missing protocol version field \"v\"")
  | Some v when v <> version ->
      Result.Error
        (Version_mismatch, Printf.sprintf "protocol version %d, server speaks %d" v version)
  | Some _ -> (
      let with_job k =
        match Json.string_field j "job" with
        | Some job -> Ok (k job)
        | None -> Result.Error (Bad_request, "missing job id field \"job\"")
      in
      match Json.string_field j "req" with
      | Some "ping" -> Ok Ping
      | Some "submit" -> (
          match Json.field j "spec" with
          | None -> Result.Error (Bad_request, "submit: missing \"spec\"")
          | Some sj -> (
              match spec_of_json sj with
              | Ok s -> Ok (Submit s)
              | Result.Error msg -> Result.Error (Bad_request, msg)))
      | Some "status" -> with_job (fun job -> Status job)
      | Some "watch" -> with_job (fun job -> Watch job)
      | Some "cancel" -> with_job (fun job -> Cancel job)
      | Some "results" -> with_job (fun job -> Results job)
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Result.Error (Bad_request, Printf.sprintf "unknown request %S" other)
      | None -> Result.Error (Bad_request, "missing request field \"req\""))

(* ------------------------------------------------------------------ *)
(* Responses *)

let status_fields st =
  [
    ("job", Json.String st.s_job);
    ("state", Json.String (job_state_label st.s_state));
    ("trials", Json.Int st.s_trials);
    ("completed", Json.Int st.s_completed);
    ("failed", Json.Int st.s_failed);
  ]
  @ match st.s_position with None -> [] | Some p -> [ ("position", Json.Int p) ]

let scalar_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

(* An object of int fields, read under [Json.decode]. *)
let scalar_list j name =
  let malformed () = raise (Json.Missing name) in
  match Json.field j name with
  | Some (Json.Obj fs) -> List.map (function k, Json.Int v -> (k, v) | _ -> malformed ()) fs
  | _ -> malformed ()

let response_to_json r =
  let resp kind fields = Json.Obj (("resp", Json.String kind) :: fields) in
  match r with
  | Pong { proto; server } ->
      resp "pong" [ ("proto", Json.Int proto); ("server", Json.String server) ]
  | Submitted { job; position; trials } ->
      resp "submitted"
        [ ("job", Json.String job); ("position", Json.Int position); ("trials", Json.Int trials) ]
  | Job_status st -> resp "status" (status_fields st)
  | Watching { job } -> resp "watching" [ ("job", Json.String job) ]
  | Progress p ->
      resp "progress"
        [
          ("job", Json.String p.p_job);
          ("trial", Json.Int p.p_trial);
          ("trials", Json.Int p.p_trials);
          ("seed", Json.Int p.p_seed);
          ("round", Json.Int p.p_round);
          ("informed", Json.Int p.p_informed);
          ("n", Json.Int p.p_n);
        ]
  | Trial_done { job; trial; trials; seed; rounds; ok } ->
      resp "trial_done"
        [
          ("job", Json.String job);
          ("trial", Json.Int trial);
          ("trials", Json.Int trials);
          ("seed", Json.Int seed);
          ("rounds", match rounds with Some r -> Json.Int r | None -> Json.Null);
          ("ok", Json.Bool ok);
        ]
  | Job_done st -> resp "job_done" (status_fields st)
  | Result_row { job; row } -> resp "result" [ ("job", Json.String job); ("row", row) ]
  | Results_end { job; count } ->
      resp "results_end" [ ("job", Json.String job); ("count", Json.Int count) ]
  | Server_stats { counters; gauges } ->
      resp "stats" [ ("counters", scalar_obj counters); ("gauges", scalar_obj gauges) ]
  | Cancel_ok { job; state } ->
      resp "cancelled"
        [ ("job", Json.String job); ("state", Json.String (job_state_label state)) ]
  | Bye -> resp "bye" []
  | Error { code; message } ->
      resp "error"
        [ ("code", Json.String (error_code_label code)); ("message", Json.String message) ]

let response_of_json j =
  let str k = Json.need k (Json.string_field j k) and int k = Json.need k (Json.int_field j k) in
  let label k of_label = Json.need k (Option.bind (Json.string_field j k) of_label) in
  let status () =
    {
      s_job = str "job";
      s_state = label "state" job_state_of_label;
      s_trials = int "trials";
      s_completed = int "completed";
      s_failed = int "failed";
      s_position = Json.int_field j "position";
    }
  in
  let decode kind =
    match kind with
    | "pong" -> Pong { proto = int "proto"; server = str "server" }
    | "submitted" -> Submitted { job = str "job"; position = int "position"; trials = int "trials" }
    | "status" -> Job_status (status ())
    | "watching" -> Watching { job = str "job" }
    | "progress" ->
        Progress
          {
            p_job = str "job"; p_trial = int "trial"; p_trials = int "trials"; p_seed = int "seed";
            p_round = int "round"; p_informed = int "informed"; p_n = int "n";
          }
    | "trial_done" ->
        Trial_done
          {
            job = str "job"; trial = int "trial"; trials = int "trials"; seed = int "seed";
            rounds = Json.int_field j "rounds"; ok = Json.need "ok" (Json.bool_field j "ok");
          }
    | "job_done" -> Job_done (status ())
    | "result" -> Result_row { job = str "job"; row = Json.need "row" (Json.field j "row") }
    | "results_end" -> Results_end { job = str "job"; count = int "count" }
    | "stats" ->
        Server_stats { counters = scalar_list j "counters"; gauges = scalar_list j "gauges" }
    | "cancelled" -> Cancel_ok { job = str "job"; state = label "state" job_state_of_label }
    | "bye" -> Bye
    | "error" -> Error { code = label "code" error_code_of_label; message = str "message" }
    | _ -> raise Not_found
  in
  match Json.string_field j "resp" with
  | None -> Result.Error "missing response field \"resp\""
  | Some kind -> (
      match Json.decode (fun () -> decode kind) with
      | Ok r -> Ok r
      | Result.Error name -> Result.Error (Printf.sprintf "response: missing or malformed %S" name)
      | exception Not_found -> Result.Error (Printf.sprintf "unknown response %S" kind))
