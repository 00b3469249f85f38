module Csr = Gossip_scale.Csr
module Rng = Gossip_util.Rng
module Stats = Gossip_util.Stats
module Json = Gossip_util.Json
module Gen = Gossip_graph.Gen
module Engine = Gossip_sim.Engine
module Sink = Gossip_obs.Sink

type family =
  | Ring_of_cliques of { size : int; bridge_latency : int }
  | Braided_ring of { size : int; bridges : int; bridge_latency : int }
  | Barabasi_albert of { attach : int }
  | Watts_strogatz of { k : int; beta : float }

let family_name = function
  | Ring_of_cliques _ -> "ring-of-cliques"
  | Braided_ring _ -> "braided-ring"
  | Barabasi_albert _ -> "barabasi-albert"
  | Watts_strogatz _ -> "watts-strogatz"

(* The node count a family realizes for a requested [n] — computable
   without building the graph, so failed jobs can be grouped with the
   successes of the same realized size. *)
let realized_n family ~n =
  match family with
  | Ring_of_cliques { size; _ } | Braided_ring { size; _ } -> max 3 (n / size) * size
  | Barabasi_albert _ | Watts_strogatz _ -> n

let build family ~n ~seed =
  let rng = Rng.of_int seed in
  match family with
  | Ring_of_cliques { size; bridge_latency } ->
      let cliques = max 3 (n / size) in
      Csr.ring_of_cliques ~cliques ~size ~bridge_latency
  | Braided_ring { size; bridges; bridge_latency } ->
      let cliques = max 3 (n / size) in
      Csr.braided_ring ~cliques ~size ~bridges ~bridge_latency
  | Barabasi_albert { attach } -> Csr.barabasi_albert rng ~n ~attach
  | Watts_strogatz { k; beta } -> Csr.watts_strogatz rng ~n ~k ~beta

type job = {
  family : family;
  n : int;
  seed : int;
  protocol : Runner.protocol;
  latency : Gen.latency_spec option;
  scenario : Gossip_dyn.Scenario.t option;
  max_rounds : int;
}

let make_jobs ~family ~n ~protocol ~trials ~base_seed ~max_rounds ?latency ?scenario () =
  if trials < 1 then invalid_arg "Sweep.make_jobs: need trials >= 1";
  List.init trials (fun i ->
      {
        family;
        n;
        seed = base_seed + (i * 7919);
        protocol;
        latency;
        scenario;
        max_rounds;
      })

type outcome = {
  job : job;
  n_actual : int;
  edges : int;
  record : Runner.record;
  elapsed_s : float;
}

type failure = {
  failed_job : job;
  message : string;
  backtrace : string;
  attempts : int;
}

let run_job ?timeout_s ?domains ?on_round job =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> started +. s) timeout_s in
  let csr = build job.family ~n:job.n ~seed:job.seed in
  let csr =
    match job.latency with
    | None -> csr
    | Some spec -> Csr.with_latencies (Rng.of_int (job.seed + 7)) spec csr
  in
  let n_actual = Csr.n csr in
  let source = job.seed mod n_actual in
  let source = if source < 0 then source + n_actual else source in
  let o =
    Runner.run ?scenario:job.scenario ?domains ?deadline ?on_round csr job.protocol
      ~seed:job.seed ~source ~max_rounds:job.max_rounds
  in
  {
    job;
    n_actual;
    edges = Csr.m csr;
    record = o.Runner.record;
    elapsed_s = Unix.gettimeofday () -. started;
  }

(* When every job shards itself across [domains] engine domains, the
   pool must shrink so workers × domains never oversubscribes the
   machine; with [domains <= 1] the historical worker policy is kept
   byte-for-byte. *)
let budgeted_workers ?workers ?domains () =
  match domains with
  | Some d when d > 1 -> Some (Pool.budget_workers ?workers ~domains_per_job:d ())
  | _ -> workers

(* ------------------------------------------------------------------ *)
(* JSON serialization *)

let family_json f =
  let i k v = (k, Json.Int v) in
  let params =
    match f with
    | Ring_of_cliques { size; bridge_latency } ->
        [ i "size" size; i "bridge_latency" bridge_latency ]
    | Braided_ring { size; bridges; bridge_latency } ->
        [ i "size" size; i "bridges" bridges; i "bridge_latency" bridge_latency ]
    | Barabasi_albert { attach } -> [ i "attach" attach ]
    | Watts_strogatz { k; beta } -> [ i "k" k; ("beta", Json.Float beta) ]
  in
  Json.Obj (("kind", Json.String (family_name f)) :: params)

let latency_json spec =
  let i k v = (k, Json.Int v) and kind k = ("kind", Json.String k) in
  Json.Obj
    (match spec with
    | Gen.Unit -> [ kind "unit" ]
    | Gen.Fixed k -> [ kind "fixed"; i "latency" k ]
    | Gen.Uniform (lo, hi) -> [ kind "uniform"; i "lo" lo; i "hi" hi ]
    | Gen.Bimodal { fast; slow; p_fast } ->
        [ kind "bimodal"; i "fast" fast; i "slow" slow; ("p_fast", Json.Float p_fast) ]
    | Gen.Power_law { min_latency; max_latency; exponent } ->
        [
          kind "powerlaw"; i "min" min_latency; i "max" max_latency;
          ("exponent", Json.Float exponent);
        ])

(* The codecs' decoders: [None] on any missing or malformed field. *)
let decode f = Result.to_option (Json.decode f)

let latency_of_json j =
  let int k = Json.need k (Json.int_field j k) and flt k = Json.need k (Json.float_field j k) in
  decode (fun () ->
      match Json.string_field j "kind" with
      | Some "unit" -> Gen.Unit
      | Some "fixed" -> Gen.Fixed (int "latency")
      | Some "uniform" -> Gen.Uniform (int "lo", int "hi")
      | Some "bimodal" ->
          Gen.Bimodal { fast = int "fast"; slow = int "slow"; p_fast = flt "p_fast" }
      | Some "powerlaw" ->
          Gen.Power_law
            { min_latency = int "min"; max_latency = int "max"; exponent = flt "exponent" }
      | _ -> raise (Json.Missing "kind"))

(* A job's identity, as every row, checkpoint line and event writes it;
   a row adds the realized graph's [n] and [edges] after [n_requested],
   and rows and checkpoint lines add [max_rounds] after it. *)
let job_fields ?(realized = []) j =
  [ ("family", family_json j.family); ("n_requested", Json.Int j.n) ]
  @ realized
  @ [ ("seed", Json.Int j.seed); ("protocol", Json.String (Runner.protocol_name j.protocol)) ]

let cap_field j = ("max_rounds", Json.Int j.max_rounds)

(* The specs that steer a job's run without being part of its row: the
   latency redraw and the scenario.  Checkpoint lines carry them, and
   resume keys on them, only when they are set, so a job without them
   writes and keys as it always has. *)
let spec_fields j =
  Option.to_list (Option.map (fun l -> ("latency", latency_json l)) j.latency)
  @ Option.to_list (Option.map (fun s -> ("scenario", Gossip_dyn.Scenario.to_json s)) j.scenario)

(* What resume keys a job on: its identity, cap and specs as
   checkpoints write them. *)
let job_key j = Json.to_string (Json.Obj (job_fields j @ (cap_field j :: spec_fields j)))

(* The one row of a finished job: sweep results, checkpoint lines,
   telemetry [job] events and gossipd [result] frames all carry it. *)
let row o =
  let wall = [ ("elapsed_s", Json.Float o.elapsed_s) ] in
  job_fields ~realized:[ ("n", Json.Int o.n_actual); ("edges", Json.Int o.edges) ] o.job
  @ (cap_field o.job :: Runner.record_fields ~wall o.record)

let outcome_json o = Json.Obj (row o)

let job_event i o = ("ev", Json.String "job") :: ("id", Json.Int i) :: row o

(* A failed job, as the report's [errors] and [job_error] events write it. *)
let failure_fields (f : failure) =
  job_fields f.failed_job @ [ ("error", Json.String f.message); ("attempts", Json.Int f.attempts) ]

let failure_json i f = ("ev", Json.String "job_error") :: ("id", Json.Int i) :: failure_fields f

let retry_json i (job, attempt, message) =
  (("ev", Json.String "retry") :: ("id", Json.Int i) :: job_fields job)
  @ [ ("attempt", Json.Int attempt); ("error", Json.String message) ]

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

type checkpoint_entry = Ckpt_done of outcome | Ckpt_failed of failure

(* A [ckpt_job] line is the row, so resume rebuilds a byte-identical
   report without re-running the job. *)
let checkpoint_event = function
  | Ckpt_done o -> (("ev", Json.String "ckpt_job") :: row o) @ spec_fields o.job
  | Ckpt_failed f ->
      (("ev", Json.String "ckpt_fail") :: job_fields f.failed_job)
      @ [
          cap_field f.failed_job;
          ("error", Json.String f.message);
          ("backtrace", Json.String f.backtrace);
          ("attempts", Json.Int f.attempts);
        ]
      @ spec_fields f.failed_job

let family_of_json j =
  let int k = Json.need k (Json.int_field j k) in
  decode (fun () ->
      match Json.string_field j "kind" with
      | Some "ring-of-cliques" ->
          Ring_of_cliques { size = int "size"; bridge_latency = int "bridge_latency" }
      | Some "braided-ring" ->
          Braided_ring
            { size = int "size"; bridges = int "bridges"; bridge_latency = int "bridge_latency" }
      | Some "barabasi-albert" -> Barabasi_albert { attach = int "attach" }
      | Some "watts-strogatz" ->
          Watts_strogatz { k = int "k"; beta = Json.need "beta" (Json.float_field j "beta") }
      | _ -> raise (Json.Missing "kind"))

(* A spec field that is present must decode; an absent one is [None],
   which is how lines written before specs were persisted read. *)
let job_of_json j =
  let int k = Json.need k (Json.int_field j k) in
  let spec k dec = Option.map (fun v -> Json.need k (dec v)) (Json.field j k) in
  let scenario v =
    match Gossip_dyn.Scenario.of_json v with
    | s -> Some s
    | exception Gossip_dyn.Scenario.Invalid_scenario _ -> None
  in
  {
    family = Json.need "family" (Option.bind (Json.field j "family") family_of_json);
    n = int "n_requested";
    seed = int "seed";
    protocol =
      Json.need "protocol" (Option.bind (Json.string_field j "protocol") Runner.protocol_of_string);
    latency = spec "latency" latency_of_json;
    scenario = spec "scenario" scenario;
    max_rounds = int "max_rounds";
  }

let entry_of_json j =
  decode (fun () ->
      let job = job_of_json j in
      match Json.string_field j "ev" with
      | Some "ckpt_job" ->
          Ckpt_done
            {
              job;
              n_actual = Json.need "n" (Json.int_field j "n");
              edges = Json.need "edges" (Json.int_field j "edges");
              record = Json.need "record" (Runner.record_of_json job.protocol j);
              elapsed_s = Json.need "elapsed_s" (Json.float_field j "elapsed_s");
            }
      | Some "ckpt_fail" ->
          Ckpt_failed
            {
              failed_job = job;
              message = Option.value ~default:"unknown error" (Json.string_field j "error");
              backtrace = Option.value ~default:"" (Json.string_field j "backtrace");
              attempts = Option.value ~default:1 (Json.int_field j "attempts");
            }
      | _ -> raise (Json.Missing "ev"))

let checkpoint_key = function
  | Ckpt_done o -> job_key o.job
  | Ckpt_failed f -> job_key f.failed_job

(* A torn final line (the process was killed mid-write) or a foreign
   event is skipped, not fatal: the checkpoint must be readable after
   any crash. *)
let read_checkpoint path =
  List.filter_map (fun l -> Option.bind (Result.to_option l) entry_of_json) (Json.read_lines path)

(* A process killed mid-write leaves the checkpoint's last line torn,
   with no trailing newline; appending straight after it would weld the
   first new record onto the torn fragment and corrupt both.  Seal the
   file with a newline before reopening it for append. *)
let seal_checkpoint path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let torn =
      len > 0
      && begin
           seek_in ic (len - 1);
           input_char ic <> '\n'
         end
    in
    close_in ic;
    if torn then begin
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_char oc '\n';
      close_out oc
    end
  end

(* ------------------------------------------------------------------ *)
(* Fault-tolerant runner *)

type report = {
  completed : outcome list;
  failed : failure list;
  skipped : int;
  retried : (job * int * string) list;
}

let failure_of_pool job (pf : Pool.failure) =
  {
    failed_job = job;
    message = Pool.failure_message pf;
    backtrace = Printexc.raw_backtrace_to_string pf.Pool.backtrace;
    attempts = pf.Pool.attempts;
  }

let run_ft ?workers ?(retries = 0) ?timeout_s ?domains ?checkpoint ?(resume = false) ?inject
    ?telemetry jobs =
  if resume && checkpoint = None then
    invalid_arg "Sweep.run_ft: ~resume:true requires a checkpoint path";
  let workers = budgeted_workers ?workers ?domains () in
  let prior = Hashtbl.create 64 in
  (match checkpoint with
  | Some path when resume && Sys.file_exists path ->
      List.iter (fun e -> Hashtbl.replace prior (checkpoint_key e) e) (read_checkpoint path)
  | _ -> ());
  let todo =
    List.filter (fun j -> not (Hashtbl.mem prior (job_key j))) jobs |> Array.of_list
  in
  let sink =
    match checkpoint with
    | None -> None
    | Some path ->
        let append = resume && Sys.file_exists path in
        if append then seal_checkpoint path;
        Some (Sink.jsonl ~append path)
  in
  let run_one job =
    (match inject with None -> () | Some hook -> hook job);
    run_job ?timeout_s ?domains job
  in
  let retried = ref [] in
  let on_retry i ~attempt e =
    retried := (todo.(i), attempt, Printexc.to_string e) :: !retried
  in
  let on_result i r =
    match sink with
    | None -> ()
    | Some sink ->
        (match r with
        | Pool.Ok o -> Sink.event sink (checkpoint_event (Ckpt_done o))
        | Pool.Failed pf ->
            Sink.event sink (checkpoint_event (Ckpt_failed (failure_of_pool todo.(i) pf))));
        (* One flush per job: a killed or OOM'd sweep loses at most the
           record being written, and resume replays only that job. *)
        Sink.flush sink
  in
  let results =
    match Pool.run_outcomes ?workers ~retries ~on_retry ~on_result ?telemetry run_one todo with
    | results ->
        (match sink with Some s -> Sink.close s | None -> ());
        results
    | exception e ->
        (match sink with Some s -> Sink.close s | None -> ());
        raise e
  in
  let completed = ref [] and failed = ref [] and skipped = ref 0 in
  let next = ref 0 in
  List.iter
    (fun j ->
      match Hashtbl.find_opt prior (job_key j) with
      | Some (Ckpt_done o) ->
          incr skipped;
          completed := o :: !completed
      | Some (Ckpt_failed f) ->
          incr skipped;
          failed := f :: !failed
      | None -> (
          let r = results.(!next) in
          incr next;
          match r with
          | Pool.Ok o -> completed := o :: !completed
          | Pool.Failed pf -> failed := failure_of_pool j pf :: !failed))
    jobs;
  {
    completed = List.rev !completed;
    failed = List.rev !failed;
    skipped = !skipped;
    retried = List.rev !retried;
  }

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = {
  family : string;
  n : int;
  protocol : string;
  trials : int;
  completed : int;
  failed : int;
  rounds : Stats.summary option;
  total_initiations : int;
  total_deliveries : int;
  total_dropped : int;
  mean_elapsed_s : float;
}

let summarize ?(failures = []) outcomes =
  (* Group by the node count that actually ran — ring-of-cliques
     rounds the requested n to a clique multiple, and rows must match
     the graphs behind them.  Failures are grouped by the realized
     count their job would have built. *)
  let okey o =
    (family_name o.job.family, o.n_actual, Runner.protocol_name o.job.protocol)
  in
  let fkey (f : failure) =
    ( family_name f.failed_job.family,
      realized_n f.failed_job.family ~n:f.failed_job.n,
      Runner.protocol_name f.failed_job.protocol )
  in
  (* Groups in first-appearance order, outcomes before failures. *)
  let keys =
    List.fold_left
      (fun acc k -> if List.mem k acc then acc else k :: acc)
      [] (List.map okey outcomes @ List.map fkey failures)
  in
  List.rev_map
    (fun ((family, n, protocol) as k) ->
      let members = List.filter (fun o -> okey o = k) outcomes in
      let failed = List.length (List.filter (fun f -> fkey f = k) failures) in
      let finished = List.filter_map (fun (o : outcome) -> o.record.Runner.rounds) members in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 members in
      {
        family;
        n;
        protocol;
        trials = List.length members + failed;
        completed = List.length finished;
        failed;
        rounds =
          (match finished with
          | [] -> None
          | _ ->
              Some
                (Stats.summarize (Array.of_list (List.map float_of_int finished))));
        total_initiations = sum (fun o -> o.record.Runner.metrics.Engine.initiations);
        total_deliveries = sum (fun o -> o.record.Runner.metrics.Engine.deliveries);
        total_dropped = sum (fun o -> o.record.Runner.metrics.Engine.dropped);
        mean_elapsed_s =
          (match members with
          | [] -> 0.0
          | _ ->
              List.fold_left (fun acc o -> acc +. o.elapsed_s) 0.0 members
              /. float_of_int (List.length members));
      })
    keys

let stats_json (s : Stats.summary) =
  Json.Obj
    [
      ("n", Json.Int s.Stats.n);
      ("mean", Json.Float s.Stats.mean);
      ("stddev", Json.Float s.Stats.stddev);
      ("min", Json.Float s.Stats.min);
      ("p25", Json.Float s.Stats.p25);
      ("median", Json.Float s.Stats.median);
      ("p75", Json.Float s.Stats.p75);
      ("p95", Json.Float s.Stats.p95);
      ("max", Json.Float s.Stats.max);
    ]

let summary_json s =
  Json.Obj
    [
      ("family", Json.String s.family);
      ("n", Json.Int s.n);
      ("protocol", Json.String s.protocol);
      ("trials", Json.Int s.trials);
      ("completed", Json.Int s.completed);
      ("failed", Json.Int s.failed);
      ("rounds", match s.rounds with Some st -> stats_json st | None -> Json.Null);
      ("total_initiations", Json.Int s.total_initiations);
      ("total_deliveries", Json.Int s.total_deliveries);
      ("total_dropped", Json.Int s.total_dropped);
      ("mean_elapsed_s", Json.Float s.mean_elapsed_s);
    ]

let to_json ?(meta = []) ?(failures = []) outcomes =
  Json.Obj
    ([
       ("meta", Json.Obj meta);
       ("results", Json.List (List.map outcome_json outcomes));
       ("summaries", Json.List (List.map summary_json (summarize ~failures outcomes)));
     ]
    @
    if failures = [] then []
    else [ ("errors", Json.List (List.map (fun f -> Json.Obj (failure_fields f)) failures)) ])

let write_json path ?meta ?failures outcomes = Json.write path (to_json ?meta ?failures outcomes)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let write_telemetry path ?(meta = []) ?registry ?(failures = []) ?(retries = []) outcomes =
  Sink.with_jsonl path (fun sink ->
      Sink.event sink (("ev", Json.String "meta") :: meta);
      List.iteri (fun i o -> Sink.event sink (job_event i o)) outcomes;
      List.iteri (fun i r -> Sink.event sink (retry_json i r)) retries;
      List.iteri (fun i f -> Sink.event sink (failure_json i f)) failures;
      match registry with
      | None -> ()
      | Some reg -> (
          Sink.registry sink reg;
          match Gossip_obs.Registry.ring reg with None -> () | Some r -> Sink.ring sink r))
