module Csr = Gossip_scale.Csr
module Wheel_engine = Gossip_scale.Wheel_engine
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

type job_key = string * int * int * string

let job_key j = (family_name j.family, j.n, j.seed, Runner.protocol_name j.protocol)

type outcome = {
  job : job;
  n_actual : int;
  edges : int;
  rounds : int option;
  metrics : Wheel_engine.metrics;
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
    rounds = o.Runner.result.Wheel_engine.rounds;
    metrics = o.Runner.result.Wheel_engine.metrics;
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

let family_json = function
  | Ring_of_cliques { size; bridge_latency } ->
      Json.Obj
        [
          ("kind", Json.String "ring-of-cliques");
          ("size", Json.Int size);
          ("bridge_latency", Json.Int bridge_latency);
        ]
  | Braided_ring { size; bridges; bridge_latency } ->
      Json.Obj
        [
          ("kind", Json.String "braided-ring");
          ("size", Json.Int size);
          ("bridges", Json.Int bridges);
          ("bridge_latency", Json.Int bridge_latency);
        ]
  | Barabasi_albert { attach } ->
      Json.Obj [ ("kind", Json.String "barabasi-albert"); ("attach", Json.Int attach) ]
  | Watts_strogatz { k; beta } ->
      Json.Obj
        [ ("kind", Json.String "watts-strogatz"); ("k", Json.Int k); ("beta", Json.Float beta) ]

let latency_json = function
  | Gen.Unit -> Json.Obj [ ("kind", Json.String "unit") ]
  | Gen.Fixed k -> Json.Obj [ ("kind", Json.String "fixed"); ("latency", Json.Int k) ]
  | Gen.Uniform (lo, hi) ->
      Json.Obj [ ("kind", Json.String "uniform"); ("lo", Json.Int lo); ("hi", Json.Int hi) ]
  | Gen.Bimodal { fast; slow; p_fast } ->
      Json.Obj
        [
          ("kind", Json.String "bimodal");
          ("fast", Json.Int fast);
          ("slow", Json.Int slow);
          ("p_fast", Json.Float p_fast);
        ]
  | Gen.Power_law { min_latency; max_latency; exponent } ->
      Json.Obj
        [
          ("kind", Json.String "powerlaw");
          ("min", Json.Int min_latency);
          ("max", Json.Int max_latency);
          ("exponent", Json.Float exponent);
        ]

let latency_of_json j =
  let field name = match j with Json.Obj fs -> List.assoc_opt name fs | _ -> None in
  let int name = match field name with Some (Json.Int i) -> Some i | _ -> None in
  let flt name =
    match field name with
    | Some (Json.Float x) -> Some x
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match field "kind" with
  | Some (Json.String "unit") -> Some Gen.Unit
  | Some (Json.String "fixed") -> Option.map (fun k -> Gen.Fixed k) (int "latency")
  | Some (Json.String "uniform") -> (
      match (int "lo", int "hi") with
      | Some lo, Some hi -> Some (Gen.Uniform (lo, hi))
      | _ -> None)
  | Some (Json.String "bimodal") -> (
      match (int "fast", int "slow", flt "p_fast") with
      | Some fast, Some slow, Some p_fast -> Some (Gen.Bimodal { fast; slow; p_fast })
      | _ -> None)
  | Some (Json.String "powerlaw") -> (
      match (int "min", int "max", flt "exponent") with
      | Some min_latency, Some max_latency, Some exponent ->
          Some (Gen.Power_law { min_latency; max_latency; exponent })
      | _ -> None)
  | _ -> None

let outcome_json o =
  Json.Obj
    [
      ("family", family_json o.job.family);
      ("n_requested", Json.Int o.job.n);
      ("n", Json.Int o.n_actual);
      ("edges", Json.Int o.edges);
      ("seed", Json.Int o.job.seed);
      ("protocol", Json.String (Runner.protocol_name o.job.protocol));
      ("max_rounds", Json.Int o.job.max_rounds);
      ("rounds", match o.rounds with Some r -> Json.Int r | None -> Json.Null);
      ("initiations", Json.Int o.metrics.Engine.initiations);
      ("deliveries", Json.Int o.metrics.Engine.deliveries);
      ("payload_words", Json.Int o.metrics.Engine.payload_words);
      ("dropped", Json.Int o.metrics.Engine.dropped);
      ("elapsed_s", Json.Float o.elapsed_s);
    ]

let failure_json i (f : failure) =
  [
    ("ev", Json.String "job_error");
    ("id", Json.Int i);
    ("family", Json.String (family_name f.failed_job.family));
    ("n", Json.Int f.failed_job.n);
    ("seed", Json.Int f.failed_job.seed);
    ("protocol", Json.String (Runner.protocol_name f.failed_job.protocol));
    ("error", Json.String f.message);
    ("attempts", Json.Int f.attempts);
  ]

let retry_json i (job, attempt, message) =
  [
    ("ev", Json.String "retry");
    ("id", Json.Int i);
    ("family", Json.String (family_name job.family));
    ("n", Json.Int job.n);
    ("seed", Json.Int job.seed);
    ("protocol", Json.String (Runner.protocol_name job.protocol));
    ("attempt", Json.Int attempt);
    ("error", Json.String message);
  ]

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

type checkpoint_entry = Ckpt_done of outcome | Ckpt_failed of failure

(* A [ckpt_job] line is the outcome's JSON plus the metric fields the
   public result format omits, so resume can rebuild a byte-identical
   report without re-running the job. *)
let ckpt_job_event o =
  let fields = match outcome_json o with Json.Obj fs -> fs | _ -> assert false in
  (("ev", Json.String "ckpt_job") :: fields)
  @ [
      ("rounds_executed", Json.Int o.metrics.Engine.rounds);
      ("rejected", Json.Int o.metrics.Engine.rejected);
    ]

let ckpt_fail_event (f : failure) =
  [
    ("ev", Json.String "ckpt_fail");
    ("family", family_json f.failed_job.family);
    ("n_requested", Json.Int f.failed_job.n);
    ("seed", Json.Int f.failed_job.seed);
    ("protocol", Json.String (Runner.protocol_name f.failed_job.protocol));
    ("max_rounds", Json.Int f.failed_job.max_rounds);
    ("error", Json.String f.message);
    ("backtrace", Json.String f.backtrace);
    ("attempts", Json.Int f.attempts);
  ]

let family_of_json j =
  let field name = match j with Json.Obj fs -> List.assoc_opt name fs | _ -> None in
  let int name = match field name with Some (Json.Int i) -> Some i | _ -> None in
  let flt name =
    match field name with
    | Some (Json.Float x) -> Some x
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match field "kind" with
  | Some (Json.String "ring-of-cliques") -> (
      match (int "size", int "bridge_latency") with
      | Some size, Some bridge_latency -> Some (Ring_of_cliques { size; bridge_latency })
      | _ -> None)
  | Some (Json.String "braided-ring") -> (
      match (int "size", int "bridges", int "bridge_latency") with
      | Some size, Some bridges, Some bridge_latency ->
          Some (Braided_ring { size; bridges; bridge_latency })
      | _ -> None)
  | Some (Json.String "barabasi-albert") -> (
      match int "attach" with
      | Some attach -> Some (Barabasi_albert { attach })
      | None -> None)
  | Some (Json.String "watts-strogatz") -> (
      match (int "k", flt "beta") with
      | Some k, Some beta -> Some (Watts_strogatz { k; beta })
      | _ -> None)
  | _ -> None

let entry_of_json j =
  let field name = match j with Json.Obj fs -> List.assoc_opt name fs | _ -> None in
  let int name = match field name with Some (Json.Int i) -> Some i | _ -> None in
  let str name = match field name with Some (Json.String s) -> Some s | _ -> None in
  let flt name =
    match field name with
    | Some (Json.Float x) -> Some x
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let parse_job () =
    match (field "family", int "n_requested", int "seed", str "protocol", int "max_rounds") with
    | Some fj, Some n, Some seed, Some pname, Some max_rounds -> (
        match (family_of_json fj, Runner.protocol_of_string pname) with
        | Some family, Some protocol ->
            (* The latency redraw and scenario specs only steer
               execution; every reported field is checkpointed, so they
               are not persisted. *)
            Some { family; n; seed; protocol; latency = None; scenario = None; max_rounds }
        | _ -> None)
    | _ -> None
  in
  match str "ev" with
  | Some "ckpt_job" -> (
      match (parse_job (), int "n", int "edges") with
      | Some job, Some n_actual, Some edges ->
          let g name = Option.value ~default:0 (int name) in
          Some
            (Ckpt_done
               {
                 job;
                 n_actual;
                 edges;
                 rounds = int "rounds";
                 metrics =
                   {
                     Engine.rounds = g "rounds_executed";
                     initiations = g "initiations";
                     deliveries = g "deliveries";
                     payload_words = g "payload_words";
                     rejected = g "rejected";
                     dropped = g "dropped";
                   };
                 elapsed_s = Option.value ~default:0.0 (flt "elapsed_s");
               })
      | _ -> None)
  | Some "ckpt_fail" -> (
      match parse_job () with
      | Some job ->
          Some
            (Ckpt_failed
               {
                 failed_job = job;
                 message = Option.value ~default:"unknown error" (str "error");
                 backtrace = Option.value ~default:"" (str "backtrace");
                 attempts = Option.value ~default:1 (int "attempts");
               })
      | None -> None)
  | _ -> None

let checkpoint_key = function
  | Ckpt_done o -> job_key o.job
  | Ckpt_failed f -> job_key f.failed_job

let checkpoint_event = function
  | Ckpt_done o -> ckpt_job_event o
  | Ckpt_failed f -> ckpt_fail_event f

let read_checkpoint path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         (* A torn final line (the process was killed mid-write) or a
            foreign event is skipped, not fatal: the checkpoint must be
            readable after any crash. *)
         match Json.of_string line with
         | Error _ -> ()
         | Ok j -> (
             match entry_of_json j with
             | Some e -> entries := e :: !entries
             | None -> ())
     done
   with
  | End_of_file -> close_in ic
  | e ->
      close_in ic;
      raise e);
  List.rev !entries

let resume path jobs =
  if not (Sys.file_exists path) then jobs
  else begin
    let recorded = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace recorded (checkpoint_key e) ()) (read_checkpoint path);
    List.filter (fun j -> not (Hashtbl.mem recorded (job_key j))) jobs
  end

(* A process killed mid-write leaves the checkpoint's last line torn,
   with no trailing newline; appending straight after it would weld the
   first new record onto the torn fragment and corrupt both.  Seal the
   file with a newline before reopening it for append. *)
let seal_torn_line path =
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

let seal_checkpoint = seal_torn_line

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
        if append then seal_torn_line path;
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
        | Pool.Ok o -> Sink.event sink (ckpt_job_event o)
        | Pool.Failed pf -> Sink.event sink (ckpt_fail_event (failure_of_pool todo.(i) pf)));
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
  let order = ref [] in
  let groups = Hashtbl.create 16 in
  let fail_counts = Hashtbl.create 16 in
  let touch k =
    if not (Hashtbl.mem groups k || Hashtbl.mem fail_counts k) then order := k :: !order
  in
  List.iter
    (fun o ->
      let k = okey o in
      touch k;
      Hashtbl.replace groups k (o :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    outcomes;
  List.iter
    (fun f ->
      let k = fkey f in
      touch k;
      Hashtbl.replace fail_counts k (1 + Option.value ~default:0 (Hashtbl.find_opt fail_counts k)))
    failures;
  List.rev_map
    (fun ((family, n, protocol) as k) ->
      let members = List.rev (Option.value ~default:[] (Hashtbl.find_opt groups k)) in
      let failed = Option.value ~default:0 (Hashtbl.find_opt fail_counts k) in
      let finished = List.filter_map (fun (o : outcome) -> o.rounds) members in
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
        total_initiations = sum (fun o -> o.metrics.Engine.initiations);
        total_deliveries = sum (fun o -> o.metrics.Engine.deliveries);
        total_dropped = sum (fun o -> o.metrics.Engine.dropped);
        mean_elapsed_s =
          (match members with
          | [] -> 0.0
          | _ ->
              List.fold_left (fun acc o -> acc +. o.elapsed_s) 0.0 members
              /. float_of_int (List.length members));
      })
    !order

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

let error_json (f : failure) =
  Json.Obj
    [
      ("family", family_json f.failed_job.family);
      ("n_requested", Json.Int f.failed_job.n);
      ("seed", Json.Int f.failed_job.seed);
      ("protocol", Json.String (Runner.protocol_name f.failed_job.protocol));
      ("error", Json.String f.message);
      ("attempts", Json.Int f.attempts);
    ]

let to_json ?(meta = []) ?(failures = []) outcomes =
  Json.Obj
    ([
       ("meta", Json.Obj meta);
       ("results", Json.List (List.map outcome_json outcomes));
       ("summaries", Json.List (List.map summary_json (summarize ~failures outcomes)));
     ]
    @ if failures = [] then [] else [ ("errors", Json.List (List.map error_json failures)) ])

let write_json path ?meta ?failures outcomes = Json.write path (to_json ?meta ?failures outcomes)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let job_event i o =
  [
    ("ev", Json.String "job");
    ("id", Json.Int i);
    ("family", Json.String (family_name o.job.family));
    ("n", Json.Int o.n_actual);
    ("edges", Json.Int o.edges);
    ("seed", Json.Int o.job.seed);
    ("protocol", Json.String (Runner.protocol_name o.job.protocol));
    ("max_rounds", Json.Int o.job.max_rounds);
    ("rounds", (match o.rounds with Some r -> Json.Int r | None -> Json.Null));
    ("initiations", Json.Int o.metrics.Engine.initiations);
    ("deliveries", Json.Int o.metrics.Engine.deliveries);
    ("dropped", Json.Int o.metrics.Engine.dropped);
    ("elapsed_s", Json.Float o.elapsed_s);
  ]

let write_telemetry path ?(meta = []) ?registry ?(failures = []) ?(retries = []) outcomes =
  Gossip_obs.Sink.with_jsonl path (fun sink ->
      Gossip_obs.Sink.event sink (("ev", Json.String "meta") :: meta);
      List.iteri (fun i o -> Gossip_obs.Sink.event sink (job_event i o)) outcomes;
      List.iteri (fun i r -> Gossip_obs.Sink.event sink (retry_json i r)) retries;
      List.iteri (fun i f -> Gossip_obs.Sink.event sink (failure_json i f)) failures;
      match registry with
      | None -> ()
      | Some reg ->
          Gossip_obs.Sink.registry sink reg;
          (match Gossip_obs.Registry.ring reg with
          | None -> ()
          | Some r -> Gossip_obs.Sink.ring sink r))
