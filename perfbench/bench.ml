(* Workload runner for the repository benchmark (driven by run.py).

   Two workloads exercise the public calls of Csr, Spanner, Scenario,
   Kernel, Wheel_engine and the Eid chain driver, each on one domain;
   the RR workload's call also runs sharded over two domains (Shard
   underneath) for the per-layer ledger.  Seeds follow the bench
   convention: graph [seed], latencies [seed + 7], engine [seed + 17],
   spanner [seed + 29]; the scenario (churn sampling) uses [seed].

   Subcommands, each printing one JSON object on stdout:

   - [setup W SEED SCALE SECONDS]: rebuild the inputs of W repeatedly
     for about SECONDS and report per-build wall times.  Builds are
     timed in batches of at least 0.2 s, so a millisecond build is never
     a single reading.
   - [run W SEED SCALE SECONDS]: one build and one untraced simulation
     call, repeated in the process for about SECONDS.  Reports every
     call's run_s, the first call's exact counts, output checks and GC
     deltas, how many repetitions reproduced them, and the peak
     resident set after the first call.
   - [trace W SEED SCALE SPANS]: the same build and call with a
     Gossip_obs.Span around every set-up call and the simulation, the
     engine's telemetry registry attached, and one child span per round
     from [?on_round].  Spans are written once, as JSONL, to SPANS.
   - [shard W SEED SCALE DOMAINS]: one build and the same simulation call
     sharded over DOMAINS domains with a telemetry registry attached.
     Reports run_s, the cross-shard traffic counters and the outcome,
     which must match the one-domain run exactly.
   - [check-jsonl FILE]: parse every line of FILE with Gossip_util.Json.

   SCALE is [full] (the benchmark) or [toy] (the self-test). *)

open Gossip_scale
module Rng = Gossip_util.Rng
module Json = Gossip_util.Json
module Registry = Gossip_obs.Registry
module Span = Gossip_obs.Span
module Sink = Gossip_obs.Sink
module Wheel = Wheel_engine
module Scenario = Gossip_dyn.Scenario
module Spanner = Gossip_core.Spanner
module Eid = Gossip_core.Eid

let ceil_log2 x =
  let rec go k p = if p >= x then k else go (k + 1) (p * 2) in
  go 0 1

(* {1 Set-up calls}

   [call tracer name f] is how every set-up call is made: untraced it is [f ()];
   traced it records a span named after the layer it enters. *)

type span = {
  sp_id : int;
  sp_parent : int;  (** 0 = none *)
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_gc : (string * Json.t) list;  (** Span.report fields *)
}

type tracer = { mutable spans : span list; mutable next_id : int; mutable stack : int list }

let new_tracer () = { spans = []; next_id = 1; stack = [] }

let call tracer name f =
  match tracer with
  | None -> f ()
  | Some tr ->
      let id = tr.next_id in
      tr.next_id <- id + 1;
      let parent = match tr.stack with p :: _ -> p | [] -> 0 in
      tr.stack <- id :: tr.stack;
      let start = Unix.gettimeofday () in
      let y, r = Span.timed name f in
      tr.stack <- List.tl tr.stack;
      tr.spans <-
        {
          sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_start = start;
          sp_end = start +. r.Span.elapsed_s;
          sp_gc = Span.report_json r;
        }
        :: tr.spans;
      y

(* {1 Workloads} *)

type outcome = {
  rounds : int option;  (** [None]: the round cap was hit *)
  metrics : Wheel.metrics;
  informed : Bytes.t;
  msg_words : int;
  eid : (string * int) list;  (** the Eid chain's phase record; [] for single runs *)
}

(* What a built workload hands the simulation call: everything the
   program needs, already generated from the seed.  The call runs on one
   domain unless given [~domains]. *)
type prepared = {
  csr : Csr.t;
  spanner : (int * int) option;  (** edges, max out-degree *)
  simulate :
    ?domains:int ->
    ?on_round:(round:int -> informed:int -> unit) ->
    ?telemetry:Registry.t ->
    unit ->
    outcome;
}

let of_wheel_result (r : Wheel.result) ~msg_words =
  { rounds = r.Wheel.rounds; metrics = r.Wheel.metrics; informed = r.Wheel.informed; msg_words; eid = [] }

let latencies seed csr =
  Csr.with_latencies (Rng.of_int (seed + 7)) (Gossip_graph.Gen.Uniform (1, 8)) csr

(* RR Broadcast over a Baswana-Sen orientation of a braided ring, under
   bridge-latency drift plus random churn with amnesia, on one domain. *)
let rr_braid_churn ~toy seed tr =
  let cliques = if toy then 24 else 625 in
  let csr =
    call tr "csr.generate" (fun () ->
        Csr.braided_ring ~cliques ~size:16 ~bridges:4 ~bridge_latency:8)
  in
  let n = Csr.n csr in
  let k_sp = ceil_log2 n in
  let graph = call tr "csr.to_graph" (fun () -> Csr.to_graph csr) in
  let sp = call tr "spanner.build" (fun () -> Spanner.build (Rng.of_int (seed + 29)) graph ~k:k_sp ()) in
  (* Lemma 15's out-degree bound, as bench e16 asserts it. *)
  let out_bound =
    int_of_float (ceil (8.0 *. (float_of_int n ** (1.0 /. float_of_int k_sp)) *. log (float_of_int n)))
  in
  let oriented =
    call tr "spanner.pack" (fun () ->
        Csr.of_oriented_spanner ~out_degree_bound:out_bound sp.Spanner.out_edges)
  in
  let scen =
    {
      Scenario.static with
      Scenario.name = "braid-churn";
      seed;
      rules = [ { Scenario.schedule = Scenario.Linear { rate = 0.25; cap = 4.0 }; filter = Scenario.Lat_ge 8 } ];
      churn = [ Scenario.Random_churn { fraction = 0.05; leave = 10; down = 50; period = 400 } ];
    }
  in
  let compiled = call tr "scenario.compile" (fun () -> Scenario.compile scen ~csr ~source:0) in
  let kernel =
    call tr "kernel.create" (fun () ->
        Kernel.rr_broadcast ~k:(Csr.oriented_max_latency oriented) oriented)
  in
  let simulate ?domains ?on_round ?telemetry () =
    Wheel.broadcast_kernel ~env:compiled.Scenario.env ~wheel_latency:compiled.Scenario.wheel_latency
      ?domains ?on_round ?telemetry (Rng.of_int (seed + 17)) csr ~kernel ~source:0 ~max_rounds:200_000
    |> of_wheel_result ~msg_words:kernel.Kernel.msg_words
  in
  { csr; spanner = Some (Spanner.edge_count sp, Spanner.max_out_degree sp); simulate }

let watts_strogatz seed tr ~n =
  let csr =
    call tr "csr.generate" (fun () -> Csr.watts_strogatz (Rng.of_int seed) ~n ~k:4 ~beta:0.1)
  in
  call tr "csr.latency" (fun () -> latencies seed csr)

(* Theorem 20's unknown-latency chain by itself: discovery, the T(k)
   schedule, a spanner on the discovered graph, RR and the termination
   check, guess-and-double.  The chain takes no [?on_round]. *)
let ueid_ws ~toy seed tr =
  let csr = watts_strogatz seed tr ~n:(if toy then 300 else 2_000) in
  let simulate ?domains ?on_round:_ ?telemetry () =
    let r = Eid.run_unknown_scale ?domains ?telemetry (Rng.of_int (seed + 17)) csr ~source:0 () in
    let sum f = List.fold_left (fun acc a -> acc + f a) 0 r.Eid.u_attempts in
    {
      rounds = (if r.Eid.u_success then Some r.Eid.u_rounds else None);
      metrics = r.Eid.u_metrics;
      informed = r.Eid.u_informed;
      (* every kernel of the chain sends one-word messages *)
      msg_words = 1;
      eid =
        [
          ("attempts", List.length r.Eid.u_attempts);
          ("k_final", r.Eid.u_k_final);
          ("discovery_rounds", sum (fun a -> a.Eid.ua_discovery_rounds));
          ("schedule_rounds", sum (fun a -> a.Eid.ua_schedule_rounds));
          ("rr_rounds", sum (fun a -> a.Eid.ua_rr_rounds));
          ("check_rounds", sum (fun a -> a.Eid.ua_check_rounds));
        ];
    }
  in
  { csr; spanner = None; simulate }

let workloads =
  [ ("rr-braid-churn", rr_braid_churn); ("ueid-ws", ueid_ws) ]

let workload name =
  match List.assoc_opt name workloads with
  | Some w -> w
  | None -> failwith (Printf.sprintf "unknown workload %S" name)

(* {1 Measurements} *)

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Digest of the final completion set, one '0'/'1' per node, so the
   recorded value does not depend on how the store encodes a mark. *)
let informed_digest informed =
  Digest.to_hex (Digest.bytes (Bytes.map (fun c -> if c <> '\000' then '1' else '0') informed))

let print_obj fields = print_endline (Json.to_string (Json.Obj fields))

let setup name seed ~toy ~seconds =
  let build = workload name ~toy seed in
  let once () = ignore (Sys.opaque_identity (build None)) in
  (* Calibrate the batch so each timed sample spans at least 0.2 s. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  once ();
  let first = Unix.gettimeofday () -. t0 in
  let batch = max 1 (int_of_float (ceil (0.2 /. Float.max first 1e-6))) in
  let deadline = t0 +. seconds in
  let samples = ref [] in
  while List.length !samples < 3 || (Unix.gettimeofday () < deadline && List.length !samples < 200) do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      once ()
    done;
    samples := ((Unix.gettimeofday () -. t0) /. float_of_int batch) :: !samples
  done;
  print_obj
    [
      ("first_s", Json.Float first);
      ("batch", Json.Int batch);
      ("samples", Json.List (List.rev_map (fun s -> Json.Float s) !samples));
    ]

let outcome_fields p o =
  let m = o.metrics in
  let n = Csr.n p.csr in
  let completed_nodes = Bytes.fold_left (fun acc c -> if c <> '\000' then acc + 1 else acc) 0 o.informed in
  let checks =
    [
      ("all_completed", o.rounds <> None && completed_nodes = n);
      ("payload_words", m.Gossip_sim.Engine.payload_words = o.msg_words * m.Gossip_sim.Engine.deliveries);
    ]
  in
  [
    ("n", Json.Int n);
    ("rounds", Json.Int (Option.value o.rounds ~default:m.Gossip_sim.Engine.rounds));
    ("deliveries", Json.Int m.Gossip_sim.Engine.deliveries);
    ("initiations", Json.Int m.Gossip_sim.Engine.initiations);
    ("dropped", Json.Int m.Gossip_sim.Engine.dropped);
    ("payload_words", Json.Int m.Gossip_sim.Engine.payload_words);
    ("msg_words", Json.Int o.msg_words);
    ("informed_digest", Json.String (informed_digest o.informed));
    ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) checks));
    ("ok", Json.Bool (List.for_all snd checks));
  ]

(* The simulation call, bracketed by the GC counters of the
   orchestrating domain.  Set-up garbage is collected first so the call
   is charged only for its own work; [on_start] fires right before it. *)
let simulate ?tr ?(on_start = ignore) ?domains ?on_round ?telemetry p =
  Gc.full_major ();
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Unix.gettimeofday () in
  let o =
    call tr "simulate" (fun () ->
        on_start ();
        p.simulate ?domains ?on_round ?telemetry ())
  in
  let run_s = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. minor0 and major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  (o, run_s, minor, major)

let eid_fields o =
  if o.eid = [] then [] else [ ("eid", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.eid)) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* One build and simulation call, then further builds and calls of the
   same seed in this process while the next one is expected to end
   within [seconds].  Only the calls are timed.  A repetition passes when
   its output checks hold and it reproduces the first call's outputs
   exactly; the peak resident set is read after the first call, so it is
   that of one build plus one run. *)
let run name seed ~toy ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let once () =
    let t0 = Unix.gettimeofday () in
    let p = workload name ~toy seed None in
    let o, run_s, minor, major = simulate p in
    (outcome_fields p o @ eid_fields o, run_s, minor, major, Unix.gettimeofday () -. t0)
  in
  let fields, run_s, minor, major, rep_s = once () in
  let rss = peak_rss_kb () in
  let passed f = f = fields && List.assoc "ok" f = Json.Bool true in
  let samples = ref [ run_s ] and reps = ref [ rep_s ] and reps_ok = ref (Bool.to_int (passed fields)) in
  while Unix.gettimeofday () +. median !reps < deadline do
    let fields', run_s', _, _, rep_s' = once () in
    if passed fields' then incr reps_ok;
    samples := run_s' :: !samples;
    reps := rep_s' :: !reps
  done;
  print_obj
    (("run_s", Json.Float run_s)
     :: ("samples", Json.List (List.rev_map (fun s -> Json.Float s) !samples))
     :: ("reps", Json.Int (List.length !samples))
     :: ("reps_ok", Json.Int !reps_ok)
     :: ("minor_words", Json.Float minor)
     :: ("major_collections", Json.Int major)
     :: ("peak_rss_kb", Json.Int rss)
     :: ("recommended_domains", Json.Int (Domain.recommended_domain_count ()))
     :: ("ocaml", Json.String Sys.ocaml_version)
     :: fields)

(* {1 Traced run} *)

let trace name seed ~toy ~spans_path =
  let tr = new_tracer () in
  let root = Unix.gettimeofday () in
  let p = call (Some tr) "setup" (fun () -> workload name ~toy seed (Some tr)) in
  let reg = Registry.create () in
  (* One slot per round up to the largest round cap, preallocated: the
     hook only stores a time. *)
  let stamps = Array.make 200_000 0.0 in
  let nstamps = ref 0 in
  let on_round ~round:_ ~informed:_ =
    if !nstamps < Array.length stamps then begin
      stamps.(!nstamps) <- Unix.gettimeofday ();
      incr nstamps
    end
  in
  let sim_id = tr.next_id in
  let sim_start = ref 0.0 in
  let o, run_s, _, _ =
    simulate ~tr ~on_start:(fun () -> sim_start := Unix.gettimeofday ()) ~on_round ~telemetry:reg p
  in
  let round_start i = if i = 0 then !sim_start else stamps.(i - 1) in
  let round_ms = Array.init !nstamps (fun i -> (stamps.(i) -. round_start i) *. 1000.0) in
  let trace_id = Printf.sprintf "%s-%d-%.6f" name seed root in
  let all_spans = List.sort (fun a b -> compare a.sp_id b.sp_id) tr.spans in
  let self_s s =
    let children = List.filter (fun c -> c.sp_parent = s.sp_id) all_spans in
    let covered = List.fold_left (fun acc c -> acc +. (c.sp_end -. c.sp_start)) 0.0 children in
    let covered =
      if s.sp_id = sim_id then covered +. (Array.fold_left ( +. ) 0.0 round_ms /. 1000.0) else covered
    in
    Float.max 0.0 (s.sp_end -. s.sp_start -. covered)
  in
  Sink.with_jsonl spans_path (fun sink ->
      Sink.event sink
        [
          ("ev", Json.String "meta");
          ("trace_id", Json.String trace_id);
          ("workload", Json.String name);
          ("seed", Json.Int seed);
          ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Json.String Sys.ocaml_version);
        ];
      List.iter
        (fun s ->
          Sink.event sink
            ([
               ("ev", Json.String "span");
               ("trace_id", Json.String trace_id);
               ("id", Json.Int s.sp_id);
               ("parent", Json.Int s.sp_parent);
               ("name", Json.String s.sp_name);
               ("start_s", Json.Float (s.sp_start -. root));
               ("end_s", Json.Float (s.sp_end -. root));
               ("self_s", Json.Float (self_s s));
             ]
            @ List.filter (fun (k, _) -> k <> "ev" && k <> "label") s.sp_gc))
        all_spans;
      Array.iteri
        (fun i ms ->
          Sink.event sink
            [
              ("ev", Json.String "span");
              ("trace_id", Json.String trace_id);
              ("id", Json.Int (tr.next_id + i));
              ("parent", Json.Int sim_id);
              ("name", Json.String "wheel.round");
              ("round", Json.Int i);
              ("start_s", Json.Float (round_start i -. root));
              ("end_s", Json.Float (stamps.(i) -. root));
              ("self_s", Json.Float (ms /. 1000.0));
            ])
        round_ms;
      Sink.registry sink reg);
  let span_s name =
    List.fold_left (fun acc s -> if s.sp_name = name then acc +. (s.sp_end -. s.sp_start) else acc) 0.0 all_spans
  in
  let counter name = Option.value (List.assoc_opt name (Registry.counters reg)) ~default:0 in
  let gauge name = Option.value (List.assoc_opt name (Registry.gauges reg)) ~default:0 in
  (* Per-phase kernel traffic of the Eid chain; other workloads run no chain. *)
  let eid_counter name = if o.eid = [] then 0 else counter name in
  let kernel_sum suffix =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 13 && String.sub k 0 13 = "wheel.kernel." && Filename.check_suffix k suffix
        then acc + v
        else acc)
      0 (Registry.counters reg)
  in
  let spanner_edges, spanner_deg = Option.value p.spanner ~default:(0, 0) in
  let directed = 2 * Csr.m p.csr in
  print_obj
    (("run_s", Json.Float run_s)
     :: ( "layers",
          Json.Obj
            [
              ("csr.generate_s", Json.Float (span_s "csr.generate"));
              ("csr.latency_s", Json.Float (span_s "csr.latency"));
              ("csr.to_graph_s", Json.Float (span_s "csr.to_graph"));
              ("csr.bytes_per_edge", Json.Float (float_of_int (Csr.memory_words p.csr * 8) /. float_of_int directed));
              ("spanner.build_s", Json.Float (span_s "spanner.build"));
              ("spanner.pack_s", Json.Float (span_s "spanner.pack"));
              ("spanner.edges", Json.Int spanner_edges);
              ("spanner.max_out_degree", Json.Int spanner_deg);
              ("scenario.compile_s", Json.Float (span_s "scenario.compile"));
              ("kernel.create_s", Json.Float (span_s "kernel.create"));
              ("kernel.words_on_wire", Json.Int (kernel_sum ".words_on_wire"));
              ("wheel.inflight_max", Json.Int (gauge "wheel.inflight.max"));
              ("eid.discovery.deliveries", Json.Int (eid_counter "wheel.kernel.discovery.deliveries"));
              ("eid.dtg.deliveries", Json.Int (eid_counter "wheel.kernel.dtg.deliveries"));
              ("eid.rr.deliveries", Json.Int (eid_counter "wheel.kernel.rr-spanner.deliveries"));
              ("eid.check.deliveries", Json.Int (eid_counter "wheel.kernel.check.deliveries"));
            ] )
     :: ("round_ms", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) round_ms)))
     :: outcome_fields p o
    @ eid_fields o)

(* {1 Sharded run} *)

let shard name seed ~toy ~domains =
  let p = workload name ~toy seed None in
  let reg = Registry.create () in
  let o, run_s, _, _ = simulate ~domains ~telemetry:reg p in
  let counter name = Option.value (List.assoc_opt name (Registry.counters reg)) ~default:0 in
  print_obj
    (("run_s", Json.Float run_s)
     :: ("domains", Json.Int domains)
     :: ("remote_initiations", Json.Int (counter "wheel.shard.remote.initiations"))
     :: ("remote_responses", Json.Int (counter "wheel.shard.remote.responses"))
     :: outcome_fields p o)

let check_jsonl path =
  let ic = open_in path in
  let rec go lines =
    match input_line ic with
    | line -> (
        match Json.of_string line with
        | Ok _ -> go (lines + 1)
        | Error e -> failwith (Printf.sprintf "%s:%d: %s" path (lines + 1) e))
    | exception End_of_file -> lines
  in
  let lines = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0) in
  print_obj [ ("lines", Json.Int lines) ]

let () =
  let scale s =
    match s with "full" -> false | "toy" -> true | _ -> failwith ("unknown scale " ^ s)
  in
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup"; w; seed; sc; seconds ] ->
      setup w (int_of_string seed) ~toy:(scale sc) ~seconds:(float_of_string seconds)
  | [ "run"; w; seed; sc; seconds ] ->
      run w (int_of_string seed) ~toy:(scale sc) ~seconds:(float_of_string seconds)
  | [ "trace"; w; seed; sc; spans_path ] -> trace w (int_of_string seed) ~toy:(scale sc) ~spans_path
  | [ "shard"; w; seed; sc; domains ] ->
      shard w (int_of_string seed) ~toy:(scale sc) ~domains:(int_of_string domains)
  | [ "check-jsonl"; path ] -> check_jsonl path
  | _ ->
      prerr_endline
        "usage: bench.exe (setup W SEED SCALE SECONDS | run W SEED SCALE SECONDS | trace W SEED SCALE SPANS | \
         shard W SEED SCALE DOMAINS | check-jsonl FILE)";
      exit 2
