(* Tests for gossip_obs: Registry (counters/gauges/histograms +
   merge), Ring, Span, Sink, Report, and the ?telemetry plumbing
   through the wheel engine and the sweep. *)

module Registry = Gossip_obs.Registry
module Ring = Gossip_obs.Ring
module Span = Gossip_obs.Span
module Sink = Gossip_obs.Sink
module Report = Gossip_obs.Report
module Json = Gossip_util.Json
module Stats = Gossip_util.Stats
module Rng = Gossip_util.Rng

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

let temp_file suffix =
  let path = Filename.temp_file "gossip_obs_test" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counter_gauge () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  Registry.incr c;
  Registry.add c 4;
  checki "counter" 5 (Registry.counter_value c);
  checkb "same handle" true (Registry.counter r "c" == c);
  let g = Registry.gauge r "g" in
  Registry.set g 3;
  Registry.record_max g 10;
  Registry.record_max g 7;
  checki "gauge high-water" 10 (Registry.gauge_value g)

let test_registry_kind_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  checkb "gauge under counter name raises" true
    (try
       ignore (Registry.gauge r "x");
       false
     with Invalid_argument _ -> true)

let test_registry_hist_exact_small () =
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  List.iter (Registry.observe h) [ 0; 1; 2; 3; -5; 1 ];
  checki "count" 6 (Registry.hist_count h);
  checki "sum" 2 (Registry.hist_sum h);
  checkf "mean exact" (2.0 /. 6.0) (Registry.hist_mean h);
  (* values 0..3 and negatives land in exact buckets *)
  let buckets = Registry.hist_buckets h in
  checkb "bucket (0,0) holds 0 and -5" true (List.mem (0, 0, 2) buckets);
  checkb "bucket (1,1) holds both 1s" true (List.mem (1, 1, 2) buckets)

let test_registry_hist_bucket_bounds () =
  (* every observed value must fall inside its reported bucket, and
     bucket relative width must stay within 25% for v >= 4 *)
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  let values = [ 4; 5; 7; 8; 100; 1023; 1024; 65537; 1_000_000_000 ] in
  List.iter
    (fun v ->
      Registry.observe h v;
      let covered =
        List.exists (fun (lo, hi, _) -> lo <= v && v <= hi) (Registry.hist_buckets h)
      in
      checkb (Printf.sprintf "%d inside some bucket" v) true covered)
    values;
  List.iter
    (fun (lo, hi, _) ->
      if lo >= 4 then
        checkb
          (Printf.sprintf "width of [%d,%d] within 25%%" lo hi)
          true
          (float_of_int (hi - lo) /. float_of_int lo <= 0.25 +. 1e-9))
    (Registry.hist_buckets h)

let test_registry_hist_percentile () =
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  checkb "empty is nan" true (Float.is_nan (Registry.hist_percentile h 50.0));
  for _ = 1 to 100 do
    Registry.observe h 2
  done;
  checkf "all-equal exact bucket" 2.0 (Registry.hist_percentile h 50.0);
  checkb "out of range" true
    (try
       ignore (Registry.hist_percentile h 101.0);
       false
     with Invalid_argument _ -> true)

let test_registry_hist_percentile_accuracy () =
  let r = Registry.create () in
  let h = Registry.histogram r "h" in
  let rng = Rng.of_int 42 in
  let values = Array.init 2000 (fun _ -> 1 + Rng.int rng 100_000) in
  Array.iter (Registry.observe h) values;
  let exact = Stats.percentile (Array.map float_of_int values) in
  List.iter
    (fun p ->
      let approx = Registry.hist_percentile h p in
      let e = exact p in
      checkb
        (Printf.sprintf "p%.0f within bucket error" p)
        true
        (Float.abs (approx -. e) /. e <= 0.30))
    [ 50.0; 90.0; 99.0 ]

let test_registry_merge_semantics () =
  let a = Registry.create () and b = Registry.create () in
  Registry.add (Registry.counter a "c") 3;
  Registry.add (Registry.counter b "c") 4;
  Registry.set (Registry.gauge a "g") 10;
  Registry.set (Registry.gauge b "g") 6;
  Registry.observe (Registry.histogram a "h") 5;
  Registry.observe (Registry.histogram b "h") 5;
  Registry.observe (Registry.histogram b "h") 900;
  Registry.add (Registry.counter b "only_b") 1;
  Registry.merge ~into:a b;
  checki "counters add" 7 (Registry.counter_value (Registry.counter a "c"));
  checki "gauges max" 10 (Registry.gauge_value (Registry.gauge a "g"));
  checki "hist count adds" 3 (Registry.hist_count (Registry.histogram a "h"));
  checki "hist sum adds" 910 (Registry.hist_sum (Registry.histogram a "h"));
  checki "missing metric created" 1 (Registry.counter_value (Registry.counter a "only_b"));
  checkb "src untouched" true (Registry.counter_value (Registry.counter b "c") = 4)

(* Random op scripts over a small fixed name set (kinds fixed per name
   so scripts never clash). *)
let apply_ops r ops =
  List.iter
    (fun (kind, idx, v) ->
      match kind mod 3 with
      | 0 -> Registry.add (Registry.counter r (Printf.sprintf "c%d" idx)) v
      | 1 -> Registry.record_max (Registry.gauge r (Printf.sprintf "g%d" idx)) v
      | _ -> Registry.observe (Registry.histogram r (Printf.sprintf "h%d" idx)) v)
    ops

let ops_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 30)
      (triple (int_range 0 2) (int_range 0 1) (int_range (-50) 10_000)))

let snapshot r = Json.to_string (Registry.to_json r)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    QCheck.(triple ops_gen ops_gen ops_gen)
    (fun (oa, ob, oc) ->
      let make ops =
        let r = Registry.create () in
        apply_ops r ops;
        r
      in
      let left =
        let ab = Registry.create () in
        Registry.merge ~into:ab (make oa);
        Registry.merge ~into:ab (make ob);
        let abc = Registry.create () in
        Registry.merge ~into:abc ab;
        Registry.merge ~into:abc (make oc);
        abc
      in
      let right =
        let bc = Registry.create () in
        Registry.merge ~into:bc (make ob);
        Registry.merge ~into:bc (make oc);
        let abc = Registry.create () in
        Registry.merge ~into:abc (make oa);
        Registry.merge ~into:abc bc;
        abc
      in
      snapshot left = snapshot right)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200
    QCheck.(pair ops_gen ops_gen)
    (fun (oa, ob) ->
      let make ops =
        let r = Registry.create () in
        apply_ops r ops;
        r
      in
      let ab = Registry.create () in
      Registry.merge ~into:ab (make oa);
      Registry.merge ~into:ab (make ob);
      let ba = Registry.create () in
      Registry.merge ~into:ba (make ob);
      Registry.merge ~into:ba (make oa);
      snapshot ab = snapshot ba)

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_basic_order () =
  let r = Ring.create ~capacity:8 () in
  for i = 1 to 5 do
    Ring.record r ~round:i ~kind:Ring.kind_informed ~node:(-1) ~value:(10 * i)
  done;
  checki "length" 5 (Ring.length r);
  checki "seen" 5 (Ring.seen r);
  checki "kept" 5 (Ring.kept r);
  checkb "oldest first" true
    (Ring.to_list r
    = [ (1, 0, -1, 10); (2, 0, -1, 20); (3, 0, -1, 30); (4, 0, -1, 40); (5, 0, -1, 50) ])

let test_ring_overwrite () =
  let r = Ring.create ~capacity:3 () in
  for i = 1 to 10 do
    Ring.record r ~round:i ~kind:0 ~node:0 ~value:i
  done;
  checki "length capped" 3 (Ring.length r);
  checki "seen all" 10 (Ring.seen r);
  checki "kept all" 10 (Ring.kept r);
  check
    (Alcotest.list Alcotest.int)
    "newest three survive" [ 8; 9; 10 ]
    (List.map (fun (round, _, _, _) -> round) (Ring.to_list r))

let test_ring_sampling () =
  let r = Ring.create ~sample:3 ~capacity:100 () in
  for i = 0 to 29 do
    Ring.record r ~round:i ~kind:0 ~node:0 ~value:i
  done;
  checki "seen all" 30 (Ring.seen r);
  checki "kept every 3rd" 10 (Ring.kept r);
  check
    (Alcotest.list Alcotest.int)
    "first of each stride kept"
    [ 0; 3; 6; 9; 12; 15; 18; 21; 24; 27 ]
    (List.map (fun (round, _, _, _) -> round) (Ring.to_list r))

let test_ring_validation () =
  checkb "capacity 0 rejected" true
    (try
       ignore (Ring.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true);
  checkb "sample 0 rejected" true
    (try
       ignore (Ring.create ~sample:0 ~capacity:4 ());
       false
     with Invalid_argument _ -> true)

let test_ring_kind_names () =
  check Alcotest.string "informed" "informed" (Ring.kind_name Ring.kind_informed);
  check Alcotest.string "queue" "queue" (Ring.kind_name Ring.kind_queue);
  check Alcotest.string "fallback" "k99" (Ring.kind_name 99)

(* ------------------------------------------------------------------ *)
(* Span *)

let test_span_nesting () =
  let (inner_report, outer_report) =
    let outer = Span.enter "outer" in
    let _, inner =
      Span.timed "inner" (fun () ->
          (* boxed floats in list cells keep the allocation minor *)
          let acc = ref [] in
          for i = 0 to 999 do
            acc := float_of_int i :: !acc
          done;
          ignore (Sys.opaque_identity !acc))
    in
    (inner, Span.exit outer)
  in
  checki "outer depth" 0 outer_report.Span.depth;
  checki "inner depth" 1 inner_report.Span.depth;
  checkb "elapsed nonneg" true (outer_report.Span.elapsed_s >= 0.0);
  checkb "outer covers inner" true
    (outer_report.Span.elapsed_s >= inner_report.Span.elapsed_s);
  checkb "allocation observed" true (inner_report.Span.minor_words > 0.0)

let test_span_double_exit () =
  let s = Span.enter "x" in
  ignore (Span.exit s);
  checkb "double exit raises" true
    (try
       ignore (Span.exit s);
       false
     with Invalid_argument _ -> true)

let test_span_unwinds_on_raise () =
  (try ignore (Span.timed "boom" (fun () -> failwith "boom")) with Failure _ -> ());
  let s = Span.enter "after" in
  let r = Span.exit s in
  checki "depth restored" 0 r.Span.depth

let test_span_json () =
  let _, r = Span.timed "j" (fun () -> ()) in
  let fields = Span.report_json r in
  checkb "ev span" true (List.assoc "ev" fields = Json.String "span");
  checkb "label" true (List.assoc "label" fields = Json.String "j")

(* ------------------------------------------------------------------ *)
(* Sink + Report *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_sink_jsonl_roundtrip () =
  let path = temp_file ".jsonl" in
  let events =
    [
      [ ("ev", Json.String "meta"); ("tool", Json.String "test"); ("n", Json.Int 3) ];
      [
        ("ev", Json.String "job");
        ("elapsed_s", Json.Float 0.25);
        ("rounds", Json.Null);
        ("note", Json.String "ctrl:\x01\ttab");
      ];
      [ ("ev", Json.String "counter"); ("name", Json.String "c"); ("value", Json.Int (-7)) ];
    ]
  in
  Sink.with_jsonl path (fun sink -> List.iter (Sink.event sink) events);
  let lines = read_lines path in
  checki "one line per event" (List.length events) (List.length lines);
  List.iter2
    (fun line fields ->
      match Json.of_string line with
      | Ok parsed -> checkb "line round-trips" true (parsed = Json.Obj fields)
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e)
    lines events

let test_sink_registry_dump () =
  let path = temp_file ".jsonl" in
  let ring = Ring.create ~capacity:4 () in
  let r = Registry.create ~ring () in
  Registry.add (Registry.counter r "a.count") 2;
  Registry.set (Registry.gauge r "b.gauge") 9;
  Registry.observe (Registry.histogram r "c.hist") 17;
  Ring.record ring ~round:0 ~kind:Ring.kind_informed ~node:(-1) ~value:5;
  Sink.with_jsonl path (fun sink ->
      Sink.registry sink r;
      Sink.ring sink ring);
  let parsed =
    List.map
      (fun l -> match Json.of_string l with Ok j -> j | Error e -> Alcotest.fail e)
      (read_lines path)
  in
  let evs =
    List.map
      (function
        | Json.Obj fields -> (
            match List.assoc "ev" fields with Json.String s -> s | _ -> "?")
        | _ -> "?")
      parsed
  in
  check
    (Alcotest.list Alcotest.string)
    "event sequence"
    [ "counter"; "gauge"; "hist"; "ring"; "trace" ]
    evs

let test_sink_csv () =
  let path = temp_file ".csv" in
  let sink = Sink.csv path ~header:[ "ev"; "name"; "value" ] in
  Sink.event sink
    [ ("ev", Json.String "counter"); ("name", Json.String "with,comma"); ("value", Json.Int 3) ];
  Sink.event sink [ ("value", Json.Int 1); ("ev", Json.String "gauge") ];
  Sink.close sink;
  check
    (Alcotest.list Alcotest.string)
    "csv rows"
    [ "ev,name,value"; "counter,\"with,comma\",3"; "gauge,,1" ]
    (read_lines path)

let test_report_matches_stats () =
  (* The acceptance check of the subsystem: percentiles printed by the
     report must agree exactly with Stats applied to the raw file. *)
  let path = temp_file ".jsonl" in
  let elapsed = [ 0.5; 0.125; 0.25; 1.5; 0.75; 0.0625; 2.0 ] in
  Sink.with_jsonl path (fun sink ->
      Sink.event sink [ ("ev", Json.String "meta") ];
      List.iteri
        (fun i e ->
          Sink.event sink
            [
              ("ev", Json.String "job");
              ("id", Json.Int i);
              ("rounds", if i = 3 then Json.Null else Json.Int (100 + i));
              ("elapsed_s", Json.Float e);
            ])
        elapsed);
  let report = Report.of_file path in
  checki "events" (1 + List.length elapsed) report.Report.events;
  checki "no parse errors" 0 report.Report.parse_errors;
  (* independently re-derive the elapsed sample from the raw file *)
  let raw =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok (Json.Obj fields) when List.assoc_opt "ev" fields = Some (Json.String "job")
          -> (
            match List.assoc "elapsed_s" fields with
            | Json.Float f -> Some f
            | Json.Int i -> Some (float_of_int i)
            | _ -> None)
        | _ -> None)
      (read_lines path)
    |> Array.of_list
  in
  checki "raw sample size" (List.length elapsed) (Array.length raw);
  checkf "p50 matches Stats on raw file" (Stats.percentile raw 50.0)
    (Report.job_percentile report 50.0);
  checkf "p95 matches Stats on raw file" (Stats.percentile raw 95.0)
    (Report.job_percentile report 95.0);
  (match report.Report.job_latency with
  | Some s ->
      checkf "summary median" (Stats.percentile raw 50.0) s.Stats.median;
      checkf "summary p95" (Stats.percentile raw 95.0) s.Stats.p95
  | None -> Alcotest.fail "expected a job latency summary");
  (* rounds summary counts completed jobs only *)
  match report.Report.rounds_summary with
  | Some s -> checki "completed jobs" (List.length elapsed - 1) s.Stats.n
  | None -> Alcotest.fail "expected a rounds summary"

let test_report_tolerates_garbage () =
  let path = temp_file ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"ev\":\"meta\"}\nnot json at all\n{\"ev\":\"counter\",\"name\":\"x\",\"value\":4}\n";
  close_out oc;
  let report = Report.of_file path in
  checki "events" 2 report.Report.events;
  checki "parse errors" 1 report.Report.parse_errors;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters" [ ("x", 4) ] report.Report.counters

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let test_wheel_telemetry () =
  let csr =
    Gossip_scale.Csr.with_latencies (Rng.of_int 8) (Gossip_graph.Gen.Uniform (1, 4))
      (Gossip_scale.Csr.barabasi_albert (Rng.of_int 3) ~n:2_000 ~attach:3)
  in
  let ring = Ring.create ~capacity:4096 () in
  let reg = Registry.create ~ring () in
  let plain =
    Gossip_scale.Wheel_engine.broadcast_kernel (Rng.of_int 21) csr
      ~kernel:(Gossip_scale.Kernel.push_pull csr) ~source:0 ~max_rounds:10_000
  in
  let traced =
    Gossip_scale.Wheel_engine.broadcast_kernel ~telemetry:reg (Rng.of_int 21) csr
      ~kernel:(Gossip_scale.Kernel.push_pull csr) ~source:0 ~max_rounds:10_000
  in
  checkb "telemetry does not perturb the run" true
    (plain.Gossip_scale.Wheel_engine.rounds = traced.Gossip_scale.Wheel_engine.rounds);
  let rounds =
    match traced.Gossip_scale.Wheel_engine.rounds with
    | Some r -> r
    | None -> Alcotest.fail "capped"
  in
  let h = Registry.histogram reg "wheel.round.deliveries" in
  checki "one observation per round" rounds (Registry.hist_count h);
  checki "delivery total matches metrics"
    traced.Gossip_scale.Wheel_engine.metrics.Gossip_sim.Engine.deliveries
    (Registry.hist_sum h);
  checkb "in-flight high-water positive" true
    (Registry.gauge_value (Registry.gauge reg "wheel.inflight.max") > 0);
  (* informed trace reaches n on the last round *)
  let informed =
    List.filter_map
      (fun (round, kind, _, v) -> if kind = Ring.kind_informed then Some (round, v) else None)
      (Ring.to_list ring)
  in
  checkb "informed trace nonempty" true (informed <> []);
  let _, final = List.nth informed (List.length informed - 1) in
  checki "final informed is n" (Gossip_scale.Csr.n csr) final

(* ------------------------------------------------------------------ *)
(* Sweep integration *)

let test_sweep_telemetry_report () =
  let module Sweep = Gossip_sweep.Sweep in
  let jobs =
    Sweep.make_jobs
      ~family:(Sweep.Ring_of_cliques { size = 4; bridge_latency = 2 })
      ~n:16 ~protocol:Gossip_sweep.Runner.Push_pull ~trials:5 ~base_seed:3
      ~max_rounds:100_000 ()
  in
  let reg = Registry.create () in
  let outcomes = (Sweep.run_ft ~workers:1 ~telemetry:reg jobs).Sweep.completed in
  checki "worker job counter" 5
    (Registry.counter_value (Registry.counter reg "pool.worker0.jobs"));
  checki "job hist count" 5 (Registry.hist_count (Registry.histogram reg "pool.job_us"));
  let path = temp_file ".jsonl" in
  Sweep.write_telemetry path ~meta:[ ("tool", Json.String "test") ] ~registry:reg outcomes;
  let report = Report.of_file path in
  checki "no parse errors" 0 report.Report.parse_errors;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "event kinds"
    [ ("meta", 1); ("job", 5); ("counter", 4); ("hist", 2) ]
    report.Report.by_ev;
  (* report percentiles = Stats over the outcomes' raw elapsed times *)
  let raw = Array.of_list (List.map (fun o -> o.Sweep.elapsed_s) outcomes) in
  checkf "p50 agrees with Stats" (Stats.percentile raw 50.0)
    (Report.job_percentile report 50.0);
  checkf "p95 agrees with Stats" (Stats.percentile raw 95.0)
    (Report.job_percentile report 95.0)

let test_pool_telemetry_multiworker () =
  let module Pool = Gossip_sweep.Pool in
  let reg = Registry.create () in
  let out =
    Pool.run_outcomes ~workers:3 ~telemetry:reg (fun x -> x * x) (Array.init 20 (fun i -> i))
  in
  check (Alcotest.array Alcotest.int) "results in order"
    (Array.init 20 (fun i -> i * i))
    (Array.map
       (function Pool.Ok v -> v | Pool.Failed f -> Alcotest.fail (Pool.failure_message f))
       out);
  (* eager pre-registration: every worker's metrics exist even if the
     scheduler starved it *)
  let jobs_total =
    List.fold_left
      (fun acc w ->
        acc + Registry.counter_value (Registry.counter reg (Printf.sprintf "pool.worker%d.jobs" w)))
      0 [ 0; 1; 2 ]
  in
  checki "every job counted exactly once" 20 jobs_total;
  checki "job hist sees all jobs" 20 (Registry.hist_count (Registry.histogram reg "pool.job_us"));
  checki "queue depth hist sees all jobs" 20
    (Registry.hist_count (Registry.histogram reg "pool.queue_depth"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gossip_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge" `Quick test_registry_counter_gauge;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "hist exact small values" `Quick test_registry_hist_exact_small;
          Alcotest.test_case "hist bucket bounds" `Quick test_registry_hist_bucket_bounds;
          Alcotest.test_case "hist percentile" `Quick test_registry_hist_percentile;
          Alcotest.test_case "hist percentile accuracy" `Quick
            test_registry_hist_percentile_accuracy;
          Alcotest.test_case "merge semantics" `Quick test_registry_merge_semantics;
          qtest prop_merge_associative;
          qtest prop_merge_commutative;
        ] );
      ( "ring",
        [
          Alcotest.test_case "order" `Quick test_ring_basic_order;
          Alcotest.test_case "overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "sampling" `Quick test_ring_sampling;
          Alcotest.test_case "validation" `Quick test_ring_validation;
          Alcotest.test_case "kind names" `Quick test_ring_kind_names;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "double exit" `Quick test_span_double_exit;
          Alcotest.test_case "unwinds on raise" `Quick test_span_unwinds_on_raise;
          Alcotest.test_case "json" `Quick test_span_json;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_sink_jsonl_roundtrip;
          Alcotest.test_case "registry dump" `Quick test_sink_registry_dump;
          Alcotest.test_case "csv" `Quick test_sink_csv;
        ] );
      ( "report",
        [
          Alcotest.test_case "percentiles match Stats" `Quick test_report_matches_stats;
          Alcotest.test_case "tolerates garbage lines" `Quick test_report_tolerates_garbage;
        ] );
      ( "integration",
        [
          Alcotest.test_case "wheel telemetry" `Quick test_wheel_telemetry;
          Alcotest.test_case "sweep telemetry report" `Quick test_sweep_telemetry_report;
          Alcotest.test_case "pool multiworker" `Quick test_pool_telemetry_multiworker;
        ] );
    ]
