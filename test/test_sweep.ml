(* Tests for lib/sweep (protocol descriptors and the runner, domain
   pool, orchestrator) and the lib/util JSON emitter it serializes
   through. *)

module Json = Gossip_util.Json
module Pool = Gossip_sweep.Pool
module Runner = Gossip_sweep.Runner
module Sweep = Gossip_sweep.Sweep
module Csr = Gossip_scale.Csr
module Wheel = Gossip_scale.Wheel_engine
module Engine = Gossip_sim.Engine
module Eid = Gossip_core.Eid
module D = Gossip_core.Dissemination

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_scalars () =
  checks "null" "null" (Json.to_string Json.Null);
  checks "bool" "true" (Json.to_string (Json.Bool true));
  checks "int" "-42" (Json.to_string (Json.Int (-42)));
  checks "float int" "3" (Json.to_string (Json.Float 3.0));
  checks "float frac" "0.5" (Json.to_string (Json.Float 0.5));
  checks "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  checks "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_string_escaping () =
  checks "plain" {|"abc"|} (Json.to_string (Json.String "abc"));
  checks "quotes" {|"a\"b"|} (Json.to_string (Json.String {|a"b|}));
  checks "backslash" {|"a\\b"|} (Json.to_string (Json.String {|a\b|}));
  checks "newline" {|"a\nb"|} (Json.to_string (Json.String "a\nb"));
  checks "control" {|"a\u0001b"|} (Json.to_string (Json.String "a\001b"))

let test_json_nesting () =
  let j =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("o", Json.Obj [ ("k", Json.Null) ]);
        ("empty", Json.List []);
      ]
  in
  checks "nested" {|{"xs":[1,2],"o":{"k":null},"empty":[]}|} (Json.to_string j)

let test_json_write () =
  let path = Filename.temp_file "sweep" ".json" in
  Json.write path (Json.Obj [ ("ok", Json.Bool true) ]);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  checks "file contents" {|{"ok":true}|} line

(* ------------------------------------------------------------------ *)
(* Protocol descriptors *)

let test_protocol_roundtrip () =
  List.iter
    (fun p ->
      let s = Runner.protocol_name p in
      match Runner.protocol_of_string s with
      | Some p' -> checkb (s ^ " round-trips") true (p = p')
      | None -> Alcotest.failf "%s does not parse back" s)
    [
      Runner.Push_pull;
      Runner.Flood;
      Runner.Random_contact;
      Runner.Rr_spanner { stretch_k = 0 };
      Runner.Rr_spanner { stretch_k = 3 };
      Runner.Dtg_local { ell = 0 };
      Runner.Dtg_local { ell = 5 };
      Runner.Unknown_eid;
      Runner.Unified;
      Runner.K_rumor { k = 0; budget = 0 };
      Runner.K_rumor { k = 8; budget = 0 };
      Runner.K_rumor { k = 8; budget = 3 };
      Runner.Rumor_rotation { k = 0; budget = 0 };
      Runner.Rumor_rotation { k = 5; budget = 2 };
      Runner.Algebraic { k = 0; budget = 0 };
      Runner.Algebraic { k = 16; budget = 1 };
    ];
  (* Parameterless forms mean "choose automatically". *)
  checkb "bare rr-spanner" true
    (Runner.protocol_of_string "rr-spanner" = Some (Runner.Rr_spanner { stretch_k = 0 }));
  checkb "bare dtg" true
    (Runner.protocol_of_string "dtg" = Some (Runner.Dtg_local { ell = 0 }));
  checkb "bare k-rumor" true
    (Runner.protocol_of_string "k-rumor" = Some (Runner.K_rumor { k = 0; budget = 0 }));
  checkb "k-rumor:4" true
    (Runner.protocol_of_string "k-rumor:4" = Some (Runner.K_rumor { k = 4; budget = 0 }));
  checkb "rotation:4:2" true
    (Runner.protocol_of_string "rotation:4:2"
    = Some (Runner.Rumor_rotation { k = 4; budget = 2 }));
  checkb "algebraic:16:1" true
    (Runner.protocol_of_string "algebraic:16:1" = Some (Runner.Algebraic { k = 16; budget = 1 }));
  List.iter
    (fun s -> checkb ("\"" ^ s ^ "\" rejected") true (Runner.protocol_of_string s = None))
    [
      "nope"; "rr-spanner:0"; "rr-spanner:x"; "dtg:-2"; "dtg:"; ""; "k-rumor:"; "k-rumor:-1";
      "k-rumor:2:"; "k-rumor:2:-1"; "k-rumor:2:3:4"; "rotation:x"; "algebraic:1:x";
    ];
  checki "known protocols listed" 10 (List.length Runner.known_protocols)

(* The runner's auto parameters: a descriptor whose parameter is 0 (or
   absent) runs exactly what the explicit descriptor names. *)
let test_protocol_auto_parameters () =
  let same label (a : Runner.outcome) (b : Runner.outcome) =
    checkb label true
      (a.Runner.record.Runner.rounds = b.Runner.record.Runner.rounds
      && a.Runner.history = b.Runner.history
      && a.Runner.record.Runner.metrics = b.Runner.record.Runner.metrics
      && Bytes.equal a.Runner.informed b.Runner.informed)
  in
  (* dtg:0 is dtg at l_max, which is flooding. *)
  let grng = Gossip_util.Rng.of_int 123 in
  let p = (log 60.0 +. 3.0) /. 60.0 in
  let g =
    Gossip_graph.Gen.with_latencies grng (Gossip_graph.Gen.Uniform (1, 4))
      (Gossip_graph.Gen.erdos_renyi_connected grng ~n:60 ~p)
  in
  let csr = Csr.of_graph g in
  let run p = Runner.run csr p ~seed:0 ~source:3 ~max_rounds:100_000 in
  same "dtg:0 = flood" (run (Runner.Dtg_local { ell = 0 })) (run Runner.Flood);
  same "dtg:0 = dtg:l_max"
    (run (Runner.Dtg_local { ell = 0 }))
    (run (Runner.Dtg_local { ell = Csr.max_latency csr }));
  (* k = min n 16 rumors; budget 4 words, or algebraic's ⌈k/30⌉. *)
  List.iter
    (fun (cliques, k) ->
      let csr = Csr.ring_of_cliques ~cliques ~size:4 ~bridge_latency:3 in
      let run p = Runner.run csr p ~seed:5 ~source:0 ~max_rounds:100_000 in
      let n = Csr.n csr in
      same (Printf.sprintf "k-rumor n=%d" n)
        (run (Runner.K_rumor { k = 0; budget = 0 }))
        (run (Runner.K_rumor { k; budget = 4 }));
      same (Printf.sprintf "rotation n=%d" n)
        (run (Runner.Rumor_rotation { k = 0; budget = 0 }))
        (run (Runner.Rumor_rotation { k; budget = 4 }));
      same (Printf.sprintf "algebraic n=%d" n)
        (run (Runner.Algebraic { k = 0; budget = 0 }))
        (run (Runner.Algebraic { k; budget = 1 })))
    [ (3, 12); (5, 16) ];
  (* rr-spanner:0 builds with k = ⌈log₂ n⌉. *)
  let csr = Csr.ring_of_cliques ~cliques:5 ~size:4 ~bridge_latency:3 in
  let run p = Runner.run csr p ~seed:5 ~source:0 ~max_rounds:100_000 in
  let auto = run (Runner.Rr_spanner { stretch_k = 0 }) in
  (match auto.Runner.record.Runner.route with
  | Runner.Spanner_run sp -> checki "rr-spanner k" 5 sp.Runner.k
  | _ -> Alcotest.fail "rr-spanner ran no spanner");
  same "rr-spanner:0 = rr-spanner:5" auto (run (Runner.Rr_spanner { stretch_k = 5 }))

(* The name <-> descriptor bijection holds over the whole descriptor
   space, parameterized forms included — one generator spanning all
   ten grammar productions. *)
let protocol_gen =
  let open QCheck.Gen in
  let param2 mk = map2 (fun k budget -> mk k budget) (int_range 0 40) (int_range 0 6) in
  oneof
    [
      return Runner.Push_pull;
      return Runner.Flood;
      return Runner.Random_contact;
      map (fun stretch_k -> Runner.Rr_spanner { stretch_k }) (int_range 0 12);
      map (fun ell -> Runner.Dtg_local { ell }) (int_range 0 12);
      return Runner.Unknown_eid;
      return Runner.Unified;
      param2 (fun k budget -> Runner.K_rumor { k; budget });
      param2 (fun k budget -> Runner.Rumor_rotation { k; budget });
      param2 (fun k budget -> Runner.Algebraic { k; budget });
    ]

let prop_protocol_roundtrip =
  QCheck.Test.make ~name:"protocol_of_string inverts protocol_name on every descriptor"
    ~count:300
    (QCheck.make protocol_gen ~print:Runner.protocol_name)
    (fun p -> Runner.protocol_of_string (Runner.protocol_name p) = Some p)

(* ------------------------------------------------------------------ *)
(* Pool *)

(* The values of a pool run none of whose jobs raised. *)
let pool_values out =
  Array.map
    (function Pool.Ok v -> v | Pool.Failed f -> Alcotest.fail (Pool.failure_message f))
    out

let test_pool_order_preserved () =
  List.iter
    (fun workers ->
      let inputs = Array.init 37 (fun i -> i) in
      let out = pool_values (Pool.run_outcomes ~workers (fun x -> (2 * x) + 1) inputs) in
      Array.iteri
        (fun i r -> checki (Printf.sprintf "w%d slot %d" workers i) ((2 * i) + 1) r)
        out)
    [ 1; 2; 4 ]

let test_pool_empty_and_clamp () =
  checki "empty" 0 (Array.length (Pool.run_outcomes ~workers:4 (fun x -> x) [||]));
  (* More workers than jobs must still complete every job once. *)
  let out = pool_values (Pool.run_outcomes ~workers:8 (fun x -> x * x) [| 1; 2; 3 |]) in
  Alcotest.check (Alcotest.array Alcotest.int) "clamped" [| 1; 4; 9 |] out

let test_pool_default_workers () =
  checkb "at least one worker" true (Pool.default_workers () >= 1)

let test_pool_outcomes_capture () =
  (* A failing job never aborts the run: every other job completes and
     the failure comes back structured, with the exception and attempt
     count, in the failing job's slot. *)
  let out =
    Pool.run_outcomes ~workers:2
      (fun i -> if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i) else 10 * i)
      (Array.init 8 (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Ok v ->
          checkb (Printf.sprintf "slot %d ok" i) true (i mod 3 <> 0);
          checki (Printf.sprintf "slot %d value" i) (10 * i) v
      | Pool.Failed f ->
          checkb (Printf.sprintf "slot %d failed" i) true (i mod 3 = 0);
          checki (Printf.sprintf "slot %d attempts" i) 1 f.Pool.attempts;
          checks
            (Printf.sprintf "slot %d message" i)
            (Printf.sprintf "Failure(\"boom %d\")" i)
            (Pool.failure_message f))
    out

let test_pool_retry_recovers () =
  (* A flaky job that fails on its first attempt succeeds under
     ~retries:1; on_retry fires once per recovered job. *)
  let n = 6 in
  let attempts = Array.make n 0 in
  let retried = ref [] in
  let out =
    Pool.run_outcomes ~workers:1 ~retries:1
      ~on_retry:(fun i ~attempt _e -> retried := (i, attempt) :: !retried)
      (fun i ->
        attempts.(i) <- attempts.(i) + 1;
        if i mod 2 = 0 && attempts.(i) = 1 then failwith "flaky" else i)
      (Array.init n (fun i -> i))
  in
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Ok v -> checki (Printf.sprintf "slot %d recovered" i) i v
      | Pool.Failed _ -> Alcotest.failf "slot %d should have recovered" i)
    out;
  checki "one retry per flaky job" 3 (List.length !retried);
  List.iter (fun (i, attempt) ->
      checkb "flaky index" true (i mod 2 = 0);
      checki "failed attempt number" 1 attempt)
    !retried

let test_pool_retries_exhausted () =
  let retried = ref 0 in
  let out =
    Pool.run_outcomes ~workers:2 ~retries:2
      ~on_retry:(fun _ ~attempt:_ _ -> incr retried)
      (fun i -> if i = 1 then failwith "always" else i)
      [| 0; 1; 2 |]
  in
  (match out.(1) with
  | Pool.Failed f -> checki "attempts = retries + 1" 3 f.Pool.attempts
  | Pool.Ok _ -> Alcotest.fail "job 1 cannot succeed");
  checki "every failed attempt but the last retried" 2 !retried;
  (match out.(0) with Pool.Ok v -> checki "job 0" 0 v | _ -> Alcotest.fail "job 0 ok");
  match out.(2) with Pool.Ok v -> checki "job 2" 2 v | _ -> Alcotest.fail "job 2 ok"

let test_pool_streams_results () =
  (* on_result fires once per job with its final outcome — the hook
     checkpointing is built on. *)
  let seen = ref [] in
  let _ =
    Pool.run_outcomes ~workers:2
      ~on_result:(fun i r -> seen := (i, r) :: !seen)
      (fun i -> if i = 2 then failwith "x" else i)
      [| 0; 1; 2; 3 |]
  in
  checki "one callback per job" 4 (List.length !seen);
  List.iter
    (fun i ->
      match List.assoc_opt i !seen with
      | Some (Pool.Ok v) -> checki "streamed value" i v
      | Some (Pool.Failed _) -> checki "only job 2 fails" 2 i
      | None -> Alcotest.failf "no callback for job %d" i)
    [ 0; 1; 2; 3 ]

let test_pool_us_rounding () =
  (* Regression: int_of_float truncated sub-microsecond spans to 0. *)
  checki "0.4us rounds down" 0 (Pool.us_of_seconds 0.4e-6);
  checki "0.6us rounds up" 1 (Pool.us_of_seconds 0.6e-6);
  checki "1.5us rounds to 2" 2 (Pool.us_of_seconds 1.5e-6);
  checki "exact" 42 (Pool.us_of_seconds 42e-6)

let test_pool_failure_counters () =
  let reg = Gossip_obs.Registry.create () in
  let _ =
    Pool.run_outcomes ~workers:2 ~retries:1 ~telemetry:reg
      (fun i -> if i >= 4 then failwith "down" else i)
      (Array.init 6 (fun i -> i))
  in
  let value name =
    Gossip_obs.Registry.counter_value (Gossip_obs.Registry.counter reg name)
  in
  checki "pool.failures" 2 (value "pool.failures");
  checki "pool.retries" 2 (value "pool.retries")

(* qcheck: against a random fail mask, the pool preserves every
   successful result in order, reports each failure exactly once, and
   is deterministic across worker counts. *)
let pool_random_failures =
  QCheck.Test.make ~name:"pool outcomes deterministic across workers" ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 25) bool) (int_range 1 4))
    (fun (mask, workers) ->
      let mask = Array.of_list mask in
      let n = Array.length mask in
      let f i = if mask.(i) then failwith (Printf.sprintf "f%d" i) else i * i in
      let shape r =
        Array.map
          (function
            | Pool.Ok v -> Printf.sprintf "ok:%d" v
            | Pool.Failed f ->
                Printf.sprintf "fail:%s:%d" (Pool.failure_message f) f.Pool.attempts)
          r
      in
      let reference = shape (Pool.run_outcomes ~workers:1 f (Array.init n (fun i -> i))) in
      (* Every success in order, every failure reported exactly once. *)
      Array.iteri
        (fun i s ->
          let expected =
            if mask.(i) then Printf.sprintf "fail:Failure(\"f%d\"):1" i
            else Printf.sprintf "ok:%d" (i * i)
          in
          if s <> expected then QCheck.Test.fail_reportf "slot %d: %s <> %s" i s expected)
        reference;
      let parallel = shape (Pool.run_outcomes ~workers f (Array.init n (fun i -> i))) in
      reference = parallel)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let small_jobs protocol =
  Sweep.make_jobs
    ~family:(Sweep.Ring_of_cliques { size = 6; bridge_latency = 4 })
    ~n:48 ~protocol ~trials:4 ~base_seed:1 ~max_rounds:100_000 ()

(* The outcomes of a sweep none of whose jobs failed. *)
let run_clean ?domains ~workers jobs =
  let report = Sweep.run_ft ?domains ~workers jobs in
  checki "no failed jobs" 0 (List.length report.Sweep.failed);
  report.Sweep.completed

let test_sweep_runs_and_completes () =
  let outcomes = run_clean ~workers:2 (small_jobs Runner.Push_pull) in
  checki "all trials" 4 (List.length outcomes);
  List.iter
    (fun o ->
      checki "actual n" 48 o.Sweep.n_actual;
      checkb "completed" true (o.Sweep.record.Runner.rounds <> None);
      checkb "timed" true (o.Sweep.elapsed_s >= 0.0))
    outcomes

let test_sweep_deterministic_across_workers () =
  let rounds = List.map (fun (o : Sweep.outcome) -> o.Sweep.record.Runner.rounds) in
  let sequential = run_clean ~workers:1 (small_jobs Runner.Push_pull) in
  let parallel = run_clean ~workers:3 (small_jobs Runner.Push_pull) in
  Alcotest.check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "same rounds regardless of pool size" (rounds sequential) (rounds parallel)

let test_sweep_summarize () =
  let outcomes =
    run_clean ~workers:2
      (small_jobs Runner.Push_pull @ small_jobs Runner.Flood)
  in
  match Sweep.summarize outcomes with
  | [ pp; flood ] ->
      checks "group 1 protocol" "push-pull" pp.Sweep.protocol;
      checks "group 2 protocol" "flood" flood.Sweep.protocol;
      checki "group trials" 4 pp.Sweep.trials;
      checki "group completed" 4 pp.Sweep.completed;
      (match pp.Sweep.rounds with
      | Some s -> checki "stats over 4 trials" 4 s.Gossip_util.Stats.n
      | None -> Alcotest.fail "missing stats");
      checkb "initiations accumulated" true (pp.Sweep.total_initiations > 0)
  | groups -> Alcotest.failf "expected 2 summary groups, got %d" (List.length groups)

let test_sweep_capped_run () =
  (* A one-round cap cannot finish a 48-node broadcast: the summary
     must report zero completions and no stats. *)
  let jobs =
    List.map (fun j -> { j with Sweep.max_rounds = 1 }) (small_jobs Runner.Push_pull)
  in
  let outcomes = run_clean ~workers:2 jobs in
  List.iter
    (fun (o : Sweep.outcome) -> checkb "capped" true (o.Sweep.record.Runner.rounds = None))
    outcomes;
  match Sweep.summarize outcomes with
  | [ s ] ->
      checki "none completed" 0 s.Sweep.completed;
      checkb "no stats" true (s.Sweep.rounds = None)
  | _ -> Alcotest.fail "expected one summary group"

let test_sweep_latency_override () =
  let jobs =
    Sweep.make_jobs
      ~family:(Sweep.Barabasi_albert { attach = 2 })
      ~n:64 ~protocol:Runner.Push_pull ~trials:2 ~base_seed:5 ~max_rounds:100_000
      ~latency:(Gossip_graph.Gen.Uniform (2, 5))
      ()
  in
  List.iter
    (fun (o : Sweep.outcome) ->
      checkb "completes with latencies" true (o.Sweep.record.Runner.rounds <> None))
    (run_clean ~workers:2 jobs)

let test_sweep_json_shape () =
  let outcomes = run_clean ~workers:2 (small_jobs Runner.Push_pull) in
  let s = Json.to_string (Sweep.to_json ~meta:[ ("tool", Json.String "test") ] outcomes) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "json contains %s" needle) true (contains needle))
    [
      {|"meta":{"tool":"test"}|};
      {|"results":[|};
      {|"summaries":[|};
      {|"family":{"kind":"ring-of-cliques","size":6,"bridge_latency":4}|};
      {|"protocol":"push-pull"|};
      {|"completed":4|};
    ]

let test_sweep_summarize_realized_n () =
  (* Requesting n=50 with size-6 cliques builds 48 nodes; the summary
     must group by the realized count, not the requested one. *)
  checki "realized_n"
    48
    (Sweep.realized_n (Sweep.Ring_of_cliques { size = 6; bridge_latency = 4 }) ~n:50);
  let jobs =
    Sweep.make_jobs
      ~family:(Sweep.Ring_of_cliques { size = 6; bridge_latency = 4 })
      ~n:50 ~protocol:Runner.Push_pull ~trials:2 ~base_seed:3 ~max_rounds:100_000 ()
  in
  match Sweep.summarize (run_clean ~workers:2 jobs) with
  | [ s ] ->
      checki "summary keyed by realized n" 48 s.Sweep.n;
      checki "both trials in one group" 2 s.Sweep.trials
  | groups -> Alcotest.failf "expected one group, got %d" (List.length groups)

let test_sweep_run_ft_inject () =
  let jobs = small_jobs Runner.Push_pull in
  let crash_seed = (List.nth jobs 1).Sweep.seed in
  let inject (j : Sweep.job) =
    if j.Sweep.seed = crash_seed then failwith "injected crash"
  in
  let report = Sweep.run_ft ~workers:2 ~inject jobs in
  checki "other jobs complete" 3 (List.length report.Sweep.completed);
  checki "one failure" 1 (List.length report.Sweep.failed);
  checki "nothing skipped" 0 report.Sweep.skipped;
  let f = List.hd report.Sweep.failed in
  checki "failed seed" crash_seed f.Sweep.failed_job.Sweep.seed;
  checks "failure message" {|Failure("injected crash")|} f.Sweep.message;
  checki "single attempt" 1 f.Sweep.attempts;
  (* Failures fold into the summary as trials with a failed count. *)
  match Sweep.summarize ~failures:report.Sweep.failed report.Sweep.completed with
  | [ s ] ->
      checki "trials include failure" 4 s.Sweep.trials;
      checki "completed" 3 s.Sweep.completed;
      checki "failed column" 1 s.Sweep.failed
  | groups -> Alcotest.failf "expected one group, got %d" (List.length groups)

let test_sweep_run_ft_retry_recovers () =
  let jobs = small_jobs Runner.Push_pull in
  let crash_seed = (List.nth jobs 2).Sweep.seed in
  let tries = ref 0 in
  let inject (j : Sweep.job) =
    if j.Sweep.seed = crash_seed then begin
      incr tries;
      if !tries = 1 then failwith "transient"
    end
  in
  (* workers:1 so the injected counter is race-free. *)
  let report = Sweep.run_ft ~workers:1 ~retries:1 ~inject jobs in
  checki "all jobs complete after retry" 4 (List.length report.Sweep.completed);
  checki "no ultimate failures" 0 (List.length report.Sweep.failed);
  (match report.Sweep.retried with
  | [ (j, attempt, msg) ] ->
      checki "retried job" crash_seed j.Sweep.seed;
      checki "attempt" 1 attempt;
      checks "retry message" {|Failure("transient")|} msg
  | l -> Alcotest.failf "expected one retry record, got %d" (List.length l));
  (* The recovered run is indistinguishable from an untroubled one. *)
  let rounds r = List.map (fun (o : Sweep.outcome) -> o.Sweep.record.Runner.rounds) r in
  let clean = run_clean ~workers:1 jobs in
  Alcotest.check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "retry leaves trajectories untouched" (rounds clean)
    (rounds report.Sweep.completed)

let with_temp_file f =
  let path = Filename.temp_file "sweep_ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_sweep_checkpoint_roundtrip () =
  with_temp_file (fun path ->
      let jobs = small_jobs Runner.Push_pull in
      let report = Sweep.run_ft ~workers:1 ~checkpoint:path jobs in
      checki "all completed" 4 (List.length report.Sweep.completed);
      let entries = Sweep.read_checkpoint path in
      checki "one record per job" 4 (List.length entries);
      List.iter2
        (fun job entry ->
          match entry with
          | Sweep.Ckpt_done o ->
              checkb "job persisted" true (o.Sweep.job = job);
              checki "realized n persisted" 48 o.Sweep.n_actual;
              checkb "rounds persisted" true (o.Sweep.record.Runner.rounds <> None)
          | Sweep.Ckpt_failed _ -> Alcotest.fail "no failures expected")
        jobs entries;
      (* A fully recorded checkpoint leaves nothing to resume. *)
      let again = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true jobs in
      checki "resume skips everything" 4 again.Sweep.skipped)

let test_sweep_resume_skips_recorded () =
  with_temp_file (fun path ->
      let jobs = small_jobs Runner.Push_pull in
      let full = Sweep.run_ft ~workers:1 ~checkpoint:path jobs in
      (* Simulate a kill after two jobs: truncate the checkpoint, with
         a torn third line as a process killed mid-write would leave. *)
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      let l3 = input_line ic in
      close_in ic;
      let oc = open_out path in
      Printf.fprintf oc "%s\n%s\n%s" l1 l2
        (String.sub l3 0 (String.length l3 / 2));
      close_out oc;
      checki "torn line dropped" 2 (List.length (Sweep.read_checkpoint path));
      let resumed = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true jobs in
      checki "skipped from checkpoint" 2 resumed.Sweep.skipped;
      checki "all four present" 4 (List.length resumed.Sweep.completed);
      checki "no failures" 0 (List.length resumed.Sweep.failed);
      (* Per-job results are identical to the uninterrupted run on
         every deterministic field (elapsed_s is wall-clock). *)
      List.iter2
        (fun (a : Sweep.outcome) (b : Sweep.outcome) ->
          checkb "same job" true (a.Sweep.job = b.Sweep.job);
          checki "same n_actual" a.Sweep.n_actual b.Sweep.n_actual;
          checki "same edges" a.Sweep.edges b.Sweep.edges;
          checkb "same record" true (a.Sweep.record = b.Sweep.record);
          checki "same deliveries" a.Sweep.record.Runner.metrics.Engine.deliveries
            b.Sweep.record.Runner.metrics.Engine.deliveries;
          checki "same initiations" a.Sweep.record.Runner.metrics.Engine.initiations
            b.Sweep.record.Runner.metrics.Engine.initiations)
        full.Sweep.completed resumed.Sweep.completed;
      (* The checkpoint now carries all four records again. *)
      checki "checkpoint repopulated" 4 (List.length (Sweep.read_checkpoint path)))

let test_sweep_checkpoint_records_failures () =
  with_temp_file (fun path ->
      let jobs = small_jobs Runner.Push_pull in
      let crash_seed = (List.hd jobs).Sweep.seed in
      let inject (j : Sweep.job) =
        if j.Sweep.seed = crash_seed then failwith "injected crash"
      in
      let report = Sweep.run_ft ~workers:1 ~checkpoint:path ~inject jobs in
      checki "one failure" 1 (List.length report.Sweep.failed);
      let failures =
        List.filter
          (function Sweep.Ckpt_failed _ -> true | Sweep.Ckpt_done _ -> false)
          (Sweep.read_checkpoint path)
      in
      (match failures with
      | [ Sweep.Ckpt_failed f ] ->
          checki "failed seed persisted" crash_seed f.Sweep.failed_job.Sweep.seed;
          checks "message persisted" {|Failure("injected crash")|} f.Sweep.message
      | _ -> Alcotest.fail "expected exactly one ckpt_fail record");
      (* A recorded failure is not retried on resume. *)
      let again = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true ~inject jobs in
      checki "failure counts as recorded" 4 again.Sweep.skipped;
      checki "failure kept" 1 (List.length again.Sweep.failed))

let test_pool_budget_workers () =
  let rec_count = Domain.recommended_domain_count () in
  (* Requested count passes through when each job uses one domain. *)
  checki "d=1 keeps request" (min 3 (max 1 rec_count))
    (Pool.budget_workers ~workers:3 ~domains_per_job:1 ());
  (* A domains-per-job bigger than the machine still leaves one worker. *)
  checki "never below one worker" 1
    (Pool.budget_workers ~workers:8 ~domains_per_job:(rec_count + 5) ());
  (* workers * domains_per_job never exceeds the recommended count
     (unless that would mean zero workers). *)
  for d = 1 to 6 do
    let w = Pool.budget_workers ~workers:16 ~domains_per_job:d () in
    checkb
      (Printf.sprintf "budget d=%d" d)
      true
      (w >= 1 && (w * d <= rec_count || w = 1))
  done;
  match Pool.budget_workers ~domains_per_job:0 () with
  | _ -> Alcotest.fail "domains_per_job 0 accepted"
  | exception Invalid_argument _ -> ()

let test_sweep_sharded_jobs_deterministic () =
  (* Per-job engine sharding must not change any outcome: domains:2
     through the sweep equals the plain sequential sweep. *)
  let jobs = small_jobs Runner.Push_pull in
  let shape r =
    List.map
      (fun (o : Sweep.outcome) ->
        let m = o.Sweep.record.Runner.metrics in
        (o.Sweep.record.Runner.rounds, m.Engine.initiations, m.Engine.deliveries))
      r
  in
  let sequential = run_clean ~workers:2 jobs in
  let sharded = run_clean ~workers:2 ~domains:2 jobs in
  checkb "sharded jobs match sequential" true (shape sequential = shape sharded);
  let ft = Sweep.run_ft ~workers:1 ~domains:2 jobs in
  checki "run_ft all complete" 4 (List.length ft.Sweep.completed);
  checkb "run_ft sharded matches too" true (shape sequential = shape ft.Sweep.completed)

(* A descriptor parameter that does not fit the graph is refused with
   Runner's typed exception before any engine round, and a sweep records
   it as a structured failure. *)
let test_sweep_invalid_protocol () =
  List.iter
    (fun name ->
      let protocol = Option.get (Runner.protocol_of_string name) in
      let jobs = small_jobs protocol in
      let no_round ~round:_ ~informed:_ = Alcotest.fail "ran a round" in
      (match Sweep.run_job ~on_round:no_round (List.hd jobs) with
      | _ -> Alcotest.failf "%s: expected Invalid_protocol" name
      | exception Runner.Invalid_protocol msg ->
          checkb (name ^ ": message names the descriptor") true
            (String.starts_with ~prefix:(name ^ ": ") msg));
      let report = Sweep.run_ft ~workers:1 jobs in
      checki (name ^ ": no job completes") 0 (List.length report.Sweep.completed);
      List.iter
        (fun (f : Sweep.failure) ->
          checkb (name ^ ": typed exception printed") true
            (String.starts_with ~prefix:"Runner.Invalid_protocol: " f.Sweep.message))
        report.Sweep.failed;
      checki (name ^ ": every job fails structured") 4 (List.length report.Sweep.failed))
    [ "k-rumor:49"; "rotation:70:2"; "algebraic:40:1" ]

(* Every descriptor runs through Runner.run, and every engine round of
   every route reaches on_round — a chain's numbered over its phases —
   so gossipd can watch, drain and cancel any job. *)
exception Stop_at_3

let test_sweep_on_round_every_route () =
  List.iter
    (fun entry ->
      let name = List.hd (String.split_on_char '[' entry) in
      let protocol = Option.get (Runner.protocol_of_string name) in
      let job = List.hd (small_jobs protocol) in
      let calls = ref 0 in
      let on_round ~round ~informed:_ =
        incr calls;
        if round <> !calls then Alcotest.failf "%s: round %d at call %d" name round !calls
      in
      let o = Sweep.run_job ~on_round job in
      let rounds = o.Sweep.record.Runner.metrics.Engine.rounds in
      (match protocol with
      | Runner.Unified ->
          (* push-pull's rounds, then the chain's; metrics are the winner's *)
          checkb (name ^ ": both branches watched") true (!calls > rounds)
      | _ -> checki (name ^ ": one call per engine round") rounds !calls);
      let stop ~round ~informed:_ = if round = 3 then raise Stop_at_3 in
      match Sweep.run_job ~on_round:stop job with
      | _ -> Alcotest.failf "%s: a hook raising at round 3 did not abort the job" name
      | exception Stop_at_3 -> ())
    Runner.known_protocols

let test_sweep_resume_requires_checkpoint () =
  Alcotest.check_raises "resume without checkpoint"
    (Invalid_argument "Sweep.run_ft: ~resume:true requires a checkpoint path")
    (fun () ->
      ignore (Sweep.run_ft ~resume:true (small_jobs Runner.Push_pull)))

(* ------------------------------------------------------------------ *)
(* The record's codec *)

let attempt_gen =
  let open QCheck.Gen in
  let r = int_range 0 5_000 in
  let* ua_k = int_range 1 64 in
  let* ua_discovery_rounds = r in
  let* ua_schedule_rounds = r in
  let* ua_rr_rounds = r in
  let* ua_check_rounds = r in
  let* ua_edges_known = r in
  let* ua_spanner_out_degree = int_range 0 64 in
  let* ua_spanner_edges = r in
  let* ua_failed = bool in
  let+ ua_unanimous = bool in
  {
    Eid.ua_k;
    ua_discovery_rounds;
    ua_schedule_rounds;
    ua_rr_rounds;
    ua_check_rounds;
    ua_edges_known;
    ua_spanner_out_degree;
    ua_spanner_edges;
    ua_failed;
    ua_unanimous;
  }

(* Chains of zero to four attempts: a decoded row never assumes the
   attempt list is non-empty. *)
let chain_gen =
  let open QCheck.Gen in
  let* k_final = int_range 1 64 in
  let* unanimous = bool in
  let+ attempts = list_size (int_range 0 4) attempt_gen in
  { Runner.k_final; unanimous; attempts }

(* The route a descriptor runs.  Half the spanner build times are
   whole seconds, which the emitter writes without a fraction. *)
let route_gen protocol =
  let open QCheck.Gen in
  match protocol with
  | Runner.Rr_spanner _ ->
      let* k = int_range 1 20 in
      let* edges = int_range 0 100_000 in
      let* max_out_degree = int_range 0 64 in
      let* out_degree_bound = int_range 0 64 in
      let+ build_s = oneof [ map float_of_int (int_range 0 5); float_range 0.0 100.0 ] in
      Runner.Spanner_run { Runner.k; edges; max_out_degree; out_degree_bound; build_s }
  | Runner.Unknown_eid -> map (fun c -> Runner.Eid_chain c) chain_gen
  | Runner.Unified ->
      let* winner = oneofl [ D.Scale_push_pull_won; D.Scale_spanner_route_won ] in
      let* pushpull_rounds = opt (int_range 0 100_000) in
      let* spanner_rounds = int_range 0 100_000 in
      let+ eid = chain_gen in
      Runner.Unified_race { Runner.winner; pushpull_rounds; spanner_rounds; eid }
  | _ -> return Runner.Kernel_run

let row_gen =
  let open QCheck.Gen in
  let c = int_range 0 1_000_000 in
  let* protocol =
    oneof
      [
        protocol_gen;
        oneofl [ Runner.Rr_spanner { stretch_k = 0 }; Runner.Unknown_eid; Runner.Unified ];
      ]
  in
  let* rounds = opt c in
  let* m_rounds = c in
  let* initiations = c in
  let* deliveries = c in
  let* payload_words = c in
  let* rejected = c in
  let* dropped = c in
  let* route = route_gen protocol in
  let* seed = int_range 0 100_000 in
  let+ elapsed_s = float_range 0.0 10.0 in
  let metrics =
    { Engine.rounds = m_rounds; initiations; deliveries; payload_words; rejected; dropped }
  in
  ( protocol,
    {
      Sweep.job =
        {
          Sweep.family = Sweep.Braided_ring { size = 8; bridges = 3; bridge_latency = 5 };
          n = 256;
          seed;
          protocol;
          latency = None;
          scenario = None;
          max_rounds = 1_000_000;
        };
      n_actual = 256;
      edges = 992;
      record = { Runner.rounds; metrics; route };
      elapsed_s;
    } )

let through_text fields =
  match Json.of_string (Json.to_string (Json.Obj fields)) with
  | Ok j -> j
  | Error e -> QCheck.Test.fail_reportf "emitted JSON does not parse: %s" e

(* The codec reads back exactly what it wrote, through the text, for
   every route: as a bare record, as a checkpoint line, and refused
   under a descriptor of another route kind. *)
let prop_record_roundtrip =
  QCheck.Test.make ~name:"record codec round-trips every route" ~count:500
    (QCheck.make row_gen ~print:(fun (_, o) -> Json.to_string (Sweep.outcome_json o)))
    (fun (protocol, o) ->
      let r = o.Sweep.record in
      let other =
        match r.Runner.route with
        | Runner.Kernel_run -> Runner.Unknown_eid
        | _ -> Runner.Push_pull
      in
      Runner.record_of_json protocol (through_text (Runner.record_fields r)) = Some r
      && Runner.record_of_json other (through_text (Runner.record_fields r)) = None
      && Sweep.entry_of_json (through_text (Sweep.checkpoint_event (Sweep.Ckpt_done o)))
         = Some (Sweep.Ckpt_done o))

(* A checkpoint line that has been tampered with decodes to [None] or
   to an entry, never to an exception: drop a field, or replace one
   (top level or inside the route) with a value of another type. *)
let prop_tampered_rows_never_raise =
  let junk = QCheck.Gen.oneofl Json.[ Null; Bool true; Int (-1); Float 0.5; String "x"; List [] ] in
  QCheck.Test.make ~name:"tampered checkpoint lines never raise" ~count:3000
    (QCheck.make
       QCheck.Gen.(triple row_gen (int_bound 1_000) (pair bool junk))
       ~print:(fun ((_, o), _, _) -> Json.to_string (Sweep.outcome_json o)))
    (fun ((_, o), pick, (drop, v)) ->
      let tamper fields =
        let i = pick mod List.length fields in
        List.concat
          (List.mapi
             (fun k (name, x) ->
               if k <> i then [ (name, x) ] else if drop then [] else [ (name, v) ])
             fields)
      in
      let fields = Sweep.checkpoint_event (Sweep.Ckpt_done o) in
      let nested =
        List.map
          (function
            | "route", Json.Obj r -> ("route", Json.Obj (tamper r)) | f -> f)
          fields
      in
      List.for_all
        (fun fs ->
          match Sweep.entry_of_json (Json.Obj fs) with _ -> true | exception _ -> false)
        [ tamper fields; nested ])

(* The corners the property must not leave to chance. *)
let test_record_corners () =
  let metrics =
    {
      Engine.rounds = 7;
      initiations = 1;
      deliveries = 2;
      payload_words = 2;
      rejected = 0;
      dropped = 0;
    }
  in
  let roundtrip label protocol route rounds =
    let r = { Runner.rounds; metrics; route } in
    match Json.of_string (Json.to_string (Json.Obj (Runner.record_fields r))) with
    | Ok j -> checkb label true (Runner.record_of_json protocol j = Some r)
    | Error e -> Alcotest.failf "%s: %s" label e
  in
  let chain attempts = { Runner.k_final = 4; unanimous = true; attempts } in
  let attempt k =
    {
      Eid.ua_k = k;
      ua_discovery_rounds = 10;
      ua_schedule_rounds = 72;
      ua_rr_rounds = 77;
      ua_check_rounds = 154;
      ua_edges_known = 224;
      ua_spanner_out_degree = 8;
      ua_spanner_edges = 171;
      ua_failed = k < 4;
      ua_unanimous = k = 4;
    }
  in
  roundtrip "capped kernel run" Runner.Flood Runner.Kernel_run None;
  roundtrip "whole-second build_s" (Runner.Rr_spanner { stretch_k = 0 })
    (Runner.Spanner_run
       { Runner.k = 6; edges = 171; max_out_degree = 8; out_degree_bound = 9; build_s = 0.0 })
    (Some 21);
  roundtrip "empty chain" Runner.Unknown_eid (Runner.Eid_chain (chain [])) None;
  roundtrip "multi-attempt chain" Runner.Unknown_eid
    (Runner.Eid_chain (chain [ attempt 1; attempt 2; attempt 4 ]))
    (Some 2151);
  roundtrip "capped push-pull branch" Runner.Unified
    (Runner.Unified_race
       {
         Runner.winner = D.Scale_spanner_route_won;
         pushpull_rounds = None;
         spanner_rounds = 2195;
         eid = chain [ attempt 1; attempt 2 ];
       })
    (Some 2195);
  (* The route object's shape, as documented in DESIGN.md. *)
  let fields =
    Runner.record_fields
      {
        Runner.rounds = Some 25;
        metrics;
        route =
          Runner.Unified_race
            {
              Runner.winner = D.Scale_push_pull_won;
              pushpull_rounds = Some 25;
              spanner_rounds = 2195;
              eid = chain [];
            };
      }
  in
  checks "race route"
    {|{"kind":"race","winner":"push-pull","pushpull_rounds":25,"spanner_rounds":2195,"k_final":4,"unanimous":true,"attempts":[]}|}
    (Json.to_string (List.assoc "route" fields))

(* The report of [run_ft] on [jobs], as the sweep writes it, with the
   wall-clock fields dropped. *)
let stripped_report (r : Sweep.report) =
  let rec strip = function
    | Json.Obj fs ->
        Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if List.mem k [ "elapsed_s"; "mean_elapsed_s"; "build_s" ] then None
               else Some (k, strip v))
             fs)
    | Json.List l -> Json.List (List.map strip l)
    | j -> j
  in
  Json.to_string (strip (Sweep.to_json ~failures:r.Sweep.failed r.Sweep.completed))

(* A unified sweep killed after its first trial resumes to the report
   of the uninterrupted run, routes included. *)
let test_sweep_resume_unified () =
  with_temp_file (fun path ->
      let jobs =
        Sweep.make_jobs
          ~family:(Sweep.Braided_ring { size = 8; bridges = 3; bridge_latency = 5 })
          ~n:64 ~protocol:Runner.Unified ~trials:3 ~base_seed:7 ~max_rounds:1_000_000 ()
      in
      let full = Sweep.run_ft ~workers:1 ~checkpoint:path jobs in
      checki "all complete" 3 (List.length full.Sweep.completed);
      let first =
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
      in
      let oc = open_out path in
      output_string oc (first ^ "\n");
      close_out oc;
      let resumed = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true jobs in
      checki "first trial from the checkpoint" 1 resumed.Sweep.skipped;
      List.iter
        (fun (o : Sweep.outcome) ->
          match o.Sweep.record.Runner.route with
          | Runner.Unified_race _ -> ()
          | _ -> Alcotest.fail "unified outcome without its race")
        resumed.Sweep.completed;
      checks "resumed report = uninterrupted" (stripped_report full) (stripped_report resumed))

(* Checkpoint lines written before rows carried routes: a kernel
   route's line is byte-identical to today's and resumes without a
   re-run; a chain's has no route and is re-run. *)
let test_sweep_resume_older_lines () =
  let older =
    [
      {|{"ev":"ckpt_job","family":{"kind":"ring-of-cliques","size":6,"bridge_latency":4},"n_requested":48,"n":48,"edges":128,"seed":1,"protocol":"push-pull","max_rounds":100000,"rounds":26,"initiations":1248,"deliveries":2392,"payload_words":2392,"dropped":0,"elapsed_s":0.00039982795715332031,"rounds_executed":26,"rejected":0}|};
      {|{"ev":"ckpt_job","family":{"kind":"ring-of-cliques","size":6,"bridge_latency":4},"n_requested":48,"n":48,"edges":128,"seed":1,"protocol":"unknown-eid","max_rounds":100000,"rounds":1887,"initiations":48052,"deliveries":95728,"payload_words":95728,"dropped":0,"elapsed_s":0.02425694465637207,"rounds_executed":1887,"rejected":0}|};
    ]
  in
  with_temp_file (fun path ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) older;
      close_out oc;
      let job protocol =
        List.hd
          (Sweep.make_jobs
             ~family:(Sweep.Ring_of_cliques { size = 6; bridge_latency = 4 })
             ~n:48 ~protocol ~trials:1 ~base_seed:1 ~max_rounds:100_000 ())
      in
      let ran = ref [] in
      let inject (j : Sweep.job) = ran := Runner.protocol_name j.Sweep.protocol :: !ran in
      let report =
        Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true ~inject
          [ job Runner.Push_pull; job Runner.Unknown_eid ]
      in
      checki "push-pull line resumed" 1 report.Sweep.skipped;
      Alcotest.(check (list string)) "only the chain re-ran" [ "unknown-eid" ] !ran;
      match report.Sweep.completed with
      | [ pp; eid ] ->
          checks "push-pull line written back byte for byte" (List.hd older)
            (Json.to_string (Json.Obj (Sweep.checkpoint_event (Sweep.Ckpt_done pp))));
          (match eid.Sweep.record.Runner.route with
          | Runner.Eid_chain c -> checkb "attempts recorded" true (c.Runner.attempts <> [])
          | _ -> Alcotest.fail "re-run chain without its route");
          Alcotest.(check (option int)) "re-run is deterministic" (Some 1887)
            eid.Sweep.record.Runner.rounds
      | l -> Alcotest.failf "expected two outcomes, got %d" (List.length l))

(* A checkpoint answers only for the jobs it recorded: the same seeds
   on a family with other parameters are other jobs, and re-run. *)
let test_sweep_resume_keys_on_identity () =
  with_temp_file (fun path ->
      let jobs size bridge_latency =
        Sweep.make_jobs
          ~family:(Sweep.Ring_of_cliques { size; bridge_latency })
          ~n:96 ~protocol:Runner.Push_pull ~trials:2 ~base_seed:7 ~max_rounds:100_000 ()
      in
      ignore (Sweep.run_ft ~workers:1 ~checkpoint:path (jobs 6 4));
      let other = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true (jobs 8 9) in
      checki "nothing reused" 0 other.Sweep.skipped;
      checks "a fresh run's report" (stripped_report (Sweep.run_ft ~workers:1 (jobs 8 9)))
        (stripped_report other);
      let again = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true (jobs 6 4 @ jobs 8 9) in
      checki "both families recorded" 4 again.Sweep.skipped)

(* Resume keys on the latency redraw and the scenario too.  Before it
   did, resuming a unit-latency checkpoint with [--latency uniform:1-9]
   reported the unit-latency rounds (mean 57.5) where a fresh run gives
   81.5.  Jobs without the specs keep writing lines without them. *)
let test_sweep_resume_keys_on_specs () =
  let module Scenario = Gossip_dyn.Scenario in
  let module Gen = Gossip_graph.Gen in
  with_temp_file (fun path ->
      let jobs ?latency ?scenario () =
        Sweep.make_jobs
          ~family:(Sweep.Ring_of_cliques { size = 6; bridge_latency = 4 })
          ~n:96 ~protocol:Runner.Push_pull ~trials:2 ~base_seed:7 ~max_rounds:100_000 ?latency
          ?scenario ()
      in
      let mean (r : Sweep.report) =
        let rounds =
          List.map (fun o -> Option.get o.Sweep.record.Runner.rounds) r.Sweep.completed
        in
        float_of_int (List.fold_left ( + ) 0 rounds) /. float_of_int (List.length rounds)
      in
      let plain = Sweep.run_ft ~workers:1 ~checkpoint:path (jobs ()) in
      checkb "unit-latency mean" true (mean plain = 57.5);
      List.iter
        (fun line ->
          checkb "no spec fields" true
            (Json.field line "latency" = None && Json.field line "scenario" = None))
        (List.filter_map Result.to_option (Json.read_lines path));
      let latency = Gen.Uniform (1, 9) in
      let redrawn = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true (jobs ~latency ()) in
      checki "latency: nothing reused" 0 redrawn.Sweep.skipped;
      checkb "latency: a fresh run's mean" true (mean redrawn = 81.5);
      let scenario =
        Scenario.of_string {|{"name": "blip", "churn": [{"node": 5, "leave": 2, "rejoin": 9}]}|}
      in
      let churned =
        Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true (jobs ~latency ~scenario ())
      in
      checki "scenario: nothing reused" 0 churned.Sweep.skipped;
      checks "scenario: a fresh run's report"
        (stripped_report (Sweep.run_ft ~workers:1 (jobs ~latency ~scenario ())))
        (stripped_report churned);
      let all = jobs () @ jobs ~latency () @ jobs ~latency ~scenario () in
      let again = Sweep.run_ft ~workers:1 ~checkpoint:path ~resume:true all in
      checki "every spec recorded" 6 again.Sweep.skipped;
      let completed = plain.Sweep.completed @ redrawn.Sweep.completed @ churned.Sweep.completed in
      checks "the same report"
        (stripped_report { plain with Sweep.completed })
        (stripped_report again))

let () =
  Alcotest.run "gossip_sweep"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
          Alcotest.test_case "write file" `Quick test_json_write;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "name round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "auto parameters" `Quick test_protocol_auto_parameters;
          QCheck_alcotest.to_alcotest prop_protocol_roundtrip;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order_preserved;
          Alcotest.test_case "empty and clamp" `Quick test_pool_empty_and_clamp;
          Alcotest.test_case "default workers" `Quick test_pool_default_workers;
          Alcotest.test_case "outcomes capture failures" `Quick test_pool_outcomes_capture;
          Alcotest.test_case "retry recovers" `Quick test_pool_retry_recovers;
          Alcotest.test_case "retries exhausted" `Quick test_pool_retries_exhausted;
          Alcotest.test_case "streams results" `Quick test_pool_streams_results;
          Alcotest.test_case "microsecond rounding" `Quick test_pool_us_rounding;
          Alcotest.test_case "failure counters" `Quick test_pool_failure_counters;
          Alcotest.test_case "budget workers" `Quick test_pool_budget_workers;
          QCheck_alcotest.to_alcotest pool_random_failures;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "runs and completes" `Quick test_sweep_runs_and_completes;
          Alcotest.test_case "deterministic across workers" `Quick
            test_sweep_deterministic_across_workers;
          Alcotest.test_case "summarize" `Quick test_sweep_summarize;
          Alcotest.test_case "capped run" `Quick test_sweep_capped_run;
          Alcotest.test_case "latency override" `Quick test_sweep_latency_override;
          Alcotest.test_case "json shape" `Quick test_sweep_json_shape;
          Alcotest.test_case "summarize by realized n" `Quick
            test_sweep_summarize_realized_n;
          Alcotest.test_case "run_ft inject" `Quick test_sweep_run_ft_inject;
          Alcotest.test_case "run_ft retry recovers" `Quick
            test_sweep_run_ft_retry_recovers;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_sweep_checkpoint_roundtrip;
          Alcotest.test_case "resume skips recorded" `Quick
            test_sweep_resume_skips_recorded;
          Alcotest.test_case "checkpoint records failures" `Quick
            test_sweep_checkpoint_records_failures;
          Alcotest.test_case "sharded jobs deterministic" `Quick
            test_sweep_sharded_jobs_deterministic;
          Alcotest.test_case "resume requires checkpoint" `Quick
            test_sweep_resume_requires_checkpoint;
          Alcotest.test_case "on_round on every route" `Quick test_sweep_on_round_every_route;
          Alcotest.test_case "invalid protocol" `Quick test_sweep_invalid_protocol;
          Alcotest.test_case "unified resumes to the uninterrupted report" `Quick
            test_sweep_resume_unified;
          Alcotest.test_case "older checkpoint lines" `Quick test_sweep_resume_older_lines;
          Alcotest.test_case "resume keys on the job's identity" `Quick
            test_sweep_resume_keys_on_identity;
          Alcotest.test_case "resume keys on latency and scenario" `Quick
            test_sweep_resume_keys_on_specs;
        ] );
      ( "record",
        [
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
          QCheck_alcotest.to_alcotest prop_tampered_rows_never_raise;
          Alcotest.test_case "codec corners" `Quick test_record_corners;
        ] );
    ]
