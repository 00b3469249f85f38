(* The serve daemon: framing, wire-protocol codecs, the bounded job
   queue, and the full socket loop driven in-process.

   The server tests run a real daemon (socket loop + worker thread) on
   a Unix socket under [Filename.get_temp_dir_name], with signals off
   and a fast tick; determinism is enforced where it matters — job
   results fetched over the socket must be byte-identical (modulo
   wall-clock fields) to a direct [Sweep.run_ft] of the same specs. *)

module Frame = Gossip_serve.Frame
module P = Gossip_serve.Protocol
module Jobq = Gossip_serve.Jobq
module Server = Gossip_serve.Server
module Client = Gossip_serve.Client
module Sweep = Gossip_sweep.Sweep
module Runner = Gossip_sweep.Runner
module Lat = Gossip_graph.Gen
module Json = Gossip_util.Json

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_basic () =
  let r = Frame.reader () in
  Alcotest.(check (list string))
    "two frames, one feed"
    [ "{\"a\":1}"; "{\"b\":2}" ]
    (Frame.feed_string r "{\"a\":1}\n{\"b\":2}\n");
  Alcotest.(check int) "nothing pending" 0 (Frame.pending r)

let test_frame_torn () =
  let r = Frame.reader () in
  Alcotest.(check (list string)) "torn line waits" [] (Frame.feed_string r "{\"a\"");
  Alcotest.(check int) "bytes pending" 4 (Frame.pending r);
  Alcotest.(check (list string))
    "completed on next feed" [ "{\"a\":1}" ]
    (Frame.feed_string r ":1}\n")

let test_frame_byte_at_a_time () =
  let r = Frame.reader () in
  let wire = "{\"x\":true}\n{\"y\":null}\n" in
  let got = ref [] in
  String.iter (fun c -> got := !got @ Frame.feed_string r (String.make 1 c)) wire;
  Alcotest.(check (list string))
    "one byte per feed" [ "{\"x\":true}"; "{\"y\":null}" ] !got

let test_frame_crlf_blank () =
  let r = Frame.reader () in
  Alcotest.(check (list string))
    "\\r stripped, blanks skipped" [ "{}" ]
    (Frame.feed_string r "\n  \n{}\r\n")

let test_frame_oversized () =
  let r = Frame.reader ~max_line:8 () in
  let lines = Frame.feed_string r (String.make 100 'x' ^ "\n{\"ok\":1}\n") in
  Alcotest.(check (list string)) "oversized frame dropped" [ "{\"ok\":1}" ] lines;
  Alcotest.(check int) "drop counted" 1 (Frame.oversized r)

(* ------------------------------------------------------------------ *)
(* Codec round-trips through torn frames (qcheck) *)

module QGen = QCheck.Gen

let family_gen =
  QGen.oneof
    [
      QGen.map2
        (fun size bridge -> Sweep.Ring_of_cliques { size; bridge_latency = bridge })
        (QGen.int_range 3 16) (QGen.int_range 1 24);
      QGen.map (fun attach -> Sweep.Barabasi_albert { attach }) (QGen.int_range 1 8);
      QGen.map2
        (fun k beta -> Sweep.Watts_strogatz { k; beta })
        (QGen.int_range 2 10)
        (QGen.oneofl [ 0.0; 0.1; 0.25; 0.5; 1.0 ]);
    ]

let latency_gen =
  QGen.oneof
    [
      QGen.return Lat.Unit;
      QGen.map (fun k -> Lat.Fixed k) (QGen.int_range 1 16);
      QGen.map2 (fun lo span -> Lat.Uniform (lo, lo + span)) (QGen.int_range 1 8)
        (QGen.int_range 0 8);
      QGen.map2
        (fun (fast, slow) p_fast -> Lat.Bimodal { fast; slow; p_fast })
        (QGen.pair (QGen.int_range 1 4) (QGen.int_range 5 40))
        (QGen.oneofl [ 0.25; 0.5; 0.9 ]);
      QGen.map2
        (fun (min_latency, max_latency) exponent ->
          Lat.Power_law { min_latency; max_latency; exponent })
        (QGen.pair (QGen.int_range 1 4) (QGen.int_range 5 64))
        (QGen.oneofl [ 1.5; 2.0; 2.5 ]);
    ]

let protocol_gen = QGen.oneofl (List.filter_map Runner.protocol_of_string Runner.known_protocols)

(* A representative dynamic scenario for the optional submit field
   (drift on slow edges plus one rejoining node). *)
let drift_scenario =
  Gossip_dyn.Scenario.of_string
    {|{"name": "drift", "seed": 3,
       "schedules": [{"kind": "linear", "rate": 0.25, "cap": 2,
                      "filter": {"kind": "lat-ge", "latency": 4}}],
       "churn": [{"node": 7, "leave": 3, "rejoin": 9}]}|}

let spec_gen =
  let open QGen in
  let* family = family_gen in
  let* n = int_range 1 100_000 in
  let* protocol = protocol_gen in
  let* trials = int_range 1 16 in
  let* base_seed = int_range 0 1_000_000 in
  let* max_rounds = int_range 1 1_000_000 in
  let* latency = opt latency_gen in
  let* scenario = opt (oneofl [ Gossip_dyn.Scenario.static; drift_scenario ]) in
  return { P.family; n; protocol; trials; base_seed; max_rounds; latency; scenario }

let job_id_gen =
  QGen.string_size ~gen:(QGen.oneofl [ 'a'; 'z'; '0'; '-'; ' '; '"'; '\\'; '{' ])
    (QGen.int_range 1 12)

let request_gen =
  let open QGen in
  oneof
    [
      return P.Ping;
      map (fun s -> P.Submit s) spec_gen;
      map (fun j -> P.Status j) job_id_gen;
      map (fun j -> P.Watch j) job_id_gen;
      map (fun j -> P.Cancel j) job_id_gen;
      map (fun j -> P.Results j) job_id_gen;
      return P.Stats;
      return P.Shutdown;
    ]

let state_gen = QGen.oneofl [ P.Queued; P.Running; P.Done; P.Failed; P.Cancelled ]

let status_gen =
  let open QGen in
  let* s_job = job_id_gen in
  let* s_state = state_gen in
  let* s_trials = int_range 1 32 in
  let* s_completed = int_range 0 32 in
  let* s_failed = int_range 0 32 in
  let* s_position = opt (int_range 0 64) in
  return { P.s_job; s_state; s_trials; s_completed; s_failed; s_position }

let row_gen =
  let open QGen in
  let* i = int_range 0 1000 in
  let* s = job_id_gen in
  let* f = oneofl [ 0.5; 1.25; 3.75 ] in
  return (Json.Obj [ ("n", Json.Int i); ("tag", Json.String s); ("x", Json.Float f) ])

let scalars_gen =
  QGen.small_list (QGen.pair (QGen.string_size ~gen:(QGen.char_range 'a' 'z') (QGen.int_range 1 8)) QGen.small_nat)

let error_code_gen =
  QGen.oneofl [ P.Bad_request; P.Version_mismatch; P.Unknown_job; P.Queue_full; P.Shutting_down ]

let response_gen =
  let open QGen in
  oneof
    [
      map2 (fun proto server -> P.Pong { proto; server }) small_nat job_id_gen;
      map2
        (fun job (position, trials) -> P.Submitted { job; position; trials })
        job_id_gen
        (pair small_nat (int_range 1 16));
      map (fun s -> P.Job_status s) status_gen;
      map (fun job -> P.Watching { job }) job_id_gen;
      (let* p_job = job_id_gen in
       let* p_trial = int_range 0 15 in
       let* p_trials = int_range 1 16 in
       let* p_seed = int_range 0 100_000 in
       let* p_round = small_nat in
       let* p_informed = small_nat in
       let* p_n = int_range 1 100_000 in
       return (P.Progress { p_job; p_trial; p_trials; p_seed; p_round; p_informed; p_n }));
      (let* job = job_id_gen in
       let* trial = int_range 0 15 in
       let* trials = int_range 1 16 in
       let* seed = int_range 0 100_000 in
       let* rounds = opt small_nat in
       let* ok = bool in
       return (P.Trial_done { job; trial; trials; seed; rounds; ok }));
      map (fun s -> P.Job_done s) status_gen;
      map2 (fun job row -> P.Result_row { job; row }) job_id_gen row_gen;
      map2 (fun job count -> P.Results_end { job; count }) job_id_gen small_nat;
      map2 (fun counters gauges -> P.Server_stats { counters; gauges }) scalars_gen scalars_gen;
      map2 (fun job state -> P.Cancel_ok { job; state }) job_id_gen state_gen;
      return P.Bye;
      map2 (fun code message -> P.Error { code; message }) error_code_gen job_id_gen;
    ]

(* Feed [wire] through a fresh reader, splitting at the byte
   boundaries derived from [cuts] — the codec must be oblivious to how
   the stream was torn. *)
let lines_via_torn_reader wire cuts =
  let n = String.length wire in
  let cuts = List.sort_uniq compare (0 :: n :: List.map (fun c -> c mod (n + 1)) cuts) in
  let r = Frame.reader () in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        go (acc @ Frame.feed_string r (String.sub wire a (b - a))) rest
    | _ -> acc
  in
  go [] cuts

let decode_all of_json lines =
  List.map
    (fun line ->
      match Json.of_string line with
      | Error msg -> QCheck.Test.fail_reportf "undecodable line %S: %s" line msg
      | Ok j -> (
          match of_json j with
          | Ok v -> v
          | Error msg -> QCheck.Test.fail_reportf "codec rejected %S: %s" line msg))
    lines

let request_roundtrip =
  QCheck.Test.make ~name:"request codecs round-trip through torn frames" ~count:300
    (QCheck.make
       ~print:(fun (reqs, _) ->
         String.concat "" (List.map (fun r -> Frame.frame (P.request_to_json r)) reqs))
       (QGen.pair
          (QGen.list_size (QGen.int_range 1 8) request_gen)
          (QGen.list_size (QGen.int_range 0 40) (QGen.int_range 0 10_000))))
    (fun (reqs, cuts) ->
      let wire = String.concat "" (List.map (fun r -> Frame.frame (P.request_to_json r)) reqs) in
      let decoded =
        decode_all
          (fun j -> Result.map_error snd (P.request_of_json j))
          (lines_via_torn_reader wire cuts)
      in
      decoded = reqs)

let response_roundtrip =
  QCheck.Test.make ~name:"response codecs round-trip through torn frames" ~count:300
    (QCheck.make
       ~print:(fun (resps, _) ->
         String.concat "" (List.map (fun r -> Frame.frame (P.response_to_json r)) resps))
       (QGen.pair
          (QGen.list_size (QGen.int_range 1 8) response_gen)
          (QGen.list_size (QGen.int_range 0 40) (QGen.int_range 0 10_000))))
    (fun (resps, cuts) ->
      let wire =
        String.concat "" (List.map (fun r -> Frame.frame (P.response_to_json r)) resps)
      in
      let decoded = decode_all P.response_of_json (lines_via_torn_reader wire cuts) in
      decoded = resps)

(* ------------------------------------------------------------------ *)
(* Jobq *)

let small_spec ?latency ?scenario ?(trials = 2) ?(seed = 42) () =
  {
    P.family = Sweep.Ring_of_cliques { size = 8; bridge_latency = 8 };
    n = 64;
    protocol = Runner.Push_pull;
    trials;
    base_seed = seed;
    max_rounds = 500;
    latency;
    scenario;
  }

(* Checkpoint records for the table tests: trial 0 of [spec] run for
   real, and a recorded failure of it. *)
let done_entry spec = Sweep.Ckpt_done (Sweep.run_job (List.hd (P.jobs_of_spec spec)))

let failed_entry spec =
  Sweep.Ckpt_failed
    {
      Sweep.failed_job = List.hd (P.jobs_of_spec spec);
      message = "boom";
      backtrace = "";
      attempts = 1;
    }

let test_jobq_lifecycle () =
  let q = Jobq.create ~capacity:4 () in
  let sub = Result.get_ok (Jobq.submit q (small_spec ())) in
  Alcotest.(check string) "first id" "job-1" sub.Jobq.id;
  Alcotest.(check int) "position" 0 sub.Jobq.position;
  Alcotest.(check int) "trials expanded" 2 sub.Jobq.trials;
  Alcotest.(check int) "depth counts the job just queued" 1 sub.Jobq.depth;
  let st = Option.get (Jobq.status q "job-1") in
  Alcotest.(check bool) "queued" true (st.P.s_state = P.Queued);
  Alcotest.(check (option int)) "queue position" (Some 0) st.P.s_position;
  let id = Option.get (Jobq.next q) in
  Alcotest.(check string) "claimed oldest" "job-1" id;
  Alcotest.(check bool) "running" true
    ((Option.get (Jobq.status q id)).P.s_state = P.Running);
  Jobq.record q ~id ~trial:0 (done_entry (small_spec ()));
  Jobq.record q ~id ~trial:1 (failed_entry (small_spec ()));
  Alcotest.(check bool) "failed trials make the job Failed" true
    (Jobq.finish q id = Some P.Failed);
  let st = Option.get (Jobq.status q id) in
  Alcotest.(check (pair int int)) "counts" (1, 1) (st.P.s_completed, st.P.s_failed);
  Alcotest.(check int) "only ok rows" 1 (List.length (Jobq.rows q id))

let test_jobq_backpressure () =
  let q = Jobq.create ~capacity:2 () in
  ignore (Result.get_ok (Jobq.submit q (small_spec ())));
  Alcotest.(check int) "depth at capacity" 2
    (Result.get_ok (Jobq.submit q (small_spec ()))).Jobq.depth;
  (match Jobq.submit q (small_spec ()) with
  | Error `Full -> ()
  | Ok _ -> Alcotest.fail "third submit must be rejected");
  (* a terminal entry frees its slot *)
  let id = Option.get (Jobq.next q) in
  Jobq.record q ~id ~trial:0 (done_entry (small_spec ()));
  Jobq.record q ~id ~trial:1 (done_entry (small_spec ()));
  ignore (Jobq.finish q id);
  match Jobq.submit q (small_spec ()) with
  | Ok sub -> Alcotest.(check int) "terminal entries leave the depth" 2 sub.Jobq.depth
  | Error `Full -> Alcotest.fail "slot must be free after finish"

let test_jobq_cancel_and_ids () =
  let q = Jobq.create () in
  let a = Result.get_ok (Jobq.submit q (small_spec ())) in
  Alcotest.(check bool) "cancel queued is immediate" true
    (Jobq.cancel q a.Jobq.id = Some P.Cancelled);
  (* the cancelled entry never reaches the worker *)
  Jobq.release q;
  Alcotest.(check bool) "released queue yields nothing" true (Jobq.next q = None);
  Jobq.absorb q "job-17";
  let b = Result.get_ok (Jobq.submit q (small_spec ())) in
  Alcotest.(check string) "absorbed ids are never reissued" "job-18" b.Jobq.id

(* The table as the worker-to-loop channel: every record comes out of
   [take] once, in trial order; progress samples coalesce to the
   newest; the close comes once; restored records are never taken. *)
let test_jobq_take () =
  let q = Jobq.create () in
  let spec = small_spec ~trials:4 () in
  let id = (Result.get_ok (Jobq.submit q spec)).Jobq.id in
  Jobq.restore q ~id ~trial:0 (done_entry spec);
  Alcotest.(check bool) "restored trial is done" true (Jobq.trial_done q ~id ~trial:0);
  Alcotest.(check int) "nothing to take after a restore" 0 (List.length (Jobq.take q));
  ignore (Jobq.next q);
  let sample round =
    {
      P.p_job = id;
      p_trial = 1;
      p_trials = 4;
      p_seed = 42;
      p_round = round;
      p_informed = round;
      p_n = 64;
    }
  in
  Alcotest.(check bool) "no cancel requested" false (Jobq.progress q (sample 1));
  ignore (Jobq.progress q (sample 2));
  Jobq.record q ~id ~trial:1 (done_entry spec);
  Jobq.record q ~id ~trial:2 (failed_entry spec);
  (match Jobq.take q with
  | [ { Jobq.job; trials; finished; progress; closed } ] ->
      Alcotest.(check string) "job" id job;
      Alcotest.(check int) "trials" 4 trials;
      Alcotest.(check (list int)) "new records, trial order" [ 1; 2 ] (List.map fst finished);
      Alcotest.(check (option int)) "newest sample only" (Some 2)
        (Option.map (fun p -> p.P.p_round) progress);
      Alcotest.(check bool) "not closed yet" true (closed = None)
  | us -> Alcotest.failf "expected one update, got %d" (List.length us));
  Alcotest.(check int) "taken once" 0 (List.length (Jobq.take q));
  ignore (Jobq.cancel q id);
  Alcotest.(check bool) "cancel reaches the worker" true (Jobq.progress q (sample 3));
  Jobq.record q ~id ~trial:3 (done_entry spec);
  ignore (Jobq.finish q id);
  (match Jobq.take q with
  | [ { Jobq.finished = [ (3, _) ]; closed = Some s; _ } ] ->
      Alcotest.(check bool) "closed as cancelled" true (s.P.s_state = P.Cancelled);
      Alcotest.(check (pair int int)) "counts from the records" (3, 1)
        (s.P.s_completed, s.P.s_failed)
  | _ -> Alcotest.fail "expected trial 3 and the close");
  Alcotest.(check int) "close taken once" 0 (List.length (Jobq.take q));
  Alcotest.(check int) "rows of the finished trials" 3 (List.length (Jobq.rows q id))

let test_jobq_requeue_head () =
  let q = Jobq.create () in
  let a = Result.get_ok (Jobq.submit q (small_spec ())) in
  let b = Result.get_ok (Jobq.submit q (small_spec ())) in
  let id = Option.get (Jobq.next q) in
  Alcotest.(check string) "fifo claim" a.Jobq.id id;
  Jobq.requeue q id;
  Alcotest.(check bool) "requeued back to Queued" true
    ((Option.get (Jobq.status q id)).P.s_state = P.Queued);
  let position id = (Option.get (Jobq.status q id)).P.s_position in
  Alcotest.(check (option int)) "requeued job heads the queue" (Some 0) (position a.Jobq.id);
  Alcotest.(check (option int)) "the queued job moves behind it" (Some 1) (position b.Jobq.id);
  Alcotest.(check (option string)) "requeued job claimed first" (Some a.Jobq.id) (Jobq.next q);
  Alcotest.(check (option string)) "then the next queued one" (Some b.Jobq.id) (Jobq.next q)

(* ------------------------------------------------------------------ *)
(* In-process server harness *)

let sock_path =
  let c = ref 0 in
  fun () ->
    incr c;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gossipd-t%d-%d.sock" (Unix.getpid ()) !c)

(* A gate for [before_job]: jobs claimed by the worker block until the
   test releases them, keeping queue occupancy deterministic. *)
let gate () =
  let m = Mutex.create () and cv = Condition.create () and open_ = ref false in
  let hold _id =
    Mutex.lock m;
    while not !open_ do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    open_ := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  (hold, release)

let start_server ?(tick_s = 0.005) cfg =
  let m = Mutex.create () and cv = Condition.create () and ready = ref false in
  let cfg =
    {
      cfg with
      Server.install_signals = false;
      tick_s;
      on_listening =
        Some
          (fun () ->
            Mutex.lock m;
            ready := true;
            Condition.signal cv;
            Mutex.unlock m);
    }
  in
  let th = Thread.create Server.run cfg in
  Mutex.lock m;
  while not !ready do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  th

let stop_server sock th =
  (try Client.with_connect sock (fun c -> ignore (Client.rpc c P.Shutdown))
   with _ -> ());
  Thread.join th

let with_server ?(capacity = 16) ?journal ?before_job f =
  let sock = sock_path () in
  let cfg =
    { (Server.default ~socket_path:sock) with Server.capacity; journal; before_job }
  in
  let th = start_server cfg in
  Fun.protect ~finally:(fun () -> stop_server sock th) (fun () -> f sock)

let submit_ok c spec =
  match Client.rpc c (P.Submit spec) with
  | P.Submitted { job; _ } -> job
  | r -> Alcotest.failf "submit: unexpected %s" (Json.to_string (P.response_to_json r))

let rec wait_terminal ?(deadline = 30.0) c job =
  match Client.rpc c (P.Status job) with
  | P.Job_status s -> (
      match s.P.s_state with
      | P.Done | P.Failed | P.Cancelled -> s
      | P.Queued | P.Running ->
          if deadline <= 0.0 then Alcotest.failf "job %s never finished" job
          else begin
            Thread.delay 0.01;
            wait_terminal ~deadline:(deadline -. 0.01) c job
          end)
  | r -> Alcotest.failf "status: unexpected %s" (Json.to_string (P.response_to_json r))

let fetch_rows c job =
  let rows = ref [] in
  Client.stream c (P.Results job) (fun r ->
      match r with
      | P.Result_row { row; _ } ->
          rows := row :: !rows;
          `Continue
      | P.Results_end _ -> `Stop
      | r -> Alcotest.failf "results: unexpected %s" (Json.to_string (P.response_to_json r)));
  List.rev !rows

(* Wall-clock fields are the one nondeterministic part of a result row:
   the job's [elapsed_s] and an rr-spanner route's [build_s]. *)
let rec strip_elapsed = function
  | Json.Obj fs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "elapsed_s" || k = "build_s" then None else Some (k, strip_elapsed v))
           fs)
  | j -> j

let row_strings rows = List.map (fun r -> Json.to_string (strip_elapsed r)) rows

let direct_rows spec =
  let report = Sweep.run_ft ~workers:2 (P.jobs_of_spec spec) in
  Alcotest.(check int) "direct run has no failures" 0 (List.length report.Sweep.failed);
  List.map (fun o -> Json.to_string (strip_elapsed (Sweep.outcome_json o))) report.Sweep.completed

(* ------------------------------------------------------------------ *)
(* Server tests *)

let test_server_ping_and_errors () =
  with_server (fun sock ->
      Client.with_connect sock (fun c ->
          (match Client.rpc c P.Ping with
          | P.Pong { proto; _ } -> Alcotest.(check int) "protocol version" P.version proto
          | r -> Alcotest.failf "ping: %s" (Json.to_string (P.response_to_json r)));
          (match Client.rpc c (P.Status "job-99") with
          | P.Error { code = P.Unknown_job; _ } -> ()
          | r -> Alcotest.failf "unknown job: %s" (Json.to_string (P.response_to_json r)));
          (* the connection survives an error frame *)
          Client.send c P.Ping;
          ignore (Client.recv c)))

let test_server_rejects_foreign_version () =
  with_server (fun sock ->
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (ADDR_UNIX sock);
          let say line =
            ignore (Unix.write_substring fd line 0 (String.length line))
          in
          say "this is not json\n";
          say "{\"v\":99,\"req\":\"ping\"}\n";
          say (Frame.frame (P.request_to_json P.Ping));
          let r = Frame.reader () in
          let buf = Bytes.create 4096 in
          let rec collect acc =
            if List.length acc >= 3 then acc
            else
              match Unix.read fd buf 0 4096 with
              | 0 -> acc
              | n -> collect (acc @ Frame.feed r buf ~off:0 ~len:n)
          in
          let frames =
            List.map
              (fun l -> Result.get_ok (P.response_of_json (Result.get_ok (Json.of_string l))))
              (collect [])
          in
          match frames with
          | [ P.Error { code = P.Bad_request; _ };
              P.Error { code = P.Version_mismatch; _ };
              P.Pong _ ] ->
              ()
          | _ -> Alcotest.failf "unexpected reply sequence (%d frames)" (List.length frames)))

let test_server_concurrent_results_byte_identical () =
  let specs =
    [|
      small_spec ~trials:3 ~seed:42 ();
      { (small_spec ~trials:2 ~seed:7 ()) with P.family = Sweep.Watts_strogatz { k = 4; beta = 0.1 } };
      small_spec ~trials:2 ~seed:1000 ~latency:(Lat.Uniform (1, 6)) ();
    |]
  in
  let hold, release = gate () in
  with_server ~before_job:hold (fun sock ->
      (* N concurrent submitters *)
      let ids = Array.make (Array.length specs) "" in
      let submitters =
        Array.mapi
          (fun i spec ->
            Thread.create
              (fun () -> Client.with_connect sock (fun c -> ids.(i) <- submit_ok c spec))
              ())
          specs
      in
      Array.iter Thread.join submitters;
      Array.iteri
        (fun i id -> if id = "" then Alcotest.failf "submitter %d got no id" i)
        ids;
      (* plus a watcher following the first job while it runs *)
      let watched = ref [] in
      let watcher =
        Thread.create
          (fun () ->
            Client.with_connect sock (fun c ->
                Client.stream c (P.Watch ids.(0)) (fun r ->
                    watched := r :: !watched;
                    match r with P.Job_done _ -> `Stop | _ -> `Continue)))
          ()
      in
      Thread.delay 0.05;
      release ();
      Thread.join watcher;
      (match !watched with
      | P.Job_done s :: rest ->
          Alcotest.(check bool) "watched job is done" true (s.P.s_state = P.Done);
          Alcotest.(check bool)
            "watch streamed trial frames" true
            (List.exists (function P.Trial_done _ -> true | _ -> false) rest);
          Alcotest.(check bool)
            "watch streamed progress frames" true
            (List.exists (function P.Progress _ -> true | _ -> false) rest)
      | _ -> Alcotest.fail "watch stream did not end in job_done");
      (* every job's rows are byte-identical to a direct run_ft *)
      Client.with_connect sock (fun c ->
          Array.iteri
            (fun i id ->
              let s = wait_terminal c id in
              Alcotest.(check bool) (id ^ " done") true (s.P.s_state = P.Done);
              Alcotest.(check (list string))
                (Printf.sprintf "job %d rows match direct run" i)
                (direct_rows specs.(i))
                (row_strings (fetch_rows c id)))
            ids))

let test_server_backpressure_typed () =
  let hold, release = gate () in
  with_server ~capacity:1 ~before_job:hold (fun sock ->
      Client.with_connect sock (fun c ->
          let id = submit_ok c (small_spec ~trials:1 ()) in
          (* the held job fills the whole queue *)
          (match Client.rpc c (P.Submit (small_spec ~trials:1 ())) with
          | P.Error { code = P.Queue_full; _ } -> ()
          | r -> Alcotest.failf "expected queue_full, got %s" (Json.to_string (P.response_to_json r)));
          (match Client.rpc c P.Stats with
          | P.Server_stats { counters; _ } ->
              Alcotest.(check (option int))
                "rejection counted" (Some 1)
                (List.assoc_opt "serve.rejected" counters)
          | r -> Alcotest.failf "stats: %s" (Json.to_string (P.response_to_json r)));
          release ();
          ignore (wait_terminal c id);
          match Client.rpc c (P.Submit (small_spec ~trials:1 ())) with
          | P.Submitted _ -> ()
          | r -> Alcotest.failf "slot must free up, got %s" (Json.to_string (P.response_to_json r))))

let test_server_cancel_running () =
  let hold, release = gate () in
  with_server ~before_job:hold (fun sock ->
      Client.with_connect sock (fun c ->
          let id = submit_ok c (small_spec ~trials:2 ()) in
          (* claimed by the worker and held: cancellation is a flag the
             worker honours at its next check *)
          Thread.delay 0.05;
          (match Client.rpc c (P.Cancel id) with
          | P.Cancel_ok _ -> ()
          | r -> Alcotest.failf "cancel: %s" (Json.to_string (P.response_to_json r)));
          release ();
          let s = wait_terminal c id in
          Alcotest.(check bool) "cancelled" true (s.P.s_state = P.Cancelled)))

(* The optional scenario field: absent from the v1 wire when None (old
   clients and daemons interoperate unchanged), round-trips when
   present, and a malformed one is a typed decode error. *)
let test_spec_scenario_wire () =
  let with_scenario = small_spec ~scenario:drift_scenario () in
  (match P.spec_of_json (P.spec_to_json with_scenario) with
  | Ok s -> Alcotest.(check bool) "scenario preserved" true (s = with_scenario)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let v1 = P.spec_to_json (small_spec ()) in
  (match v1 with
  | Json.Obj fields ->
      Alcotest.(check bool) "no scenario key on the v1 wire" false
        (List.mem_assoc "scenario" fields)
  | _ -> Alcotest.fail "spec must encode as an object");
  (match P.spec_of_json v1 with
  | Ok s -> Alcotest.(check bool) "v1 decodes to None" true (s.P.scenario = None)
  | Error e -> Alcotest.failf "v1 decode failed: %s" e);
  match v1 with
  | Json.Obj fields -> (
      match P.spec_of_json (Json.Obj (("scenario", Json.String "drift") :: fields)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed scenario accepted")
  | _ -> ()

(* End to end: a scenario-carrying submit runs on a live daemon. *)
let test_server_runs_scenario_job () =
  with_server (fun sock ->
      Client.with_connect sock (fun c ->
          let id = submit_ok c (small_spec ~scenario:drift_scenario ()) in
          let s = wait_terminal c id in
          Alcotest.(check bool) "scenario job done" true (s.P.s_state = P.Done)))

(* A chain job's result rows carry its route: each row reads back to
   the record of a direct Runner.run on the same job's graph, seed and
   source, attempts included. *)
let test_server_rows_carry_route () =
  let spec =
    {
      (small_spec ()) with
      P.family = Sweep.Braided_ring { size = 8; bridges = 3; bridge_latency = 5 };
      protocol = Runner.Unknown_eid;
      max_rounds = 1_000_000;
    }
  in
  with_server (fun sock ->
      Client.with_connect sock (fun c ->
          let id = submit_ok c spec in
          Alcotest.(check bool) "job done" true ((wait_terminal c id).P.s_state = P.Done);
          let rows = fetch_rows c id in
          Alcotest.(check int) "one row per trial" 2 (List.length rows);
          List.iter2
            (fun row (job : Sweep.job) ->
              let csr = Sweep.build job.Sweep.family ~n:job.Sweep.n ~seed:job.Sweep.seed in
              let direct =
                Runner.run csr job.Sweep.protocol ~seed:job.Sweep.seed
                  ~source:(job.Sweep.seed mod Gossip_scale.Csr.n csr)
                  ~max_rounds:job.Sweep.max_rounds
              in
              (match direct.Runner.record.Runner.route with
              | Runner.Eid_chain ch ->
                  Alcotest.(check bool) "direct run made attempts" true (ch.Runner.attempts <> [])
              | _ -> Alcotest.fail "unknown-eid ran no chain");
              (match Option.bind (Json.field row "route") (fun r -> Json.string_field r "kind") with
              | Some "eid" -> ()
              | _ -> Alcotest.failf "row without an eid route: %s" (Json.to_string row));
              Alcotest.(check bool) "row = direct record" true
                (Runner.record_of_json Runner.Unknown_eid row = Some direct.Runner.record))
            rows (P.jobs_of_spec spec)))

let test_server_validates_spec () =
  with_server (fun sock ->
      Client.with_connect sock (fun c ->
          match Client.rpc c (P.Submit { (small_spec ()) with P.trials = 0 }) with
          | P.Error { code = P.Bad_request; _ } -> ()
          | r -> Alcotest.failf "expected bad_request, got %s" (Json.to_string (P.response_to_json r))))

(* Drain on shutdown + journal replay: a daemon stopped with a held
   job must resurrect and finish it on restart, with the id preserved
   and never reissued. *)
let test_server_restart_resumes_queue () =
  let sock = sock_path () in
  let journal = Filename.temp_file "gossipd-journal" ".jsonl" in
  Sys.remove journal;
  let spec = small_spec ~trials:2 ~seed:77 () in
  let hold, release = gate () in
  let cfg = { (Server.default ~socket_path:sock) with Server.journal = Some journal } in
  (* phase 1: accept the job, shut down while the worker holds it *)
  let th = start_server { cfg with Server.before_job = Some hold } in
  let id =
    Client.with_connect sock (fun c ->
        let id = submit_ok c spec in
        ignore (Client.rpc c P.Shutdown);
        id)
  in
  release ();
  Thread.join th;
  Alcotest.(check string) "job id" "job-1" id;
  (* phase 2: a fresh daemon on the same journal finishes the queue *)
  let th = start_server cfg in
  Client.with_connect sock (fun c ->
      let s = wait_terminal c id in
      Alcotest.(check bool) "resumed to done" true (s.P.s_state = P.Done);
      Alcotest.(check (list string)) "rows match a direct run" (direct_rows spec)
        (row_strings (fetch_rows c id));
      let fresh = submit_ok c (small_spec ~trials:1 ()) in
      Alcotest.(check string) "retired ids are not reissued" "job-2" fresh;
      ignore (wait_terminal c fresh));
  stop_server sock th;
  Sys.remove journal

(* Every finished trial reaches the journal, the counters and the
   watchers, however many rounds run between two ticks of the socket
   loop.  Theorem 20's unknown-latency chain runs about 2,200 rounds
   per trial on this 64-node braided ring, and the slow tick lets
   several trials finish between two takes. *)
let test_server_journals_every_trial () =
  let sock = sock_path () in
  let journal = Filename.temp_file "gossipd-journal" ".jsonl" in
  Sys.remove journal;
  let spec =
    {
      P.family = Sweep.Braided_ring { size = 8; bridges = 3; bridge_latency = 5 };
      n = 64;
      protocol = Runner.Unknown_eid;
      trials = 8;
      base_seed = 7;
      max_rounds = 1_000_000;
      latency = None;
      scenario = None;
    }
  in
  let hold, release = gate () in
  let cfg =
    {
      (Server.default ~socket_path:sock) with
      Server.journal = Some journal;
      before_job = Some hold;
    }
  in
  let th = start_server ~tick_s:0.25 cfg in
  let frames = ref [] in
  let ok_trials =
    Fun.protect
      ~finally:(fun () -> stop_server sock th)
      (fun () ->
        let id = Client.with_connect sock (fun c -> submit_ok c spec) in
        Alcotest.(check string) "job id" "job-1" id;
        (* the worker holds the claimed job until the watch is on *)
        Client.with_connect sock (fun c ->
            Client.stream c (P.Watch id) (fun r ->
                frames := r :: !frames;
                match r with
                | P.Watching _ ->
                    release ();
                    `Continue
                | P.Job_done _ -> `Stop
                | _ -> `Continue));
        Client.with_connect sock (fun c ->
            match Client.rpc c P.Stats with
            | P.Server_stats { counters; _ } -> List.assoc_opt "serve.trials.ok" counters
            | r -> Alcotest.failf "stats: %s" (Json.to_string (P.response_to_json r))))
  in
  Alcotest.(check (option int)) "serve.trials.ok" (Some 8) ok_trials;
  let frames = List.rev !frames in
  Alcotest.(check (list int))
    "one trial_done frame per trial, in order" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.filter_map (function P.Trial_done { trial; _ } -> Some trial | _ -> None) frames);
  Alcotest.(check bool)
    "progress frames before job_done" true
    (List.exists (function P.Progress _ -> true | _ -> false) frames);
  (match List.rev frames with
  | P.Job_done s :: _ -> Alcotest.(check bool) "job done" true (s.P.s_state = P.Done)
  | _ -> Alcotest.fail "watch stream did not end in job_done");
  let lines =
    In_channel.with_open_text journal In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l -> Result.to_option (Json.of_string l))
  in
  Sys.remove journal;
  let field name = function Json.Obj fs -> List.assoc_opt name fs | _ -> None in
  Alcotest.(check (list int))
    "one ckpt_job line per trial" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.filter_map
       (fun j ->
         match (field "ev" j, field "job" j, field "trial" j) with
         | Some (Json.String "ckpt_job"), Some (Json.String "job-1"), Some (Json.Int t) ->
             Some t
         | _ -> None)
       lines)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "basic" `Quick test_frame_basic;
          Alcotest.test_case "torn" `Quick test_frame_torn;
          Alcotest.test_case "byte at a time" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "crlf and blanks" `Quick test_frame_crlf_blank;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
        ] );
      ("codec", [ qtest request_roundtrip; qtest response_roundtrip ]);
      ( "jobq",
        [
          Alcotest.test_case "lifecycle" `Quick test_jobq_lifecycle;
          Alcotest.test_case "backpressure" `Quick test_jobq_backpressure;
          Alcotest.test_case "cancel and ids" `Quick test_jobq_cancel_and_ids;
          Alcotest.test_case "requeue head" `Quick test_jobq_requeue_head;
          Alcotest.test_case "take" `Quick test_jobq_take;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and errors" `Quick test_server_ping_and_errors;
          Alcotest.test_case "foreign frames" `Quick test_server_rejects_foreign_version;
          Alcotest.test_case "concurrent clients, byte-identical results" `Quick
            test_server_concurrent_results_byte_identical;
          Alcotest.test_case "typed backpressure" `Quick test_server_backpressure_typed;
          Alcotest.test_case "cancel running job" `Quick test_server_cancel_running;
          Alcotest.test_case "spec validation" `Quick test_server_validates_spec;
          Alcotest.test_case "chain rows carry the route" `Quick test_server_rows_carry_route;
          Alcotest.test_case "scenario wire format" `Quick test_spec_scenario_wire;
          Alcotest.test_case "scenario job end to end" `Quick test_server_runs_scenario_job;
          Alcotest.test_case "restart resumes queue" `Quick test_server_restart_resumes_queue;
          Alcotest.test_case "journal holds every trial" `Quick
            test_server_journals_every_trial;
        ] );
    ]
