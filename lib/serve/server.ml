module Json = Gossip_util.Json
module Sweep = Gossip_sweep.Sweep
module Runner = Gossip_sweep.Runner
module Registry = Gossip_obs.Registry
module Sink = Gossip_obs.Sink

type config = {
  socket_path : string;
  journal : string option;
  telemetry : string option;
  capacity : int;
  tick_s : float;
  retries : int;
  timeout_s : float option;
  install_signals : bool;
  on_listening : (unit -> unit) option;
  before_job : (string -> unit) option;
}

let default ~socket_path =
  {
    socket_path;
    journal = None;
    telemetry = None;
    capacity = 64;
    tick_s = 0.05;
    retries = 0;
    timeout_s = None;
    install_signals = true;
    on_listening = None;
    before_job = None;
  }

type conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;
  out : Buffer.t;
  mutable watching : string list;
  mutable alive : bool;
}

type state = {
  cfg : config;
  q : Jobq.t;
  stopping : bool Atomic.t;
  worker_done : bool Atomic.t;
  mutable conns : conn list;
  mutable journal_sink : Sink.t option;
  registry : Registry.t;
}

(* ------------------------------------------------------------------ *)
(* Worker thread *)

exception Abort_job of [ `Cancel | `Drain ]

let run_trials st id spec (jobs : Sweep.job array) =
  let trials = Array.length jobs in
  let n_real = Sweep.realized_n spec.Protocol.family ~n:spec.Protocol.n in
  Array.iteri
    (fun i job ->
      if not (Jobq.trial_done st.q ~id ~trial:i) then begin
        if Atomic.get st.stopping then raise (Abort_job `Drain);
        if Jobq.cancel_requested st.q id then raise (Abort_job `Cancel);
        let on_round ~round ~informed =
          let cancel =
            Jobq.progress st.q
              {
                Protocol.p_job = id;
                p_trial = i;
                p_trials = trials;
                p_seed = job.Sweep.seed;
                p_round = round;
                p_informed = informed;
                p_n = n_real;
              }
          in
          if cancel then raise (Abort_job `Cancel);
          if Atomic.get st.stopping then raise (Abort_job `Drain)
        in
        let rec attempt k =
          match Sweep.run_job ?timeout_s:st.cfg.timeout_s ~on_round job with
          | outcome -> Sweep.Ckpt_done outcome
          | exception (Abort_job _ as e) -> raise e
          | exception e ->
              if k < st.cfg.retries then attempt (k + 1)
              else
                Sweep.Ckpt_failed
                  {
                    Sweep.failed_job = job;
                    message = Printexc.to_string e;
                    backtrace = "";
                    attempts = k + 1;
                  }
        in
        Jobq.record st.q ~id ~trial:i (attempt 0)
      end)
    jobs

let run_entry st id =
  (match st.cfg.before_job with Some f -> f id | None -> ());
  match Jobq.work st.q id with
  | None -> ()
  | Some (spec, jobs) -> (
      match run_trials st id spec jobs with
      | () | (exception Abort_job `Cancel) -> ignore (Jobq.finish st.q id)
      | exception Abort_job `Drain -> Jobq.requeue st.q id)

let worker st =
  let rec loop () =
    if not (Atomic.get st.stopping) then
      match Jobq.next st.q with
      | None -> ()
      | Some id ->
          if Atomic.get st.stopping then Jobq.requeue st.q id
          else begin
            run_entry st id;
            loop ()
          end
  in
  loop ();
  Atomic.set st.worker_done true

(* ------------------------------------------------------------------ *)
(* Journal *)

let journal_event st fields =
  match st.journal_sink with
  | None -> ()
  | Some sink ->
      Sink.event sink fields;
      Sink.flush sink

let journal_submit st id spec =
  journal_event st
    [
      ("ev", Json.String "serve_submit");
      ("job", Json.String id);
      ("spec", Protocol.spec_to_json spec);
    ]

let journal_trial st job trial entry =
  journal_event st
    (Sweep.checkpoint_event entry @ [ ("job", Json.String job); ("trial", Json.Int trial) ])

let journal_close st id state =
  journal_event st
    [
      ("ev", Json.String "serve_close");
      ("job", Json.String id);
      ("state", Json.String (Protocol.job_state_label state));
    ]

(* Replay a sealed journal: terminal jobs stay retired (their ids are
   absorbed so the generator never reissues them), incomplete jobs are
   re-enqueued with their checkpointed trials pre-marked. *)
let replay_journal q path =
  if Sys.file_exists path then begin
    Sweep.seal_checkpoint path;
    let parsed = List.filter_map Result.to_option (Json.read_lines path) in
    let closed = Hashtbl.create 8 in
    List.iter
      (fun j ->
        match (Json.string_field j "ev", Json.string_field j "job") with
        | Some "serve_close", Some id -> Hashtbl.replace closed id ()
        | _ -> ())
      parsed;
    List.iter
      (fun j ->
        match (Json.string_field j "ev", Json.string_field j "job") with
        | Some "serve_submit", Some id ->
            if Hashtbl.mem closed id then Jobq.absorb q id
            else (
              match Json.field j "spec" with
              | Some sj -> (
                  match Protocol.spec_of_json sj with
                  | Ok spec -> (
                      match Jobq.submit q ~id spec with
                      | Ok _ -> ()
                      | Error `Full ->
                          Printf.eprintf
                            "gossipd: journal replay: queue full, dropping %s\n%!" id)
                  | Error msg ->
                      Printf.eprintf
                        "gossipd: journal replay: bad spec for %s (%s), dropping\n%!" id
                        msg)
              | None -> ())
        | Some ("ckpt_job" | "ckpt_fail"), Some id when not (Hashtbl.mem closed id) -> (
            match (Json.int_field j "trial", Sweep.entry_of_json j) with
            | Some trial, Some entry -> Jobq.restore q ~id ~trial entry
            | _ -> ())
        | _ -> ())
      parsed
  end

(* ------------------------------------------------------------------ *)
(* Socket loop *)

let send c resp = Buffer.add_string c.out (Frame.frame (Protocol.response_to_json resp))

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns
  end

let flush_conn st c =
  if c.alive && Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    let len = String.length s in
    match Unix.write_substring c.fd s 0 len with
    | n ->
        Buffer.clear c.out;
        if n < len then Buffer.add_substring c.out s n (len - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> close_conn st c
  end

let request_verb = function
  | Protocol.Ping -> "ping"
  | Protocol.Submit _ -> "submit"
  | Protocol.Status _ -> "status"
  | Protocol.Watch _ -> "watch"
  | Protocol.Cancel _ -> "cancel"
  | Protocol.Results _ -> "results"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

let count st name = Registry.incr (Registry.counter st.registry name)

let note_depth st depth =
  Registry.record_max (Registry.gauge st.registry "serve.queue_depth") depth

let unknown_job job =
  Protocol.Error { code = Protocol.Unknown_job; message = Printf.sprintf "unknown job %S" job }

let handle_request st c req =
  count st ("serve.requests." ^ request_verb req);
  match req with
  | Protocol.Ping ->
      send c (Protocol.Pong { proto = Protocol.version; server = "gossipd" })
  | Protocol.Submit spec -> (
      match Protocol.validate_spec spec with
      | Error message -> send c (Protocol.Error { code = Protocol.Bad_request; message })
      | Ok () ->
          if Atomic.get st.stopping then
            send c
              (Protocol.Error
                 { code = Protocol.Shutting_down; message = "daemon is shutting down" })
          else (
            match Jobq.submit st.q spec with
            | Error `Full ->
                count st "serve.rejected";
                send c
                  (Protocol.Error
                     {
                       code = Protocol.Queue_full;
                       message =
                         Printf.sprintf "queue full (capacity %d)" (Jobq.capacity st.q);
                     })
            | Ok { Jobq.id; position; trials; depth } ->
                journal_submit st id spec;
                note_depth st depth;
                send c (Protocol.Submitted { job = id; position; trials })))
  | Protocol.Status job -> (
      match Jobq.status st.q job with
      | Some s -> send c (Protocol.Job_status s)
      | None -> send c (unknown_job job))
  | Protocol.Watch job -> (
      match Jobq.status st.q job with
      | None -> send c (unknown_job job)
      | Some s ->
          send c (Protocol.Watching { job });
          (match s.Protocol.s_state with
          | Protocol.Queued | Protocol.Running -> c.watching <- job :: c.watching
          | _ -> send c (Protocol.Job_done s)))
  | Protocol.Cancel job -> (
      match Jobq.cancel st.q job with
      | None -> send c (unknown_job job)
      | Some state ->
          (* queued jobs die here and now; running ones are flagged and
             reach [Cancelled] when the worker aborts *)
          if state = Protocol.Cancelled then journal_close st job Protocol.Cancelled;
          send c (Protocol.Cancel_ok { job; state }))
  | Protocol.Results job -> (
      match Jobq.status st.q job with
      | None -> send c (unknown_job job)
      | Some _ ->
          let rows = Jobq.rows st.q job in
          List.iter (fun row -> send c (Protocol.Result_row { job; row })) rows;
          send c (Protocol.Results_end { job; count = List.length rows }))
  | Protocol.Stats ->
      send c
        (Protocol.Server_stats
           { counters = Registry.counters st.registry; gauges = Registry.gauges st.registry })
  | Protocol.Shutdown ->
      send c Protocol.Bye;
      Atomic.set st.stopping true

let handle_line st c line =
  match Json.of_string line with
  | Error msg ->
      count st "serve.requests.invalid";
      send c
        (Protocol.Error
           { code = Protocol.Bad_request; message = "invalid JSON: " ^ msg })
  | Ok j -> (
      match Protocol.request_of_json j with
      | Error (code, message) ->
          count st "serve.requests.invalid";
          send c (Protocol.Error { code; message })
      | Ok req -> handle_request st c req)

let read_conn st c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | 0 -> close_conn st c
  | n -> List.iter (handle_line st c) (Frame.feed c.reader buf ~off:0 ~len:n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> close_conn st c

let accept_ready st lfd =
  let rec go () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        count st "serve.connections";
        st.conns <-
          { fd; reader = Frame.reader (); out = Buffer.create 256;
            watching = []; alive = true }
          :: st.conns;
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let watchers st job = List.filter (fun c -> List.mem job c.watching) st.conns

(* Journal, count and fan out one entry's changes: trial records in
   trial order, then the newest progress sample, then the close. *)
let apply_update st (u : Jobq.update) =
  let watching = watchers st u.Jobq.job in
  let fan resp = List.iter (fun c -> send c resp) watching in
  List.iter
    (fun (trial, entry) ->
      journal_trial st u.Jobq.job trial entry;
      let ok, seed, rounds =
        match entry with
        | Sweep.Ckpt_done o -> (true, o.Sweep.job.Sweep.seed, o.Sweep.record.Runner.rounds)
        | Sweep.Ckpt_failed f -> (false, f.Sweep.failed_job.Sweep.seed, None)
      in
      count st (if ok then "serve.trials.ok" else "serve.trials.failed");
      fan
        (Protocol.Trial_done
           { job = u.Jobq.job; trial; trials = u.Jobq.trials; seed; rounds; ok }))
    u.Jobq.finished;
  Option.iter (fun p -> fan (Protocol.Progress p)) u.Jobq.progress;
  Option.iter
    (fun (s : Protocol.status) ->
      journal_close st u.Jobq.job s.Protocol.s_state;
      count st ("serve.jobs." ^ Protocol.job_state_label s.Protocol.s_state);
      fan (Protocol.Job_done s);
      List.iter
        (fun c -> c.watching <- List.filter (fun j -> j <> u.Jobq.job) c.watching)
        watching)
    u.Jobq.closed

let take_updates st = List.iter (apply_update st) (Jobq.take st.q)

let select_loop st lfd =
  let released = ref false in
  let finished = ref false in
  while not !finished do
    let stopping = Atomic.get st.stopping in
    if stopping && not !released then begin
      released := true;
      Jobq.release st.q
    end;
    let rfds = (if stopping then [] else [ lfd ]) @ List.map (fun c -> c.fd) st.conns in
    let wfds =
      List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) st.conns
    in
    let readable, writable, _ =
      match Unix.select rfds wfds [] st.cfg.tick_s with
      | r -> r
      | exception Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if (not stopping) && List.mem lfd readable then accept_ready st lfd;
    List.iter
      (fun c -> if c.alive && List.mem c.fd readable then read_conn st c)
      st.conns;
    take_updates st;
    note_depth st (Jobq.depth st.q);
    List.iter
      (fun c -> if c.alive && List.mem c.fd writable then flush_conn st c)
      st.conns;
    if !released && Atomic.get st.worker_done then begin
      (* worker is gone: one last take, then best-effort flush *)
      take_updates st;
      List.iter (fun c -> flush_conn st c) st.conns;
      finished := true
    end
  done

(* ------------------------------------------------------------------ *)

let run cfg =
  if cfg.capacity < 1 then invalid_arg "Server.run: capacity must be >= 1";
  if cfg.retries < 0 then invalid_arg "Server.run: retries must be >= 0";
  if cfg.tick_s <= 0.0 then invalid_arg "Server.run: tick_s must be > 0";
  (match cfg.timeout_s with
  | Some t when t <= 0.0 || not (Float.is_finite t) ->
      invalid_arg "Server.run: timeout_s must be positive and finite"
  | _ -> ());
  let st =
    {
      cfg;
      q = Jobq.create ~capacity:cfg.capacity ();
      stopping = Atomic.make false;
      worker_done = Atomic.make false;
      conns = [];
      journal_sink = None;
      registry = Registry.create ();
    }
  in
  (* durability first: a journal from a killed daemon refills the queue
     before the socket opens, so clients never observe a half-restored
     server *)
  (match cfg.journal with
  | Some path ->
      replay_journal st.q path;
      st.journal_sink <- Some (Sink.jsonl ~append:true path)
  | None -> ());
  if cfg.install_signals then begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop = Sys.Signal_handle (fun _ -> Atomic.set st.stopping true) in
    Sys.set_signal Sys.sigint stop;
    Sys.set_signal Sys.sigterm stop
  end;
  (match Unix.unlink cfg.socket_path with
  | () -> ()
  | exception Unix.Unix_error (ENOENT, _, _) -> ());
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (match Unix.unlink cfg.socket_path with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      (match st.journal_sink with Some s -> Sink.close s | None -> ());
      match cfg.telemetry with
      | Some path ->
          Sink.with_jsonl path (fun s ->
              Sink.event s
                [ ("ev", Json.String "meta"); ("tool", Json.String "gossipd") ];
              Sink.registry s st.registry)
      | None -> ())
    (fun () ->
      Unix.bind lfd (ADDR_UNIX cfg.socket_path);
      Unix.listen lfd 16;
      Unix.set_nonblock lfd;
      let worker_t = Thread.create worker st in
      (match cfg.on_listening with Some f -> f () | None -> ());
      select_loop st lfd;
      Thread.join worker_t;
      List.iter (fun c -> close_conn st c) st.conns)
