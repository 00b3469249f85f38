(** The gossip daemon: a Unix-domain-socket server for the JSONL wire
    protocol.

    Two threads share the process.  The {e socket loop} (the calling
    thread) multiplexes every client connection plus the listening
    socket through [select] with a short tick, decodes request frames
    through {!Frame}, and answers from the shared {!Jobq}.  The
    {e worker thread} claims queued jobs one at a time and runs their
    trials through [Sweep.run_job] — per-trial retries, cooperative
    wall-clock budget, and a between-round observer that writes the
    trial's progress sample into the job table.  The table ({!Jobq})
    is the only channel between the two: the worker records each
    finished trial there, and the socket loop takes the changes each
    tick, journals the new trial records in trial order, bumps the
    [serve.*] telemetry and fans frames out to [watch] subscribers —
    so the registry and the journal sink are touched by one thread
    only.  A record stays in the table until it is taken, so every
    finished trial is journaled, counted and announced; a watcher gets
    the newest progress sample, at most one per job per tick.

    {2 Durability}

    With a [journal], every accepted job is persisted as a
    [serve_submit] event (the full spec, latency included), every
    finished trial as a sweep checkpoint record ([ckpt_job], the row,
    or [ckpt_fail]) tagged with its job id, and every terminal job as a
    [serve_close] event.  On start the journal is sealed
    ({!Gossip_sweep.Sweep.seal_checkpoint}) and replayed: terminal
    jobs are dropped (their ids stay retired), incomplete jobs are
    re-enqueued with their finished trials pre-marked — so a daemon
    killed with [SIGKILL] mid-job re-runs only the trials that never
    checkpointed.

    {2 Shutdown}

    [SIGINT] / [SIGTERM] (or a [shutdown] request) flips one atomic
    flag.  The daemon then stops accepting connections and submits,
    the worker aborts its in-flight trial at the next round boundary
    (completed trials are already journaled) and re-queues the job,
    pending frames are flushed, the journal is closed and the socket
    unlinked, and {!run} returns — the CLI exits 0. *)

type config = {
  socket_path : string;
  journal : string option;  (** JSONL job journal; replayed at start *)
  telemetry : string option;
      (** write a [serve.*] registry snapshot here on shutdown, in the
          format [gossip-cli report] reads *)
  capacity : int;  (** bound on incomplete jobs (queued + running) *)
  tick_s : float;  (** select timeout: progress fan-out latency *)
  retries : int;  (** extra attempts per failing trial *)
  timeout_s : float option;  (** cooperative per-trial wall-clock budget *)
  install_signals : bool;
      (** install SIGINT/SIGTERM handlers (and ignore SIGPIPE); off
          for in-process test servers *)
  on_listening : (unit -> unit) option;
      (** test hook: called once the socket accepts connections *)
  before_job : (string -> unit) option;
      (** test hook: called by the worker with the job id before
          running it — blocking here keeps the job [Running], which is
          how the backpressure tests hold the queue full
          deterministically *)
}

val default : socket_path:string -> config

(** [run config] serves until a shutdown request or signal, then
    drains and returns.  The socket path is created fresh (a stale
    file from a dead daemon is unlinked) and removed on exit.
    @raise Invalid_argument on a non-positive [capacity], [retries]
    (negative), [tick_s] or [timeout_s]. *)
val run : config -> unit
