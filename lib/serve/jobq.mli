(** The daemon's bounded job queue.

    One entry per accepted [submit]: the spec, its expanded trial
    jobs, and one checkpoint record per finished trial, from which the
    status counts, the result rows, the journal lines and the replay
    marks all derive.  The table is shared between the socket loop
    (submits, status, cancel, results) and the worker thread (claims
    jobs, runs trials), so every operation takes the internal lock.

    It is also the only channel from the worker to the socket loop.
    The worker {!record}s each finished trial, overwrites the running
    trial's progress sample once per round ({!progress}, which also
    answers the cancellation check), and {!finish}es the job; the
    socket loop {!take}s what changed on each tick.  Nothing is
    dropped: a record stays in the table until it is taken, however
    many rounds run in between, and only progress samples are
    coalesced to the newest.

    Backpressure is explicit: {!submit} rejects once the number of
    {e incomplete} entries (queued + running) reaches [capacity] —
    finished jobs stay readable without counting against the bound. *)

type t

(** [create ?capacity ()] builds an empty queue.  [capacity] (default
    64) bounds the incomplete entries.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Incomplete entries right now: queued + running. *)
val depth : t -> int

(** [depth] is the number of incomplete entries right after the
    submit, the new job included — read under the same lock, so a
    worker that claims and finishes the job at once cannot hide it. *)
type submitted = { id : string; position : int; trials : int; depth : int }

(** [submit t ?id spec] appends a job, generating a fresh id
    ([job-1], [job-2], …) unless [id] restores one from a journal;
    [Error `Full] is the typed backpressure signal.  A restored
    numeric id advances the generator past it so later fresh ids never
    collide. *)
val submit : t -> ?id:string -> Protocol.spec -> (submitted, [ `Full ]) result

(** [absorb t id] advances the id generator past a numeric id seen in
    a journal {e without} creating an entry — terminal jobs are not
    resurrected at restart, but their ids must never be reissued. *)
val absorb : t -> string -> unit

(** [record t ~id ~trial entry] stores one finished trial's
    checkpoint record for the next {!take}.  The worker records a
    job's trials in trial order.  Unknown ids and out-of-range trial
    indices are ignored, here and in {!restore}. *)
val record : t -> id:string -> trial:int -> Gossip_sweep.Sweep.checkpoint_entry -> unit

(** [restore t ~id ~trial entry] stores a record replayed from the
    journal at restart.  It counts toward status and results, and the
    worker skips its trial, but {!take} does not hand it out again:
    it is already journaled.  (A journal this daemon writes holds a
    prefix of each job's trials; after a gap, which only a daemon that
    lost records could leave, the restored records past it are taken
    once more when the worker fills the gap.) *)
val restore : t -> id:string -> trial:int -> Gossip_sweep.Sweep.checkpoint_entry -> unit

(** [trial_done t ~id ~trial] — already recorded (or restored), so
    the worker skips re-running it. *)
val trial_done : t -> id:string -> trial:int -> bool

(** [progress t p] overwrites job [p.p_job]'s latest progress sample
    and returns whether cancellation was requested: the worker's one
    locked call per engine round. *)
val progress : t -> Protocol.progress -> bool

(** [next t] blocks until a queued entry exists — claims the oldest,
    marks it [Running], and returns its id — or {!release} is called
    with nothing queued ([None]: time to exit). *)
val next : t -> string option

(** [release t] makes {!next} stop blocking: pending calls (and all
    future ones finding the queue empty) return [None]. *)
val release : t -> unit

(** The claimed work: the spec and its trial jobs, in trial order. *)
val work : t -> string -> (Protocol.spec * Gossip_sweep.Sweep.job array) option

(** [finish t id] moves a running entry to its terminal state —
    [Cancelled] if cancellation was requested, [Failed] if any trial
    failed, [Done] otherwise — and returns it.  The next {!take}
    reports it once. *)
val finish : t -> string -> Protocol.job_state option

(** [requeue t id] puts a running entry back at the {e head} of the
    queue (graceful shutdown: the claimed job isn't terminal, a
    restarted daemon must run it first). *)
val requeue : t -> string -> unit

(** [cancel t id] requests cancellation: a queued entry is removed
    and becomes [Cancelled] immediately (the caller journals it; no
    {!take} reports it); a running entry is flagged — the worker
    observes it through {!progress} between rounds and aborts.
    Returns the state after the call ([None]: unknown id). *)
val cancel : t -> string -> Protocol.job_state option

val cancel_requested : t -> string -> bool

(** Point-in-time snapshot; [s_position] is the 0-based queue position
    while queued. *)
val status : t -> string -> Protocol.status option

(** Result rows recorded so far ({!Gossip_sweep.Sweep.outcome_json}
    of each finished trial), in trial order; failed trials carry no
    row. *)
val rows : t -> string -> Gossip_util.Json.t list

(** What changed in one entry since the last {!take}. *)
type update = {
  job : string;
  trials : int;  (** the job's trial count *)
  finished : (int * Gossip_sweep.Sweep.checkpoint_entry) list;
      (** trials recorded since, in trial order, with their indices *)
  progress : Protocol.progress option;  (** the newest sample, if a new one came *)
  closed : Protocol.status option;  (** the terminal snapshot, once *)
}

(** [take t] hands out every entry's changes, in the order the
    entries first changed, and clears them: the socket loop's one call
    per tick. *)
val take : t -> update list
