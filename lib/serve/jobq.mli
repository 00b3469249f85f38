(** The daemon's bounded job queue.

    One entry per accepted [submit]: the spec, its expanded trial
    jobs, per-trial completion state, and the result rows collected so
    far.  The table is shared between the accept loop (submits,
    status, cancel, results) and the worker thread (claims jobs, runs
    trials), so every operation takes the internal lock.

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

(** [mark_trial t ~id ~trial ~ok ?row ()] records one finished trial
    — [row] is the result row streamed back for [results] (present
    exactly when [ok]).  Used by the worker as trials finish and by
    journal replay at restart.  Unknown ids and out-of-range trial
    indices are ignored (a journal may outlive its jobs). *)
val mark_trial : t -> id:string -> trial:int -> ok:bool -> ?row:Gossip_util.Json.t -> unit -> unit

(** [trial_done t ~id ~trial] — already recorded (replayed from the
    journal), so the worker skips re-running it. *)
val trial_done : t -> id:string -> trial:int -> bool

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
    failed, [Done] otherwise — and returns it. *)
val finish : t -> string -> Protocol.job_state option

(** [requeue t id] puts a running entry back at the {e head} of the
    queue (graceful shutdown: the claimed job isn't terminal, a
    restarted daemon must run it first). *)
val requeue : t -> string -> unit

(** [cancel t id] requests cancellation: a queued entry is removed
    and becomes [Cancelled] immediately; a running entry is flagged —
    the worker observes {!cancel_requested} between rounds and aborts.
    Returns the state after the call ([None]: unknown id). *)
val cancel : t -> string -> Protocol.job_state option

val cancel_requested : t -> string -> bool

(** Point-in-time snapshot; [s_position] is the 0-based queue position
    while queued. *)
val status : t -> string -> Protocol.status option

(** Result rows recorded so far, in trial order (failed trials carry
    no row). *)
val rows : t -> string -> Gossip_util.Json.t list

(** Ids of every incomplete entry, queued first (queue order) then the
    running one — what a graceful shutdown leaves for the journal to
    resurrect. *)
val incomplete : t -> string list
