module Sweep = Gossip_sweep.Sweep

type entry = {
  e_id : string;
  e_spec : Protocol.spec;
  e_jobs : Sweep.job array;
  e_trials : Sweep.checkpoint_entry option array;  (* one record per finished trial *)
  mutable e_cursor : int;  (* records below it are taken or restored *)
  mutable e_progress : Protocol.progress option;  (* newest sample, not yet taken *)
  mutable e_closed : bool;  (* terminal state reached, not yet taken *)
  mutable e_dirty : bool;  (* in [t.dirty] *)
  mutable e_state : Protocol.job_state;
  mutable e_cancel : bool;
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  cap : int;
  entries : (string, entry) Hashtbl.t;
  queue : string Queue.t;
  dirty : entry Queue.t;  (* entries with something for {!take}, oldest change first *)
  mutable seq : int;
  mutable released : bool;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Jobq.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    cap = capacity;
    entries = Hashtbl.create 16;
    queue = Queue.create ();
    dirty = Queue.create ();
    seq = 0;
    released = false;
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let incomplete_count t =
  Hashtbl.fold
    (fun _ e acc ->
      match e.e_state with Protocol.Queued | Protocol.Running -> acc + 1 | _ -> acc)
    t.entries 0

let depth t = locked t (fun () -> incomplete_count t)

type submitted = { id : string; position : int; trials : int; depth : int }

(* A restored id like "job-17" must advance the generator so fresh ids
   never collide with journal-replayed ones. *)
let absorb_id t id =
  match String.index_opt id '-' with
  | Some i -> (
      match int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1)) with
      | Some n when n > t.seq -> t.seq <- n
      | _ -> ())
  | None -> ()

let absorb t id = locked t (fun () -> absorb_id t id)

let submit t ?id spec =
  locked t (fun () ->
      let depth = incomplete_count t in
      if depth >= t.cap then Error `Full
      else begin
        let id =
          match id with
          | Some id ->
              absorb_id t id;
              id
          | None ->
              t.seq <- t.seq + 1;
              Printf.sprintf "job-%d" t.seq
        in
        let jobs = Array.of_list (Protocol.jobs_of_spec spec) in
        let trials = Array.length jobs in
        let entry =
          {
            e_id = id;
            e_spec = spec;
            e_jobs = jobs;
            e_trials = Array.make trials None;
            e_cursor = 0;
            e_progress = None;
            e_closed = false;
            e_dirty = false;
            e_state = Protocol.Queued;
            e_cancel = false;
          }
        in
        Hashtbl.replace t.entries id entry;
        let position = Queue.length t.queue in
        Queue.push id t.queue;
        Condition.signal t.nonempty;
        Ok { id; position; trials; depth = depth + 1 }
      end)

let find t id = Hashtbl.find_opt t.entries id

let touch t e =
  if not e.e_dirty then begin
    e.e_dirty <- true;
    Queue.push e t.dirty
  end

let with_trial t ~id ~trial f =
  locked t (fun () ->
      match find t id with
      | Some e when trial >= 0 && trial < Array.length e.e_trials -> f e
      | _ -> ())

let record t ~id ~trial entry =
  with_trial t ~id ~trial (fun e ->
      e.e_trials.(trial) <- Some entry;
      touch t e)

(* A restored record was journaled by an earlier daemon: the cursor
   steps over the ones it reaches, so they are not journaled twice. *)
let restore t ~id ~trial entry =
  with_trial t ~id ~trial (fun e ->
      e.e_trials.(trial) <- Some entry;
      while e.e_cursor < Array.length e.e_trials && e.e_trials.(e.e_cursor) <> None do
        e.e_cursor <- e.e_cursor + 1
      done)

let trial_done t ~id ~trial =
  locked t (fun () ->
      match find t id with
      | Some e when trial >= 0 && trial < Array.length e.e_trials -> e.e_trials.(trial) <> None
      | _ -> false)

let progress t (p : Protocol.progress) =
  locked t (fun () ->
      match find t p.Protocol.p_job with
      | Some e ->
          e.e_progress <- Some p;
          touch t e;
          e.e_cancel
      | None -> false)

let rec pop_queued t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some id -> (
      match find t id with
      (* cancelled-while-queued entries were removed from the table's
         live view only logically — their state flipped; skip them *)
      | Some e when e.e_state = Protocol.Queued -> Some e
      | _ -> pop_queued t)

let next t =
  locked t (fun () ->
      let rec wait () =
        match pop_queued t with
        | Some e ->
            e.e_state <- Protocol.Running;
            Some e.e_id
        | None ->
            if t.released then None
            else begin
              Condition.wait t.nonempty t.lock;
              wait ()
            end
      in
      wait ())

let release t =
  locked t (fun () ->
      t.released <- true;
      Condition.broadcast t.nonempty)

let work t id =
  locked t (fun () ->
      match find t id with Some e -> Some (e.e_spec, e.e_jobs) | None -> None)

let count_done e ok =
  Array.fold_left
    (fun c r ->
      match r with
      | Some (Sweep.Ckpt_done _) when ok -> c + 1
      | Some (Sweep.Ckpt_failed _) when not ok -> c + 1
      | _ -> c)
    0 e.e_trials

let finish t id =
  locked t (fun () ->
      match find t id with
      | None -> None
      | Some e ->
          let state =
            if e.e_cancel then Protocol.Cancelled
            else if count_done e false > 0 then Protocol.Failed
            else Protocol.Done
          in
          e.e_state <- state;
          e.e_closed <- true;
          touch t e;
          Some state)

let requeue t id =
  locked t (fun () ->
      match find t id with
      | Some e when e.e_state = Protocol.Running ->
          e.e_state <- Protocol.Queued;
          (* head of the queue: a restarted daemon runs it first *)
          let rest = Queue.copy t.queue in
          Queue.clear t.queue;
          Queue.push id t.queue;
          Queue.transfer rest t.queue;
          Condition.signal t.nonempty
      | _ -> ())

let cancel t id =
  locked t (fun () ->
      match find t id with
      | None -> None
      | Some e -> (
          match e.e_state with
          | Protocol.Queued ->
              e.e_state <- Protocol.Cancelled;
              Some Protocol.Cancelled
          | Protocol.Running ->
              e.e_cancel <- true;
              Some Protocol.Running
          | terminal -> Some terminal))

let cancel_requested t id =
  locked t (fun () -> match find t id with Some e -> e.e_cancel | None -> false)

let queue_position t id =
  let pos = ref None and i = ref 0 in
  Queue.iter
    (fun qid ->
      (match find t qid with
      | Some e when e.e_state = Protocol.Queued ->
          if qid = id then pos := Some !i;
          incr i
      | _ -> ()))
    t.queue;
  !pos

let status_of t e =
  {
    Protocol.s_job = e.e_id;
    s_state = e.e_state;
    s_trials = Array.length e.e_jobs;
    s_completed = count_done e true;
    s_failed = count_done e false;
    s_position = (if e.e_state = Protocol.Queued then queue_position t e.e_id else None);
  }

let status t id =
  locked t (fun () -> match find t id with Some e -> Some (status_of t e) | None -> None)

let rows t id =
  locked t (fun () ->
      match find t id with
      | None -> []
      | Some e ->
          Array.to_list e.e_trials
          |> List.filter_map (function
               | Some (Sweep.Ckpt_done o) -> Some (Sweep.outcome_json o)
               | _ -> None))

type update = {
  job : string;
  trials : int;
  finished : (int * Sweep.checkpoint_entry) list;
  progress : Protocol.progress option;
  closed : Protocol.status option;
}

(* The worker records trials in trial order, so the records past the
   cursor up to the first gap are exactly the new ones. *)
let take_update t e =
  let rec finished acc =
    match if e.e_cursor < Array.length e.e_trials then e.e_trials.(e.e_cursor) else None with
    | Some r ->
        let i = e.e_cursor in
        e.e_cursor <- i + 1;
        finished ((i, r) :: acc)
    | None -> List.rev acc
  in
  let finished = finished [] in
  let progress = e.e_progress in
  let closed = if e.e_closed then Some (status_of t e) else None in
  e.e_progress <- None;
  e.e_closed <- false;
  e.e_dirty <- false;
  { job = e.e_id; trials = Array.length e.e_jobs; finished; progress; closed }

let take t =
  locked t (fun () ->
      let rec go acc =
        match Queue.take_opt t.dirty with
        | Some e -> go (take_update t e :: acc)
        | None -> List.rev acc
      in
      go [])
