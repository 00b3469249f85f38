module Json = Gossip_util.Json
module Sweep = Gossip_sweep.Sweep

type entry = {
  e_id : string;
  e_spec : Protocol.spec;
  e_jobs : Sweep.job array;
  e_ok : bool array;  (* trial finished successfully *)
  e_done : bool array;  (* trial finished (either way) *)
  e_rows : Json.t option array;
  mutable e_state : Protocol.job_state;
  mutable e_cancel : bool;
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  cap : int;
  entries : (string, entry) Hashtbl.t;
  queue : string Queue.t;
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
            e_ok = Array.make trials false;
            e_done = Array.make trials false;
            e_rows = Array.make trials None;
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

let mark_trial t ~id ~trial ~ok ?row () =
  locked t (fun () ->
      match find t id with
      | Some e when trial >= 0 && trial < Array.length e.e_done ->
          e.e_done.(trial) <- true;
          e.e_ok.(trial) <- ok;
          e.e_rows.(trial) <- row
      | _ -> ())

let trial_done t ~id ~trial =
  locked t (fun () ->
      match find t id with
      | Some e when trial >= 0 && trial < Array.length e.e_done -> e.e_done.(trial)
      | _ -> false)

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

let count_done e pred =
  let c = ref 0 in
  Array.iteri (fun i d -> if d && pred e.e_ok.(i) then incr c) e.e_done;
  !c

let finish t id =
  locked t (fun () ->
      match find t id with
      | None -> None
      | Some e ->
          let failed = count_done e not in
          let state =
            if e.e_cancel then Protocol.Cancelled
            else if failed > 0 then Protocol.Failed
            else Protocol.Done
          in
          e.e_state <- state;
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
    s_completed = count_done e Fun.id;
    s_failed = count_done e not;
    s_position = (if e.e_state = Protocol.Queued then queue_position t e.e_id else None);
  }

let status t id =
  locked t (fun () -> match find t id with Some e -> Some (status_of t e) | None -> None)

let rows t id =
  locked t (fun () ->
      match find t id with
      | None -> []
      | Some e -> Array.to_list e.e_rows |> List.filter_map Fun.id)

let incomplete t =
  locked t (fun () ->
      let queued = ref [] in
      Queue.iter
        (fun qid ->
          match find t qid with
          | Some e when e.e_state = Protocol.Queued -> queued := qid :: !queued
          | _ -> ())
        t.queue;
      let running =
        Hashtbl.fold
          (fun id e acc -> if e.e_state = Protocol.Running then id :: acc else acc)
          t.entries []
      in
      List.rev !queued @ running)
