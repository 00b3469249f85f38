module Registry = Gossip_obs.Registry

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let budget_workers ?workers ~domains_per_job () =
  if domains_per_job < 1 then invalid_arg "Pool.budget_workers: domains_per_job must be >= 1";
  let available = max 1 (Domain.recommended_domain_count () / domains_per_job) in
  let requested = match workers with Some w -> max 1 w | None -> default_workers () in
  min requested available

type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
}

type 'a outcome = Ok of 'a | Failed of failure

let failure_message f = Printexc.to_string f.exn

(* Round (not truncate) when converting wall-clock spans to integer
   microseconds: [int_of_float] alone maps every sub-microsecond job
   to 0, silently zeroing busy_us on fast workloads. *)
let us_of_seconds s = int_of_float (Float.round (s *. 1e6))

(* Per-worker telemetry lives in a worker-local registry so the hot
   path takes no lock beyond the job queue's; locals are merged into
   the caller's registry after the join.  Metrics are pre-registered
   eagerly so the merged set of names does not depend on which worker
   happened to win which job. *)
type worker_tel = {
  local : Registry.t;
  w_busy_us : Registry.counter;
  w_jobs : Registry.counter;
  w_retries : Registry.counter;
  w_failures : Registry.counter;
  h_job_us : Registry.histogram;
  h_queue_depth : Registry.histogram;
}

let make_worker_tel w =
  let local = Registry.create () in
  {
    local;
    w_busy_us = Registry.counter local (Printf.sprintf "pool.worker%d.busy_us" w);
    w_jobs = Registry.counter local (Printf.sprintf "pool.worker%d.jobs" w);
    w_retries = Registry.counter local "pool.retries";
    w_failures = Registry.counter local "pool.failures";
    h_job_us = Registry.histogram local "pool.job_us";
    h_queue_depth = Registry.histogram local "pool.queue_depth";
  }

let run_outcomes ?workers ?(retries = 0) ?on_retry ?on_result ?telemetry f inputs =
  if retries < 0 then invalid_arg "Pool.run_outcomes: retries must be >= 0";
  let n = Array.length inputs in
  let workers =
    let requested = match workers with Some w -> w | None -> default_workers () in
    max 1 (min requested n)
  in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = ref 0 in
    let mu = Mutex.create () in
    (* Callbacks (checkpoint writes, retry logs) are serialized on
       their own mutex so they never block job dispatch. *)
    let cb_mu = Mutex.create () in
    let take () =
      Mutex.protect mu (fun () ->
          if !next < n then begin
            let i = !next in
            incr next;
            i
          end
          else -1)
    in
    let notify_retry i ~attempt e =
      match on_retry with
      | None -> ()
      | Some cb -> Mutex.protect cb_mu (fun () -> cb i ~attempt e)
    in
    let notify_result i r =
      match on_result with
      | None -> ()
      | Some cb -> Mutex.protect cb_mu (fun () -> cb i r)
    in
    let tels =
      match telemetry with
      | None -> [||]
      | Some _ -> Array.init workers make_worker_tel
    in
    (* The backtrace is captured at the catch site, before any further
       allocation, so a [Failed] outcome points at the failing job —
       not at the pool's join. *)
    let attempt_job tel i =
      let rec go attempt =
        match f inputs.(i) with
        | v -> Ok v
        | exception e ->
            let backtrace = Printexc.get_raw_backtrace () in
            if attempt <= retries then begin
              (match tel with Some t -> Registry.incr t.w_retries | None -> ());
              notify_retry i ~attempt e;
              go (attempt + 1)
            end
            else begin
              (match tel with Some t -> Registry.incr t.w_failures | None -> ());
              Failed { exn = e; backtrace; attempts = attempt }
            end
      in
      go 1
    in
    let worker w () =
      let tel = if Array.length tels = 0 then None else Some tels.(w) in
      let rec loop () =
        let i = take () in
        if i >= 0 then begin
          let r =
            match tel with
            | None -> attempt_job None i
            | Some t ->
                (* depth of the queue *after* this job was taken *)
                Registry.observe t.h_queue_depth (n - i - 1);
                let t0 = Unix.gettimeofday () in
                let r = attempt_job tel i in
                let us = us_of_seconds (Unix.gettimeofday () -. t0) in
                Registry.add t.w_busy_us us;
                Registry.incr t.w_jobs;
                Registry.observe t.h_job_us us;
                r
          in
          results.(i) <- Some r;
          notify_result i r;
          loop ()
        end
      in
      loop ()
    in
    if workers = 1 then worker 0 ()
    else begin
      let domains = Array.init workers (fun w -> Domain.spawn (worker w)) in
      Array.iter Domain.join domains
    end;
    (match telemetry with
    | None -> ()
    | Some reg -> Array.iter (fun tel -> Registry.merge ~into:reg tel.local) tels);
    Array.map (function Some r -> r | None -> assert false) results
  end
