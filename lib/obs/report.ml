module Json = Gossip_util.Json
module Stats = Gossip_util.Stats

type hist = { hist_count : int; hist_sum : int; hist_mean : float }

type t = {
  path : string;
  events : int;
  parse_errors : int;
  by_ev : (string * int) list;
  job_elapsed_s : float array;
  job_rounds : float array;
  failed_jobs : int;
  job_latency : Stats.summary option;
  rounds_summary : Stats.summary option;
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * hist) list;
  final_informed : (int * int) option;
}

let of_file path =
  let events = ref 0 and parse_errors = ref 0 in
  let ev_order = ref [] and ev_counts = Hashtbl.create 8 in
  let job_elapsed = ref [] and job_rounds = ref [] and failed_jobs = ref 0 in
  let counters = Hashtbl.create 8 and gauges = Hashtbl.create 8 and hists = Hashtbl.create 8 in
  let final_informed = ref None in
  let handle = function
    | Error _ -> incr parse_errors
    | Ok j -> (
        incr events;
        let ev = Option.value ~default:"?" (Json.string_field j "ev") in
        if not (Hashtbl.mem ev_counts ev) then begin
          ev_order := ev :: !ev_order;
          Hashtbl.add ev_counts ev 0
        end;
        Hashtbl.replace ev_counts ev (Hashtbl.find ev_counts ev + 1);
        match ev with
        | "job" ->
            let push acc v = acc := v :: !acc in
            Option.iter (push job_elapsed) (Json.float_field j "elapsed_s");
            Option.iter (fun r -> push job_rounds (float_of_int r)) (Json.int_field j "rounds")
        | "job_error" -> incr failed_jobs
        | ("counter" | "gauge") as kind -> (
            let table = if kind = "counter" then counters else gauges in
            match (Json.string_field j "name", Json.int_field j "value") with
            | Some name, Some v -> Hashtbl.replace table name v
            | _ -> ())
        | "hist" -> (
            match Json.string_field j "name" with
            | Some name ->
                let get f = Option.value ~default:0 (Json.int_field j f) in
                let mean = Option.value ~default:nan (Json.float_field j "mean") in
                Hashtbl.replace hists name
                  { hist_count = get "count"; hist_sum = get "sum"; hist_mean = mean }
            | None -> ())
        | "trace" -> (
            let int = Json.int_field j in
            match (Json.string_field j "kind", int "round", int "value") with
            | Some "informed", Some round, Some value -> final_informed := Some (round, value)
            | _ -> ())
        | _ -> ())
  in
  List.iter handle (Json.read_lines path);
  let sorted table = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare in
  let job_elapsed_s = Array.of_list (List.rev !job_elapsed) in
  let job_rounds = Array.of_list (List.rev !job_rounds) in
  let summary a = if Array.length a = 0 then None else Some (Stats.summarize a) in
  {
    path;
    events = !events;
    parse_errors = !parse_errors;
    by_ev = List.rev_map (fun ev -> (ev, Hashtbl.find ev_counts ev)) !ev_order;
    job_elapsed_s;
    job_rounds;
    failed_jobs = !failed_jobs;
    job_latency = summary job_elapsed_s;
    rounds_summary = summary job_rounds;
    counters = sorted counters;
    gauges = sorted gauges;
    hists = sorted hists;
    final_informed = !final_informed;
  }

let job_percentile t p =
  if Array.length t.job_elapsed_s = 0 then nan else Stats.percentile t.job_elapsed_s p

let pp ppf t =
  Format.fprintf ppf "telemetry report: %s@\n" t.path;
  Format.fprintf ppf "  events: %d (parse errors: %d)@\n" t.events t.parse_errors;
  if t.by_ev <> [] then begin
    Format.fprintf ppf "  event counts:@\n";
    List.iter (fun (ev, n) -> Format.fprintf ppf "    %s: %d@\n" ev n) t.by_ev
  end;
  let jobs = Array.length t.job_elapsed_s in
  if jobs > 0 || t.failed_jobs > 0 then begin
    Format.fprintf ppf "  jobs: %d total, %d completed%t@\n" (jobs + t.failed_jobs)
      (Array.length t.job_rounds) (fun ppf ->
        if t.failed_jobs > 0 then Format.fprintf ppf ", %d failed" t.failed_jobs);
    (match t.rounds_summary with
    | Some s ->
        Format.fprintf ppf "    rounds: mean=%.1f p50=%.1f p95=%.1f max=%.0f@\n" s.Stats.mean
          s.Stats.median s.Stats.p95 s.Stats.max
    | None -> ());
    match t.job_latency with
    | Some s ->
        Format.fprintf ppf "    elapsed_s: mean=%.6f p50=%.6f p95=%.6f max=%.6f@\n" s.Stats.mean
          s.Stats.median s.Stats.p95 s.Stats.max
    | None -> ()
  end;
  if t.counters <> [] then begin
    Format.fprintf ppf "  counters:@\n";
    List.iter (fun (name, v) -> Format.fprintf ppf "    %s = %d@\n" name v) t.counters
  end;
  if t.gauges <> [] then begin
    Format.fprintf ppf "  gauges:@\n";
    List.iter (fun (name, v) -> Format.fprintf ppf "    %s = %d@\n" name v) t.gauges
  end;
  if t.hists <> [] then begin
    Format.fprintf ppf "  histograms:@\n";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "    %s: count=%d sum=%d mean=%.1f@\n" name h.hist_count h.hist_sum
          h.hist_mean)
      t.hists
  end;
  match t.final_informed with
  | Some (round, value) -> Format.fprintf ppf "  informed: %d at round %d@\n" value round
  | None -> ()
