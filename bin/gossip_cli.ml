(* gossip-cli: run the paper's algorithms and analyses from the shell.

   Subcommands:
     analyze  - graph statistics and weighted conductance (Definition 2)
     run      - execute a dissemination algorithm and report rounds
     game     - play the guessing game with an Alice strategy (Lemmas 4-5)
     gadget   - build and describe a lower-bound gadget (Section 3.2)

   Examples:
     gossip-cli analyze --family ring-of-cliques --cliques 4 --size 8 --bridge 12
     gossip-cli run --algorithm push-pull --family er --nodes 64 --prob 0.1 --latency uniform:1-8
     gossip-cli game --side 64 --prob 0.1 --strategy random-guessing
     gossip-cli gadget --which theorem8 --layers 6 --size 8 --ell 16 *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Gadgets = Gossip_graph.Gadgets
module Paths = Gossip_graph.Paths
module Weighted = Gossip_conductance.Weighted
module Runner = Gossip_sweep.Runner
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing *)

(* A bad value a user typed: the message on stderr and exit status 2,
   never an uncaught-exception backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("gossip-cli: " ^ msg);
      exit 2)
    fmt

let seed_arg =
  let doc = "Seed for all randomness (runs are reproducible)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Values that must be strictly positive are rejected at parse time —
   a clear usage error beats a deep engine failure minutes into a
   sweep. *)
let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    | Some v when v < 1 -> Error (`Msg (Printf.sprintf "must be >= 1 (got %d)" v))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
    | Some v when not (Float.is_finite v) ->
        Error (`Msg (Printf.sprintf "must be finite (got %s)" s))
    | Some v when v <= 0.0 -> Error (`Msg (Printf.sprintf "must be > 0 (got %g)" v))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_float)

let protocol_conv =
  let parse s =
    match Runner.protocol_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (known: %s)" s
               (String.concat ", " Runner.known_protocols)))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Runner.protocol_name p))

let latency_spec_conv =
  let parse s =
    let fail () = Error (`Msg (Printf.sprintf "bad latency spec %S" s)) in
    match String.split_on_char ':' s with
    | [ "unit" ] -> Ok Gen.Unit
    | [ "fixed"; k ] -> (
        match int_of_string_opt k with Some k -> Ok (Gen.Fixed k) | None -> fail ())
    | [ "uniform"; range ] -> (
        match String.split_on_char '-' range with
        | [ lo; hi ] -> (
            match (int_of_string_opt lo, int_of_string_opt hi) with
            | Some lo, Some hi -> Ok (Gen.Uniform (lo, hi))
            | _ -> fail ())
        | _ -> fail ())
    | [ "bimodal"; args ] -> (
        match String.split_on_char ',' args with
        | [ f; s'; p ] -> (
            match (int_of_string_opt f, int_of_string_opt s', float_of_string_opt p) with
            | Some fast, Some slow, Some p_fast -> Ok (Gen.Bimodal { fast; slow; p_fast })
            | _ -> fail ())
        | _ -> fail ())
    | [ "powerlaw"; args ] -> (
        match String.split_on_char ',' args with
        | [ a; b; e ] -> (
            match (int_of_string_opt a, int_of_string_opt b, float_of_string_opt e) with
            | Some min_latency, Some max_latency, Some exponent ->
                Ok (Gen.Power_law { min_latency; max_latency; exponent })
            | _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let print ppf = function
    | Gen.Unit -> Format.fprintf ppf "unit"
    | Gen.Fixed k -> Format.fprintf ppf "fixed:%d" k
    | Gen.Uniform (lo, hi) -> Format.fprintf ppf "uniform:%d-%d" lo hi
    | Gen.Bimodal { fast; slow; p_fast } ->
        Format.fprintf ppf "bimodal:%d,%d,%g" fast slow p_fast
    | Gen.Power_law { min_latency; max_latency; exponent } ->
        Format.fprintf ppf "powerlaw:%d,%d,%g" min_latency max_latency exponent
  in
  Arg.conv (parse, print)

let latency_arg =
  let doc =
    "Latency distribution: unit, fixed:K, uniform:LO-HI, bimodal:FAST,SLOW,P, \
     powerlaw:MIN,MAX,EXP."
  in
  Arg.(value & opt latency_spec_conv Gen.Unit & info [ "latency" ] ~docv:"SPEC" ~doc)

let scenario_arg =
  let doc =
    "Load a dynamic-network scenario (JSON) and run under it: time-varying latency \
     schedules, churn, and adversarial jitter, with live conductance tracking when the \
     scenario asks for it.  Wheel-engine runs only; see DESIGN.md for the schema."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"FILE" ~doc)

(* Scenario files are user input: a parse or validation failure exits
   with the offending path and the validator's message, not an
   uncaught-exception backtrace. *)
let load_scenario path =
  match Gossip_dyn.Scenario.load path with
  | s -> s
  | exception Gossip_dyn.Scenario.Invalid_scenario msg -> die "--scenario %s: %s" path msg
  | exception Sys_error msg -> die "--scenario: %s" msg

(* --rumors / --budget override the rumor count k and the per-message
   word budget of a rumor-state descriptor (k-rumor, rotation,
   algebraic).  The overrides are meaningless on the single-rumor
   protocols, so using them there is a loud usage error, not a silent
   no-op. *)
let with_rumor_overrides ~rumors ~budget protocol =
  let k0 k = Option.value rumors ~default:k in
  let b0 b = Option.value budget ~default:b in
  match protocol with
  | _ when rumors = None && budget = None -> protocol
  | Runner.K_rumor { k; budget = b } -> Runner.K_rumor { k = k0 k; budget = b0 b }
  | Runner.Rumor_rotation { k; budget = b } -> Runner.Rumor_rotation { k = k0 k; budget = b0 b }
  | Runner.Algebraic { k; budget = b } -> Runner.Algebraic { k = k0 k; budget = b0 b }
  | p ->
      die
        "--rumors/--budget apply to the rumor-state protocols (k-rumor, rotation, algebraic), \
         not %S"
        (Runner.protocol_name p)

let rumors_arg =
  let doc =
    "Number of rumors K for the rumor-state protocols (k-rumor, rotation, algebraic): \
     rumor $(i,j) starts at node $(i,j), completion is holding all K.  Overrides the K \
     in the $(b,--protocol) descriptor; defaults to min(n, 16)."
  in
  Arg.(value & opt (some pos_int_conv) None & info [ "rumors" ] ~docv:"K" ~doc)

let budget_arg =
  let doc =
    "Per-message payload budget in 32-bit words for the rumor-state protocols (each \
     message carries at most B rumor ids, or B coefficient words for algebraic).  \
     Overrides the B in the $(b,--protocol) descriptor."
  in
  Arg.(value & opt (some pos_int_conv) None & info [ "budget" ] ~docv:"B" ~doc)

type family_args = {
  family : string;
  n : int;
  p : float;
  d : int;
  cliques : int;
  size : int;
  bridge : int;
  bridges : int;
  rows : int;
  cols : int;
  latency : Gen.latency_spec;
  seed : int;
}

let family_term =
  let family =
    let doc =
      "Graph family: clique, star, path, cycle, grid, torus, hypercube, tree, er, \
       regular, ring-of-cliques, dumbbell; wheel runs ($(b,--protocol)) additionally \
       accept barabasi-albert, watts-strogatz, and braided-ring, built directly in CSR \
       form."
    in
    Arg.(value & opt string "clique" & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let n = Arg.(value & opt int 32 & info [ "nodes" ] ~docv:"N" ~doc:"Node count.") in
  let p =
    Arg.(value & opt float 0.2 & info [ "prob" ] ~docv:"P" ~doc:"Edge probability for er.")
  in
  let d = Arg.(value & opt int 4 & info [ "deg" ] ~docv:"D" ~doc:"Degree for regular.") in
  let cliques =
    Arg.(value & opt int 4 & info [ "cliques" ] ~docv:"K" ~doc:"Cliques in the ring.")
  in
  let size =
    Arg.(value & opt int 8 & info [ "size" ] ~docv:"S" ~doc:"Clique / side size.")
  in
  let bridge =
    Arg.(value & opt int 8 & info [ "bridge" ] ~docv:"L" ~doc:"Bridge latency.")
  in
  let bridges =
    Arg.(
      value & opt int 2
      & info [ "bridges" ] ~docv:"B"
          ~doc:"Parallel bridges between adjacent cliques (braided-ring).")
  in
  let rows = Arg.(value & opt int 6 & info [ "rows" ] ~docv:"R" ~doc:"Grid rows.") in
  let cols = Arg.(value & opt int 6 & info [ "cols" ] ~docv:"C" ~doc:"Grid columns.") in
  let make family n p d cliques size bridge bridges rows cols latency seed =
    { family; n; p; d; cliques; size; bridge; bridges; rows; cols; latency; seed }
  in
  Term.(
    const make $ family $ n $ p $ d $ cliques $ size $ bridge $ bridges $ rows $ cols
    $ latency_arg $ seed_arg)

let build_graph a =
  let rng = Rng.of_int a.seed in
  let base =
    match a.family with
    | "clique" -> Gen.clique a.n
    | "star" -> Gen.star a.n
    | "path" -> Gen.path a.n
    | "cycle" -> Gen.cycle a.n
    | "grid" -> Gen.grid a.rows a.cols
    | "torus" -> Gen.torus a.rows a.cols
    | "hypercube" ->
        let rec log2 acc v = if v >= a.n then acc else log2 (acc + 1) (2 * v) in
        Gen.hypercube (max 1 (log2 0 1))
    | "tree" -> Gen.binary_tree a.n
    | "er" -> Gen.erdos_renyi_connected rng ~n:a.n ~p:a.p
    | "regular" -> Gen.random_regular rng ~n:a.n ~d:a.d
    | "ring-of-cliques" ->
        Gen.ring_of_cliques ~cliques:a.cliques ~size:a.size ~bridge_latency:a.bridge
    | "dumbbell" -> Gen.dumbbell ~size:a.size ~bridge_latency:a.bridge
    | other -> die "unknown family %S" other
  in
  match a.latency with
  | Gen.Unit -> base
  | spec -> Gen.with_latencies rng spec base

(* Direct CSR construction for wheel-engine runs: the three scale
   families never pass through the boxed graph, so a 10^6-node run
   builds only flat arrays.  ($(b,--deg) doubles as the attach count
   for barabasi-albert and the base degree for watts-strogatz, as in
   the sweep subcommand.) *)
let build_csr a =
  let module Scsr = Gossip_scale.Csr in
  let direct =
    match a.family with
    | "ring-of-cliques" ->
        Some (Scsr.ring_of_cliques ~cliques:a.cliques ~size:a.size ~bridge_latency:a.bridge)
    | "braided-ring" ->
        Some
          (Scsr.braided_ring ~cliques:a.cliques ~size:a.size ~bridges:a.bridges
             ~bridge_latency:a.bridge)
    | "barabasi-albert" ->
        Some (Scsr.barabasi_albert (Rng.of_int a.seed) ~n:a.n ~attach:a.d)
    | "watts-strogatz" ->
        Some (Scsr.watts_strogatz (Rng.of_int a.seed) ~n:a.n ~k:a.d ~beta:a.p)
    | _ -> None
  in
  match direct with
  | Some csr -> (
      match a.latency with
      | Gen.Unit -> csr
      | spec -> Scsr.with_latencies (Rng.of_int a.seed) spec csr)
  | None -> Scsr.of_graph (build_graph a)

(* The one printer of a run's record: the spanner set-up on
   rr-spanner, the run line (a chain adds its route's summary and one
   line per attempt), then the counters.  A chain reports the rounds it
   executed even when it left a node uninformed. *)
let print_outcome (o : Runner.outcome) ~domains ~max_rounds ~elapsed ~n =
  let r = o.Runner.record in
  let m = r.Runner.metrics in
  let ran =
    Printf.sprintf "%d rounds in %.2fs on %d nodes"
      (Option.value r.Runner.rounds ~default:m.Gossip_sim.Engine.rounds)
      elapsed n
  in
  let line =
    match r.Runner.route with
    | (Runner.Kernel_run | Runner.Spanner_run _) when r.Runner.rounds = None ->
        Printf.sprintf "hit the %d-round cap (%.2fs, %d nodes)" max_rounds elapsed n
    | Runner.Kernel_run | Runner.Spanner_run _ -> ran
    | Runner.Eid_chain c ->
        let k = List.length c.Runner.attempts in
        Printf.sprintf "%s (%s, k_final=%d, %d attempt%s, unanimous=%b)" ran
          (if r.Runner.rounds <> None then "success" else "FAILED")
          c.Runner.k_final k
          (if k = 1 then "" else "s")
          c.Runner.unanimous
    | Runner.Unified_race u ->
        Printf.sprintf "%s (winner: %s, push-pull %s, spanner route %d)" ran
          (match u.Runner.winner with
          | Gossip_core.Dissemination.Scale_push_pull_won -> "push-pull"
          | Gossip_core.Dissemination.Scale_spanner_route_won -> "spanner route")
          (match u.Runner.pushpull_rounds with Some x -> string_of_int x | None -> "capped")
          u.Runner.spanner_rounds
  in
  (match r.Runner.route with
  | Runner.Spanner_run sp ->
      Printf.printf "spanner (k = %d): %d directed edges, max out-degree %d, built in %.1fs\n"
        sp.Runner.k sp.Runner.edges sp.Runner.max_out_degree sp.Runner.build_s
  | _ -> ());
  Printf.printf "wheel %s (domains=%d): %s\n" o.Runner.name domains line;
  (match r.Runner.route with
  | Runner.Eid_chain c ->
      List.iter
        (fun (a : Gossip_core.Eid.unknown_attempt) ->
          Printf.printf
            "  k=%d: discovery %d + schedule %d + rr %d + check %d rounds, %d edges known\n"
            a.ua_k a.ua_discovery_rounds a.ua_schedule_rounds a.ua_rr_rounds a.ua_check_rounds
            a.ua_edges_known)
        c.Runner.attempts
  | _ -> ());
  Printf.printf "initiations: %d, deliveries: %d\n" m.Gossip_sim.Engine.initiations
    m.Gossip_sim.Engine.deliveries

(* One wheel-engine run through Runner.run: builds the graph, runs the
   descriptor, prints its record and optionally dumps the telemetry
   registry -- kernel-tagged counters included -- as JSONL. *)
let run_wheel_protocol args ~protocol ~domains ~source ~max_rounds ~telemetry ~scenario =
  let module Obs = Gossip_obs in
  let module Json = Gossip_util.Json in
  (* Validate the scenario file before any graph is built — a typo in
     the JSON should fail in milliseconds, not after a 10^6-node
     construction. *)
  let scenario = Option.map load_scenario scenario in
  let csr = build_csr args in
  let n = Gossip_scale.Csr.n csr in
  let reg =
    Option.map
      (fun _ -> Obs.Registry.create ~ring:(Obs.Ring.create ~capacity:65536 ()) ())
      telemetry
  in
  let t0 = Unix.gettimeofday () in
  let o =
    match
      Runner.run ?scenario ~domains ?telemetry:reg csr protocol ~seed:args.seed ~source
        ~max_rounds
    with
    | o -> o
    | exception Gossip_dyn.Scenario.Invalid_scenario msg -> die "--scenario: %s" msg
    | exception Runner.Invalid_protocol msg -> die "--protocol %s" msg
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  print_outcome o ~domains ~max_rounds ~elapsed ~n;
  match (telemetry, reg) with
  | Some path, Some reg ->
      Obs.Sink.with_jsonl path (fun sink ->
          Obs.Sink.event sink
            ([
               ("ev", Json.String "meta");
               ("tool", Json.String "gossip-cli run");
               ("protocol", Json.String o.Runner.name);
               ("family", Json.String args.family);
               ("n", Json.Int n);
               ("domains", Json.Int domains);
               ("seed", Json.Int args.seed);
             ]
            @
            match scenario with
            | None -> []
            | Some s -> [ ("scenario", Json.String s.Gossip_dyn.Scenario.name) ]);
          Obs.Sink.registry sink reg;
          match Obs.Registry.ring reg with None -> () | Some ring -> Obs.Sink.ring sink ring);
      Printf.printf "telemetry written to %s\n" path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let run args =
    let g = build_graph args in
    Format.printf "%a@." Graph.pp g;
    Printf.printf "connected: %b\n" (Graph.is_connected g);
    Printf.printf "weighted diameter D = %d, hop diameter = %d, radius = %d\n"
      (Paths.weighted_diameter g) (Paths.hop_diameter g) (Paths.weighted_radius g);
    if Graph.is_connected g && Graph.n g >= 2 then begin
      let wc = Weighted.weighted_conductance g in
      Printf.printf "weighted conductance phi* = %.5f at critical latency ell* = %d\n"
        wc.Weighted.phi_star wc.Weighted.ell_star;
      print_endline "latency profile (Definition 1):";
      List.iter
        (fun (ell, phi) -> Printf.printf "  phi_%-5d = %.5f   phi/ell = %.6f\n" ell phi (phi /. float_of_int ell))
        wc.Weighted.profile;
      Printf.printf "Theorem 12 push-pull bound: %.0f rounds\n"
        (Weighted.pushpull_round_bound g)
    end
  in
  let doc = "Graph statistics and weighted conductance (Definitions 1-2)." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ family_term)

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let algorithm =
    let doc =
      "Algorithm on the reference engine: push-pull, push-pull-all, flood, push-only, dtg, \
       eid, eid-known-d, path-discovery, unified.  For a flat-array wheel engine run use \
       $(b,--protocol)."
    in
    Arg.(value & opt string "push-pull" & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)
  in
  let protocol =
    let doc =
      Printf.sprintf
        "Run the wheel engine with this protocol kernel (%s); rr-spanner first builds a \
         Baswana-Sen spanner and runs RR Broadcast over its orientation.  Builds \
         ring-of-cliques, barabasi-albert, and watts-strogatz directly in CSR form (no \
         boxed graph), honors $(b,--domains) and $(b,--telemetry), and overrides \
         $(b,--algorithm)."
        (String.concat ", " Runner.known_protocols)
    in
    Arg.(value & opt (some protocol_conv) None & info [ "protocol" ] ~docv:"PROTO" ~doc)
  in
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Shard a $(b,--protocol) run across D OCaml domains (default 1); the \
             trajectory is bit-identical to --domains 1.")
  in
  let source =
    Arg.(value & opt int 0 & info [ "source" ] ~docv:"NODE" ~doc:"Broadcast source.")
  in
  let max_rounds =
    Arg.(value & opt int 1_000_000 & info [ "max-rounds" ] ~docv:"R" ~doc:"Round cap.")
  in
  let crash =
    Arg.(
      value & opt float 0.0
      & info [ "crash" ] ~docv:"FRAC"
          ~doc:"Crash-stop this fraction of nodes at round 3 (push-pull only).")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"RATE" ~doc:"Lose each exchange with this probability (push-pull only).")
  in
  let capacity =
    Arg.(
      value & opt (some int) None
      & info [ "capacity" ] ~docv:"C"
          ~doc:"Bounded in-degree: serve at most C requests per round (push-pull only).")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the informed-set trajectory as CSV (fault-free push-pull only).")
  in
  let telemetry =
    Arg.(
      value & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Write wheel-engine telemetry (per-round counters, histograms, trace ring) as \
             JSONL; needs $(b,--protocol).  Inspect with $(b,gossip-cli report).")
  in
  let run args algorithm protocol rumors budget domains source max_rounds crash drop
      capacity trace telemetry scenario =
    (* Every flag belongs to the engine that honors it and is refused
       elsewhere: the fault, capacity and trace flags to the reference
       engine's push-pull, the wheel's flags to --protocol. *)
    let faulty = crash > 0.0 || drop > 0.0 in
    (match
       List.find_opt snd
         [
           ("--crash", crash > 0.0);
           ("--drop", drop > 0.0);
           ("--capacity", capacity <> None);
           ("--trace", trace <> None);
         ]
     with
    | Some (flag, _) when protocol <> None ->
        die "%s applies to --algorithm push-pull, not to --protocol runs" flag
    | Some (flag, _) when algorithm <> "push-pull" ->
        die "%s applies to --algorithm push-pull only" flag
    | _ -> ());
    if trace <> None && (faulty || capacity <> None) then
      die "--trace records the fault-free push-pull run only (drop --crash, --drop and --capacity)";
    if capacity <> None && faulty then die "--capacity cannot be combined with --crash or --drop";
    (* A wheel run never touches the boxed graph: dispatch before
       build_graph so --protocol works at 10^6 nodes. *)
    match protocol with
    | Some p ->
        run_wheel_protocol args ~protocol:(with_rumor_overrides ~rumors ~budget p)
          ~domains:(Option.value domains ~default:1) ~source ~max_rounds ~telemetry ~scenario
    | None ->
    if domains <> None then die "--domains applies to wheel-engine runs only (use --protocol)";
    if scenario <> None then die "--scenario applies to wheel-engine runs only (use --protocol)";
    if rumors <> None || budget <> None then
      die
        "--rumors/--budget apply to wheel-engine runs only (use --protocol k-rumor, rotation, \
         or algebraic)";
    if telemetry <> None then die "--telemetry applies to wheel-engine runs only (use --protocol)";
    let g = build_graph args in
    let rng = Rng.of_int (args.seed + 17) in
    let show label = function
      | Some rounds -> Printf.printf "%s: %d rounds\n" label rounds
      | None -> Printf.printf "%s: hit the %d-round cap\n" label max_rounds
    in
    match algorithm with
    | "push-pull" when faulty ->
        let module R = Gossip_core.Robustness in
        let plan =
          R.combine
            [
              R.crash_fraction (Rng.of_int (args.seed + 1)) ~n:(Graph.n g) ~fraction:crash
                ~from_round:3 ~protect:[ source ];
              R.drop_rate (Rng.of_int (args.seed + 2)) ~rate:drop;
            ]
        in
        let r = R.pushpull_broadcast rng g ~source ~plan ~max_rounds in
        show "push-pull broadcast (faulty)" r.R.rounds;
        Printf.printf "live coverage: %d/%d, dropped messages: %d\n" r.R.informed_live
          r.R.live r.R.metrics.Gossip_sim.Engine.dropped
    | "push-pull" -> (
        match capacity with
        | Some c ->
            let module R = Gossip_core.Robustness in
            let r = R.pushpull_bounded_indegree rng g ~source ~capacity:c ~max_rounds in
            show "push-pull broadcast (bounded in-degree)" r.R.rounds;
            Printf.printf "rejected requests: %d\n" r.R.metrics.Gossip_sim.Engine.rejected
        | None -> (
            let r = Gossip_core.Push_pull.broadcast rng g ~source ~max_rounds in
            show "push-pull broadcast" r.Gossip_core.Push_pull.rounds;
            match trace with
            | None -> ()
            | Some path ->
                let t = Gossip_sim.Trace.create ~name:"informed" in
                List.iter
                  (fun (round, informed) ->
                    Gossip_sim.Trace.record t ~round (float_of_int informed))
                  r.Gossip_core.Push_pull.history;
                Gossip_sim.Trace.write_csv path [ t ];
                Printf.printf "trace written to %s\n" path))
    | "push-pull-all" ->
        let r = Gossip_core.Push_pull.all_to_all rng g ~max_rounds in
        show "push-pull all-to-all" r.Gossip_core.Push_pull.rounds
    | "flood" ->
        let r = Gossip_core.Flooding.flood_all g ~max_rounds in
        show "round-robin flooding" r.Gossip_core.Flooding.rounds
    | "push-only" ->
        let r = Gossip_core.Flooding.push_round_robin g ~source ~blocking:true ~max_rounds in
        show "blocking push-only" r.Gossip_core.Flooding.rounds
    | "dtg" ->
        let r, ok = Gossip_core.Dtg.local_broadcast g ~max_rounds in
        show "DTG local broadcast" r.Gossip_core.Dtg.rounds;
        Printf.printf "local broadcast complete: %b\n" ok
    | "eid" ->
        let r = Gossip_core.Eid.run rng g () in
        Printf.printf "General EID: %d rounds, k_final = %d, attempts = %d, success = %b\n"
          r.Gossip_core.Eid.rounds r.Gossip_core.Eid.k_final
          (List.length r.Gossip_core.Eid.attempts)
          r.Gossip_core.Eid.success
    | "eid-known-d" ->
        let d = Paths.weighted_diameter g in
        let r = Gossip_core.Eid.run_known_diameter rng g ~d () in
        Printf.printf "EID(D = %d): %d rounds, success = %b\n" d r.Gossip_core.Eid.rounds
          r.Gossip_core.Eid.success
    | "path-discovery" ->
        let r = Gossip_core.Path_discovery.run g in
        Printf.printf "Path Discovery: %d rounds, k_final = %d, success = %b\n"
          r.Gossip_core.Path_discovery.rounds r.Gossip_core.Path_discovery.k_final
          r.Gossip_core.Path_discovery.success
    | "unified" ->
        let r =
          Gossip_core.Dissemination.all_to_all rng g
            ~knowledge:Gossip_core.Dissemination.Known_latencies ~max_rounds
        in
        Printf.printf "unified: %d rounds (winner: %s; push-pull %s, spanner %d)\n"
          r.Gossip_core.Dissemination.rounds
          (match r.Gossip_core.Dissemination.winner with
          | Gossip_core.Dissemination.Push_pull_won -> "push-pull"
          | Gossip_core.Dissemination.Spanner_route_won -> "spanner")
          (match r.Gossip_core.Dissemination.pushpull_rounds with
          | Some x -> string_of_int x
          | None -> "cap")
          r.Gossip_core.Dissemination.spanner_rounds
    | other -> die "unknown algorithm %S" other
  in
  let doc = "Run a dissemination algorithm and report round counts." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ family_term $ algorithm $ protocol $ rumors_arg $ budget_arg $ domains
      $ source $ max_rounds $ crash $ drop $ capacity $ trace $ telemetry $ scenario_arg)

(* ------------------------------------------------------------------ *)
(* game *)

let game_cmd =
  let m = Arg.(value & opt int 32 & info [ "side" ] ~docv:"M" ~doc:"Side size of A and B.") in
  let p =
    Arg.(
      value
      & opt (some float) None
      & info [ "prob" ] ~docv:"P" ~doc:"Random_p target density (omit for a singleton).")
  in
  let strategy =
    Arg.(
      value
      & opt string "fresh-pairs"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Alice strategy: random-guessing, fresh-pairs, sequential-scan.")
  in
  let run m p strategy seed =
    let rng = Rng.of_int seed in
    let target =
      match p with
      | None -> Gadgets.singleton_target rng ~m
      | Some p -> Gadgets.random_p_target rng ~m ~p
    in
    let game = Gossip_game.Game.create ~m ~target in
    Printf.printf "Guessing(2m = %d, |T| = %d), strategy %s\n" (2 * m)
      (Gossip_game.Game.target_size game)
      strategy;
    match List.assoc_opt strategy Gossip_game.Strategies.all with
    | None -> die "unknown strategy %S" strategy
    | Some s -> (
        match s rng game ~max_rounds:10_000_000 with
        | Some o ->
            Printf.printf "solved in %d rounds with %d guesses\n" o.Gossip_game.Strategies.rounds
              o.Gossip_game.Strategies.guesses
        | None -> print_endline "not solved within the round cap")
  in
  let doc = "Play the guessing game of Section 3.1." in
  Cmd.v (Cmd.info "game" ~doc) Term.(const run $ m $ p $ strategy $ seed_arg)

(* ------------------------------------------------------------------ *)
(* reduce *)

let reduce_cmd =
  let m = Arg.(value & opt int 16 & info [ "side" ] ~docv:"M" ~doc:"Gadget side size.") in
  let p =
    Arg.(
      value & opt (some float) None
      & info [ "prob" ] ~docv:"P" ~doc:"Random_p target density (omit for a singleton).")
  in
  let symmetric =
    Arg.(value & flag & info [ "symmetric" ] ~doc:"Use the G_sym(P) gadget.")
  in
  let run m p symmetric seed =
    let rng = Rng.of_int seed in
    let target =
      match p with
      | None -> Gadgets.singleton_target rng ~m
      | Some p -> Gadgets.random_p_target rng ~m ~p
    in
    let o =
      Gossip_core.Reduction.simulate_push_pull rng ~m ~target ~fast_latency:1 ~symmetric
        ~max_rounds:1_000_000
    in
    let show = function Some r -> string_of_int r | None -> "never" in
    Printf.printf
      "Lemma 3 simulation on %s (m = %d, |T| = %d):\n\
      \  game solved at round %s, local broadcast at round %s\n\
      \  guesses submitted: %d; Lemma 3 holds: %b\n"
      (if symmetric then "G_sym(P)" else "G(P)")
      m (List.length target)
      (show o.Gossip_core.Reduction.game_rounds)
      (show o.Gossip_core.Reduction.broadcast_rounds)
      o.Gossip_core.Reduction.guesses_submitted o.Gossip_core.Reduction.lemma3_holds
  in
  let doc = "Simulate push-pull on a gadget as a guessing game (Lemma 3)." in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ m $ p $ symmetric $ seed_arg)

(* ------------------------------------------------------------------ *)
(* spanner *)

let spanner_cmd =
  let k =
    Arg.(value & opt int 3 & info [ "stretch-k" ] ~docv:"K" ~doc:"Spanner parameter (stretch 2k-1).")
  in
  let algorithm =
    Arg.(
      value & opt string "baswana-sen"
      & info [ "spanner-algorithm" ] ~docv:"A" ~doc:"baswana-sen or greedy.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the (oriented) spanner as Graphviz DOT.")
  in
  let run args k algorithm dot =
    let g = build_graph args in
    let rng = Rng.of_int (args.seed + 3) in
    match algorithm with
    | "baswana-sen" ->
        let s = Gossip_core.Spanner.build rng g ~k () in
        Printf.printf
          "Baswana-Sen spanner: %d/%d edges, max out-degree %d, stretch %.2f (bound %d)\n"
          (Gossip_core.Spanner.edge_count s) (Graph.m g)
          (Gossip_core.Spanner.max_out_degree s)
          (Gossip_core.Spanner.stretch s)
          ((2 * k) - 1);
        (match dot with
        | None -> ()
        | Some path ->
            Gossip_graph.Dot.write path
              (Gossip_graph.Dot.oriented_to_dot ~out_edges:s.Gossip_core.Spanner.out_edges g);
            Printf.printf "oriented spanner written to %s\n" path)
    | "greedy" ->
        let s = Gossip_core.Greedy_spanner.build g ~r:((2 * k) - 1) in
        Printf.printf "greedy spanner: %d/%d edges, stretch %.2f (bound %d)\n"
          (Gossip_core.Greedy_spanner.edge_count s)
          (Graph.m g)
          (Gossip_core.Greedy_spanner.stretch s)
          ((2 * k) - 1);
        (match dot with
        | None -> ()
        | Some path ->
            Gossip_graph.Dot.write path
              (Gossip_graph.Dot.to_dot s.Gossip_core.Greedy_spanner.spanner);
            Printf.printf "spanner written to %s\n" path)
    | other -> die "unknown spanner algorithm %S" other
  in
  let doc = "Build a spanner of the graph (Appendix D / greedy baseline)." in
  Cmd.v (Cmd.info "spanner" ~doc) Term.(const run $ family_term $ k $ algorithm $ dot)

(* ------------------------------------------------------------------ *)
(* sweep and client submit: one job spec *)

(* The flags that say which jobs to run, shared by [sweep], which runs
   them in process, and [client submit], which queues them on the
   daemon: the daemon's submit spec, less the scenario, which each
   command loads itself. *)
let job_spec_term =
  let module Sweep = Gossip_sweep.Sweep in
  let family =
    let families =
      [
        ("ring-of-cliques", `Ring_of_cliques);
        ("braided-ring", `Braided_ring);
        ("barabasi-albert", `Barabasi_albert);
        ("watts-strogatz", `Watts_strogatz);
      ]
    in
    let doc = "Scale family: ring-of-cliques, braided-ring, barabasi-albert, watts-strogatz." in
    Arg.(value & opt (enum families) `Ring_of_cliques & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let n =
    Arg.(value & opt pos_int_conv 10_000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Node count.")
  in
  let protocol =
    let doc = Printf.sprintf "Protocol: %s." (String.concat ", " Runner.known_protocols) in
    Arg.(value & opt protocol_conv Runner.Push_pull & info [ "protocol" ] ~docv:"PROTO" ~doc)
  in
  let trials =
    Arg.(
      value & opt pos_int_conv 8 & info [ "trials" ] ~docv:"T" ~doc:"Independent seeded trials.")
  in
  let size =
    Arg.(
      value & opt int 8
      & info [ "size" ] ~docv:"S" ~doc:"Clique size (ring-of-cliques, braided-ring).")
  in
  let bridge =
    Arg.(
      value & opt int 8
      & info [ "bridge" ] ~docv:"L" ~doc:"Bridge latency (ring-of-cliques, braided-ring).")
  in
  let bridges =
    Arg.(
      value & opt int 2
      & info [ "bridges" ] ~docv:"B"
          ~doc:"Parallel bridges between adjacent cliques (braided-ring).")
  in
  let attach =
    Arg.(
      value & opt int 3
      & info [ "attach" ] ~docv:"M" ~doc:"Edges per new node (barabasi-albert).")
  in
  let ws_k =
    Arg.(
      value & opt int 6
      & info [ "ws-k" ] ~docv:"K" ~doc:"Even base degree (watts-strogatz).")
  in
  let beta =
    Arg.(
      value & opt float 0.1
      & info [ "beta" ] ~docv:"B" ~doc:"Rewiring probability (watts-strogatz).")
  in
  let latency =
    Arg.(
      value & opt (some latency_spec_conv) None
      & info [ "latency" ] ~docv:"SPEC"
          ~doc:"Redraw edge latencies: unit, fixed:K, uniform:LO-HI, bimodal:F,S,P, \
                powerlaw:MIN,MAX,EXP.")
  in
  let max_rounds =
    Arg.(value & opt pos_int_conv 1_000_000 & info [ "max-rounds" ] ~docv:"R" ~doc:"Round cap.")
  in
  let make family n protocol trials size bridge bridges attach ws_k beta latency max_rounds
      seed =
    let family =
      match family with
      | `Ring_of_cliques -> Sweep.Ring_of_cliques { size; bridge_latency = bridge }
      | `Braided_ring -> Sweep.Braided_ring { size; bridges; bridge_latency = bridge }
      | `Barabasi_albert -> Sweep.Barabasi_albert { attach }
      | `Watts_strogatz -> Sweep.Watts_strogatz { k = ws_k; beta }
    in
    {
      Gossip_serve.Protocol.family;
      n;
      protocol;
      trials;
      base_seed = seed;
      max_rounds;
      latency;
      scenario = None;
    }
  in
  Term.(
    const make $ family $ n $ protocol $ trials $ size $ bridge $ bridges $ attach $ ws_k $ beta
    $ latency $ max_rounds $ seed_arg)

let sweep_cmd =
  let module Sweep = Gossip_sweep.Sweep in
  let module Pool = Gossip_sweep.Pool in
  let module P = Gossip_serve.Protocol in
  let module Json = Gossip_util.Json in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "jobs" ] ~docv:"J" ~doc:"Worker domains (default: cores - 1).")
  in
  let domains =
    Arg.(
      value & opt pos_int_conv 1
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Engine domains per job (sharded wheel engine; trajectory-identical to 1). \
             Workers are budgeted so jobs × domains never oversubscribes the machine.")
  in
  let retries =
    Arg.(
      value & opt pos_int_conv 0
      & info [ "retries" ] ~docv:"K"
          ~doc:"Re-run each failing job up to K extra times before recording a failure.")
  in
  let job_timeout =
    Arg.(
      value & opt (some pos_float_conv) None
      & info [ "job-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-job wall-clock budget, checked cooperatively between rounds; an \
             over-budget job is recorded as failed, not killed mid-round.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Append each job's outcome to FILE (JSONL) as it finishes, so a killed \
             sweep can restart with $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Skip jobs already recorded in the $(b,--checkpoint) file and append new \
             outcomes to it instead of truncating.")
  in
  let inject_crash =
    Arg.(
      value & opt (some int) None
      & info [ "inject-crash" ] ~docv:"SEED"
          ~doc:"Testing hook: crash the job with this seed on every attempt.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write raw results and summaries as JSON.")
  in
  let telemetry =
    Arg.(
      value & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Write per-job outcomes and pool metrics (worker busy time, job-latency \
             histogram, queue depth) as JSONL; inspect with $(b,gossip-cli report).")
  in
  let run (spec : P.spec) rumors budget jobs domains retries job_timeout checkpoint resume
      inject_crash out telemetry scenario =
    let protocol = with_rumor_overrides ~rumors ~budget spec.P.protocol in
    let scenario = Option.map load_scenario scenario in
    let jobs_list = P.jobs_of_spec { spec with P.protocol; scenario } in
    let workers =
      let requested = match jobs with Some j -> max 1 j | None -> Pool.default_workers () in
      if domains > 1 then Pool.budget_workers ~workers:requested ~domains_per_job:domains ()
      else requested
    in
    if resume && checkpoint = None then die "--resume requires --checkpoint FILE";
    let registry =
      match telemetry with
      | None -> None
      | Some _ -> Some (Gossip_obs.Registry.create ())
    in
    let inject =
      Option.map
        (fun crash_seed (j : Sweep.job) ->
          if j.Sweep.seed = crash_seed then
            failwith (Printf.sprintf "injected crash (seed %d)" crash_seed))
        inject_crash
    in
    let report =
      Sweep.run_ft ~workers ~retries ?timeout_s:job_timeout ~domains ?checkpoint ~resume
        ?inject ?telemetry:registry jobs_list
    in
    let outcomes = report.Sweep.completed in
    let failures = report.Sweep.failed in
    if report.Sweep.skipped > 0 then
      Printf.printf "resume: %d/%d jobs already recorded in the checkpoint\n"
        report.Sweep.skipped (List.length jobs_list);
    List.iter
      (fun s ->
        Printf.printf "%s n=%d %s: %d/%d trials completed%s\n" s.Sweep.family s.Sweep.n
          s.Sweep.protocol s.Sweep.completed s.Sweep.trials
          (if s.Sweep.failed > 0 then Printf.sprintf ", %d failed" s.Sweep.failed else "");
        match s.Sweep.rounds with
        | None -> ()
        | Some st ->
            Printf.printf
              "  rounds: mean %.1f, median %.1f, min %.0f, max %.0f over %d runs\n"
              st.Gossip_util.Stats.mean st.Gossip_util.Stats.median
              st.Gossip_util.Stats.min st.Gossip_util.Stats.max st.Gossip_util.Stats.n)
      (Sweep.summarize ~failures outcomes);
    List.iter
      (fun (f : Sweep.failure) ->
        Printf.printf "FAILED %s n=%d seed=%d %s after %d attempt%s: %s\n"
          (Sweep.family_name f.Sweep.failed_job.Sweep.family)
          f.Sweep.failed_job.Sweep.n f.Sweep.failed_job.Sweep.seed
          (Runner.protocol_name f.Sweep.failed_job.Sweep.protocol)
          f.Sweep.attempts
          (if f.Sweep.attempts = 1 then "" else "s")
          f.Sweep.message)
      failures;
    let meta =
      [
        ("tool", Json.String "gossip-cli sweep");
        ("seed", Json.Int spec.P.base_seed);
        ("workers", Json.Int workers);
        ("domains", Json.Int domains);
      ]
    in
    (match out with
    | None -> ()
    | Some path ->
        Sweep.write_json path ~meta ~failures outcomes;
        Printf.printf "results written to %s\n" path);
    (match (telemetry, registry) with
    | Some path, Some reg ->
        Sweep.write_telemetry path ~meta ~registry:reg ~failures
          ~retries:report.Sweep.retried outcomes;
        Printf.printf "telemetry written to %s\n" path
    | _ -> ());
    if failures <> [] then exit 1
  in
  let doc = "Sweep a protocol over seeded trials of a large graph family (multicore)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ job_spec_term $ rumors_arg $ budget_arg $ jobs $ domains $ retries
      $ job_timeout $ checkpoint $ resume $ inject_crash $ out $ telemetry $ scenario_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the gossip daemon *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let module Server = Gossip_serve.Server in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Persist every accepted job and finished trial to FILE (JSONL, the PR-3 \
             checkpoint format); a restarted daemon replays it and resumes the queue.")
  in
  let telemetry =
    Arg.(
      value & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "On shutdown write the $(b,serve.*) counters and gauges to FILE (JSONL); \
             inspect with $(b,gossip-cli report).")
  in
  let capacity =
    Arg.(
      value & opt pos_int_conv 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Bound on incomplete jobs (queued + running); a submit over the bound is \
             rejected with a typed $(b,queue_full) error, never a hang.")
  in
  let retries =
    Arg.(
      value & opt pos_int_conv 0
      & info [ "retries" ] ~docv:"K"
          ~doc:"Re-run each failing trial up to K extra times before recording a failure.")
  in
  let job_timeout =
    Arg.(
      value & opt (some pos_float_conv) None
      & info [ "job-timeout" ] ~docv:"SECS"
          ~doc:"Cooperative per-trial wall-clock budget, checked between rounds.")
  in
  let run socket journal telemetry capacity retries job_timeout =
    let cfg =
      {
        (Server.default ~socket_path:socket) with
        Server.journal;
        telemetry;
        capacity;
        retries;
        timeout_s = job_timeout;
      }
    in
    Printf.printf "gossipd listening on %s\n%!" socket;
    Server.run cfg;
    print_endline "gossipd: drained, exiting"
  in
  let doc = "Run the gossip daemon: queued sweeps over a Unix-socket JSONL protocol." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ journal $ telemetry $ capacity $ retries $ job_timeout)

let client_cmd =
  let module P = Gossip_serve.Protocol in
  let module C = Gossip_serve.Client in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:
            "One of: ping, submit, status, watch, results, cancel, wait, stats, \
             shutdown.")
  in
  let job =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"JOB" ~doc:"Job id (status, watch, results, cancel, wait).")
  in
  let wait_timeout =
    Arg.(
      value & opt pos_float_conv 60.0
      & info [ "wait-timeout" ] ~docv:"SECS" ~doc:"Give up on $(b,wait) after this long.")
  in
  let run socket action job (spec : P.spec) rumors budget scenario wait_timeout =
    let print_resp r = print_string (Gossip_serve.Frame.frame (P.response_to_json r)) in
    let finish r =
      print_resp r;
      match r with P.Error _ -> exit 1 | _ -> ()
    in
    let need_job () =
      match job with
      | Some j -> j
      | None -> die "client %s needs a JOB argument" action
    in
    let with_connect f =
      match C.with_connect socket f with
      | v -> v
      | exception Unix.Unix_error (e, "connect", _) ->
          die "cannot connect to %s: %s (is the daemon running?)" socket (Unix.error_message e)
      | exception C.Closed -> die "the daemon closed the connection mid-exchange"
    in
    with_connect (fun c ->
        match action with
        | "ping" -> finish (C.rpc c P.Ping)
        | "submit" ->
            let protocol = with_rumor_overrides ~rumors ~budget spec.P.protocol in
            let scenario = Option.map load_scenario scenario in
            finish (C.rpc c (P.Submit { spec with P.protocol; scenario }))
        | "status" -> finish (C.rpc c (P.Status (need_job ())))
        | "cancel" -> finish (C.rpc c (P.Cancel (need_job ())))
        | "stats" -> finish (C.rpc c P.Stats)
        | "shutdown" -> finish (C.rpc c P.Shutdown)
        | "watch" ->
            C.stream c
              (P.Watch (need_job ()))
              (fun r ->
                print_resp r;
                match r with
                | P.Job_done _ -> `Stop
                | P.Error _ -> exit 1
                | _ -> `Continue)
        | "results" ->
            C.stream c
              (P.Results (need_job ()))
              (fun r ->
                print_resp r;
                match r with
                | P.Results_end _ -> `Stop
                | P.Error _ -> exit 1
                | _ -> `Continue)
        | "wait" ->
            let job = need_job () in
            let deadline = Unix.gettimeofday () +. wait_timeout in
            let rec poll () =
              match C.rpc c (P.Status job) with
              | P.Job_status s as r -> (
                  match s.P.s_state with
                  | P.Done | P.Failed | P.Cancelled -> print_resp r
                  | P.Queued | P.Running ->
                      if Unix.gettimeofday () > deadline then begin
                        print_resp r;
                        prerr_endline "wait: timed out";
                        exit 2
                      end
                      else begin
                        Unix.sleepf 0.05;
                        poll ()
                      end)
              | r -> finish r
            in
            poll ()
        | other -> die "unknown client action %S" other)
  in
  let doc = "Talk to a running gossip daemon (submit, follow, and fetch jobs)." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ action $ job $ job_spec_term $ rumors_arg $ budget_arg
      $ scenario_arg $ wait_timeout)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Telemetry JSONL file to summarize.")
  in
  let run file =
    if not (Sys.file_exists file) then die "no such file %S" file;
    Format.printf "%a@?" Gossip_obs.Report.pp (Gossip_obs.Report.of_file file)
  in
  let doc = "Summarize a telemetry JSONL file (event counts, job latency, metrics)." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* gadget *)

let gadget_cmd =
  let which =
    Arg.(
      value
      & opt string "theorem7"
      & info [ "which" ] ~docv:"W" ~doc:"Gadget: g-p, g-sym, theorem6, theorem7, theorem8.")
  in
  let m = Arg.(value & opt int 8 & info [ "side" ] ~docv:"M" ~doc:"Bipartite side size.") in
  let n = Arg.(value & opt int 64 & info [ "nodes" ] ~docv:"N" ~doc:"Network size.") in
  let delta = Arg.(value & opt int 8 & info [ "delta" ] ~docv:"D" ~doc:"Theorem 6 delta.") in
  let ell = Arg.(value & opt int 4 & info [ "ell" ] ~docv:"L" ~doc:"Fast latency.") in
  let phi = Arg.(value & opt float 0.2 & info [ "phi" ] ~docv:"PHI" ~doc:"Theorem 7 phi.") in
  let layers = Arg.(value & opt int 6 & info [ "layers" ] ~docv:"K" ~doc:"Theorem 8 layers.") in
  let size = Arg.(value & opt int 8 & info [ "size" ] ~docv:"S" ~doc:"Theorem 8 layer size.") in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the gadget as Graphviz DOT (fast edges bold).")
  in
  let run which m n delta ell phi layers size dot seed =
    let rng = Rng.of_int seed in
    let describe g label =
      (match dot with
      | None -> ()
      | Some path ->
          Gossip_graph.Dot.write path (Gossip_graph.Dot.to_dot ~fast_threshold:ell g);
          Printf.printf "gadget written to %s\n" path);
      Printf.printf "%s\n" label;
      Format.printf "  %a@." Graph.pp g;
      Printf.printf "  weighted diameter %d, max degree %d\n" (Paths.weighted_diameter g)
        (Graph.max_degree g);
      if Graph.is_connected g && Graph.n g <= 4096 then begin
        let wc = Weighted.weighted_conductance ~backend:Weighted.Sweep g in
        Printf.printf "  phi* = %.4f at ell* = %d\n" wc.Weighted.phi_star wc.Weighted.ell_star
      end
    in
    match which with
    | "g-p" ->
        let target = Gadgets.random_p_target rng ~m ~p:phi in
        let g = Gadgets.g_p ~m ~target ~fast_latency:ell ~slow_latency:(2 * m) in
        print_string (Gadgets.describe_gadget ~fast_latency:ell g ~m);
        describe g "G(P)"
    | "g-sym" ->
        let target = Gadgets.random_p_target rng ~m ~p:phi in
        let g = Gadgets.g_sym_p ~m ~target ~fast_latency:ell ~slow_latency:(2 * m) in
        print_string (Gadgets.describe_gadget ~fast_latency:ell g ~m);
        describe g "G_sym(P)"
    | "theorem6" ->
        let info = Gadgets.theorem6 rng ~n ~delta in
        describe info.Gadgets.h_graph (Printf.sprintf "Theorem 6 network H(n=%d, delta=%d)" n delta)
    | "theorem7" ->
        let info = Gadgets.theorem7 rng ~n ~ell ~phi in
        Printf.printf "target size %d (expected %.0f)\n"
          (List.length info.Gadgets.t7_target)
          (phi *. float_of_int (n * n));
        describe info.Gadgets.t7_graph
          (Printf.sprintf "Theorem 7 gadget (n=%d, ell=%d, phi=%.3f)" n ell phi)
    | "theorem8" ->
        let info = Gadgets.theorem8 rng ~layers ~layer_size:size ~ell in
        Printf.printf "analytic phi_ell (Lemma 9) = %.4f, diameter bound ~ k/2 = %d\n"
          info.Gadgets.t8_phi_analytic info.Gadgets.t8_diameter_bound;
        describe info.Gadgets.t8_graph
          (Printf.sprintf "Theorem 8 layered ring (k=%d, s=%d, ell=%d)" layers size ell)
    | other -> die "unknown gadget %S" other
  in
  let doc = "Build and describe a lower-bound gadget (Section 3.2)." in
  Cmd.v (Cmd.info "gadget" ~doc)
    Term.(const run $ which $ m $ n $ delta $ ell $ phi $ layers $ size $ dot $ seed_arg)

let () =
  let doc = "Gossiping with latencies: algorithms, gadgets, and analyses." in
  let info = Cmd.info "gossip-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            run_cmd;
            game_cmd;
            gadget_cmd;
            spanner_cmd;
            reduce_cmd;
            sweep_cmd;
            serve_cmd;
            client_cmd;
            report_cmd;
          ]))
