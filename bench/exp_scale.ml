(* E12 — the flat-array scale runtime (lib/scale) vs the reference
   engine (lib/sim).

   Part 1: rounds/sec of a full push-pull broadcast on the same graph
   with the same seed.  The two runtimes are trajectory-identical
   (test_scale locks this with a 120-case qcheck property), so the
   comparison is rounds-for-rounds fair and we assert the round counts
   agree here too.

   Part 2: Theorem 12 sanity on large ring-of-cliques graphs that only
   the wheel engine can sweep comfortably: measured completion rounds
   stay within a small constant of (ell_star / phi_star) ln n. *)

open Common
module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Weighted = Gossip_conductance.Weighted
module Push_pull = Gossip_core.Push_pull
module Csr = Gossip_scale.Csr
module Kernel = Gossip_scale.Kernel
module Wheel = Gossip_scale.Wheel_engine
module Runner = Gossip_sweep.Runner

let time f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* An rr-spanner run through Runner.run, timed without its spanner
   set-up: (outcome, spanner record, engine seconds). *)
let time_rr_spanner run =
  let o, s = time run in
  match o.Runner.record.Runner.route with
  | Runner.Spanner_run sp -> (o, sp, s -. sp.Runner.build_s)
  | _ -> invalid_arg "time_rr_spanner: not an rr-spanner run"

let e12 () =
  section "E12  scale runtime: timing wheel vs reference engine"
    "Full push-pull broadcast on Barabasi-Albert graphs (attach 3, uniform\n\
     1-8 latencies), identical seeds: the wheel engine must reproduce the\n\
     reference round count and deliver >= 5x the rounds/sec at n = 10^5.";
  let t =
    Table.create ~title:"E12a: rounds/sec, reference engine vs timing wheel"
      ~columns:
        [
          ("n", Table.Right);
          ("edges", Table.Right);
          ("rounds", Table.Right);
          ("engine s", Table.Right);
          ("wheel s", Table.Right);
          ("engine r/s", Table.Right);
          ("wheel r/s", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let speedup_at = ref [] in
  let rows = ref [] in
  List.iter
    (fun n ->
      let seed = 1009 in
      let csr =
        Csr.with_latencies (Rng.of_int (seed + 7)) (Gossip_graph.Gen.Uniform (1, 8))
          (Csr.barabasi_albert (Rng.of_int seed) ~n ~attach:3)
      in
      let g = Csr.to_graph csr in
      let run_engine () =
        Push_pull.broadcast (Rng.of_int (seed + 17)) g ~source:0 ~max_rounds:10_000
      in
      let run_wheel () =
        Wheel.broadcast_kernel (Rng.of_int (seed + 17)) csr ~kernel:(Kernel.push_pull csr)
          ~source:0 ~max_rounds:10_000
      in
      let er, engine_s = time run_engine in
      let wr, wheel_s = time run_wheel in
      let rounds = rounds_exn er.Push_pull.rounds in
      if Some rounds <> wr.Wheel.rounds then
        failwith "E12: wheel engine diverged from the reference engine";
      let per t = float_of_int rounds /. t in
      let speedup = engine_s /. wheel_s in
      speedup_at := (n, speedup) :: !speedup_at;
      (let module Json = Gossip_util.Json in
       rows :=
         [
           ("n", Json.Int n);
           ("edges", Json.Int (Csr.m csr));
           ("rounds", Json.Int rounds);
           ("engine_s", Json.Float engine_s);
           ("wheel_s", Json.Float wheel_s);
           ("engine_rps", Json.Float (per engine_s));
           ("wheel_rps", Json.Float (per wheel_s));
           ("speedup", Json.Float speedup);
         ]
         :: !rows);
      Table.add_row t
        [
          fmt_i n;
          fmt_i (Csr.m csr);
          fmt_i rounds;
          fmt_f ~d:3 engine_s;
          fmt_f ~d:3 wheel_s;
          fmt_f ~d:0 (per engine_s);
          fmt_f ~d:0 (per wheel_s);
          fmt_f ~d:1 speedup;
        ])
    [ 10_000; 100_000 ];
  Table.print t;
  bench_rows ~exp:"e12" (List.rev !rows);
  (match List.assoc_opt 100_000 !speedup_at with
  | Some s -> Printf.printf "speedup at n = 100000: %.1fx (target >= 5x: %b)\n" s (s >= 5.0)
  | None -> ());
  let t2 =
    Table.create
      ~title:"E12b: Theorem 12 on wheel-engine-scale ring-of-cliques"
      ~columns:
        [
          ("n", Table.Right);
          ("ell*", Table.Right);
          ("phi*", Table.Right);
          ("bound", Table.Right);
          ("measured", Table.Right);
          ("ratio", Table.Right);
        ]
  in
  List.iter
    (fun cliques ->
      let csr = Csr.ring_of_cliques ~cliques ~size:8 ~bridge_latency:6 in
      let g = Csr.to_graph csr in
      let wc = Weighted.weighted_conductance ~backend:Weighted.Sweep g in
      let bound =
        float_of_int wc.Weighted.ell_star /. wc.Weighted.phi_star
        *. log (float_of_int (Csr.n csr))
      in
      let measured =
        mean_of ~trials:3 ~base_seed:31 (fun seed ->
            let r =
              Wheel.broadcast_kernel (Rng.of_int seed) csr ~kernel:(Kernel.push_pull csr)
                ~source:0 ~max_rounds:5_000_000
            in
            float_of_int (rounds_exn r.Wheel.rounds))
      in
      Table.add_row t2
        [
          fmt_i (Csr.n csr);
          fmt_i wc.Weighted.ell_star;
          fmt_f ~d:4 wc.Weighted.phi_star;
          fmt_f bound;
          fmt_f measured;
          fmt_f ~d:2 (measured /. bound);
        ])
    [ 60; 240; 960 ];
  Table.print t2

(* E13 — cost of the telemetry subsystem on the wheel engine's hot
   loop.  Same workload as E12's wheel run (Barabasi-Albert, attach 3,
   uniform 1-8 latencies, n = 10^5, seed 1009), telemetry detached vs
   attached (registry + 65536-slot ring sampling 1/16), timed in
   interleaved off/on pairs whose order alternates, so host drift lands
   on both sides of a pair.  The attached overhead is the median of the
   paired ratios, against a 15% budget; it is printed, not enforced, as
   wall-clock on a shared host cannot gate. *)
let e13 () =
  let module Obs = Gossip_obs in
  section "E13  telemetry overhead: wheel engine with telemetry detached vs attached"
    "Push-pull broadcast on a Barabasi-Albert graph (attach 3, uniform 1-8\n\
     latencies, n = 10^5), wheel engine with telemetry detached vs attached\n\
     (registry + ring, 1/16 sampling) in interleaved pairs.  The median\n\
     paired overhead of attaching should stay within 15%.";
  let n = 100_000 in
  let seed = 1009 in
  let csr =
    Csr.with_latencies (Rng.of_int (seed + 7)) (Gossip_graph.Gen.Uniform (1, 8))
      (Csr.barabasi_albert (Rng.of_int seed) ~n ~attach:3)
  in
  let run ?telemetry () =
    Wheel.broadcast_kernel ?telemetry (Rng.of_int (seed + 17)) csr
      ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:10_000
  in
  (* The warm-up run (allocator, page cache) fixes the round count that
     every timed run must reproduce. *)
  let rounds = rounds_exn (run ()).Wheel.rounds in
  let on_registry = ref None in
  let timed ?telemetry () =
    let r, s = time (run ?telemetry) in
    if rounds_exn r.Wheel.rounds <> rounds then failwith "E13: telemetry changed the trajectory";
    s
  in
  let off () = timed () in
  let on () =
    let ring = Obs.Ring.create ~sample:16 ~capacity:65536 () in
    let reg = Obs.Registry.create ~ring () in
    on_registry := Some reg;
    timed ~telemetry:reg ()
  in
  let pairs = 6 in
  let off_s = Array.make pairs 0.0 and on_s = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    if i mod 2 = 0 then off_s.(i) <- off ();
    on_s.(i) <- on ();
    if i mod 2 = 1 then off_s.(i) <- off ()
  done;
  let on_overhead = Stats.median (Array.init pairs (fun i -> (on_s.(i) /. off_s.(i)) -. 1.0)) in
  let off_med = Stats.median off_s and on_med = Stats.median on_s in
  let t =
    Table.create ~title:"E13: wheel-engine throughput with telemetry off/on"
      ~columns:
        [
          ("config", Table.Left);
          ("rounds", Table.Right);
          ("median s", Table.Right);
          ("rounds/s", Table.Right);
        ]
  in
  List.iter
    (fun (label, s) ->
      Table.add_row t
        [ label; fmt_i rounds; fmt_f ~d:3 s; fmt_f ~d:0 (float_of_int rounds /. s) ])
    [ ("telemetry off", off_med); ("telemetry on", on_med) ];
  Table.print t;
  Printf.printf "telemetry-on overhead, median of %d paired ratios: %.1f%% (within 15%%: %b)\n"
    pairs (on_overhead *. 100.0) (on_overhead <= 0.15);
  (match !on_registry with
  | Some reg ->
      let h = Obs.Registry.histogram reg "wheel.round.deliveries" in
      Printf.printf
        "attached registry saw %d rounds, %d deliveries (p95 deliveries/round ~ %.0f)\n"
        (Obs.Registry.hist_count h) (Obs.Registry.hist_sum h)
        (Obs.Registry.hist_percentile h 95.0);
      (match Obs.Registry.ring reg with
      | Some ring ->
          Printf.printf "ring kept %d of %d trace events (1/16 sampling)\n"
            (Obs.Ring.kept ring) (Obs.Ring.seen ring)
      | None -> ())
  | None -> ());
  let module Json = Gossip_util.Json in
  bench_rows ~exp:"e13"
    [
      [
        ("n", Json.Int n);
        ("rounds", Json.Int rounds);
        ("pairs", Json.Int pairs);
        ("off_s", Json.Float off_med);
        ("on_s", Json.Float on_med);
        ("on_overhead", Json.Float on_overhead);
      ];
    ]

(* E14 — the domain-sharded wheel engine vs the sequential one.  Same
   workload family as E12 (Barabasi-Albert, attach 3, uniform 1-8
   latencies), one full push-pull broadcast per configuration.  The
   two paths are bit-identical by construction (test_scale locks this
   under qcheck for domains 1-4), so besides timing we hard-assert
   parity of rounds, trajectory, metrics, and the final informed set —
   a divergence fails the bench, which is what CI's e14 smoke step
   relies on.  Speedup is hardware-dependent (it needs the cores); the
   recorded rows carry the core count so results are interpretable.

   Env knobs for CI-sized runs: E14_N (comma-separated node counts,
   default "100000,1000000") and E14_DOMAINS (default 4). *)
let e14 () =
  let domains =
    match Sys.getenv_opt "E14_DOMAINS" with Some s -> int_of_string s | None -> 4
  in
  let sizes =
    match Sys.getenv_opt "E14_N" with
    | Some s -> String.split_on_char ',' s |> List.map String.trim |> List.map int_of_string
    | None -> [ 100_000; 1_000_000 ]
  in
  let cores = Domain.recommended_domain_count () in
  section "E14  parallel wheel: domain-sharded vs sequential engine"
    (Printf.sprintf
       "Full push-pull broadcast on Barabasi-Albert graphs (attach 3, uniform\n\
        1-8 latencies), sequential wheel vs the same run sharded across %d\n\
        domains (%d cores available).  Trajectory, metrics, and informed set\n\
        must be bit-identical; speedup is recorded in BENCH_e14.json." domains cores)
  ;
  let t =
    Table.create ~title:"E14: rounds/sec, sequential vs sharded wheel"
      ~columns:
        [
          ("n", Table.Right);
          ("edges", Table.Right);
          ("rounds", Table.Right);
          ("seq s", Table.Right);
          ("shard s", Table.Right);
          ("seq r/s", Table.Right);
          ("shard r/s", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let rows = ref [] in
  let speedup_at = ref [] in
  List.iter
    (fun n ->
      let seed = 1009 in
      let csr =
        Csr.with_latencies (Rng.of_int (seed + 7)) (Gossip_graph.Gen.Uniform (1, 8))
          (Csr.barabasi_albert (Rng.of_int seed) ~n ~attach:3)
      in
      let run d =
        Wheel.broadcast_kernel ~domains:d (Rng.of_int (seed + 17)) csr
          ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:10_000
      in
      if n <= 100_000 then ignore (run 1);
      let sr, seq_s = time (fun () -> run 1) in
      let pr, shard_s = time (fun () -> run domains) in
      if
        not
          (sr.Wheel.rounds = pr.Wheel.rounds
          && sr.Wheel.history = pr.Wheel.history
          && sr.Wheel.metrics = pr.Wheel.metrics
          && Bytes.equal sr.Wheel.informed pr.Wheel.informed)
      then failwith "E14: sharded engine diverged from the sequential wheel";
      let rounds = rounds_exn sr.Wheel.rounds in
      let per s = float_of_int rounds /. s in
      let speedup = seq_s /. shard_s in
      speedup_at := (n, speedup) :: !speedup_at;
      (let module Json = Gossip_util.Json in
       rows :=
         [
           ("n", Json.Int n);
           ("edges", Json.Int (Csr.m csr));
           ("domains", Json.Int domains);
           ("cores", Json.Int cores);
           ("rounds", Json.Int rounds);
           ("seq_s", Json.Float seq_s);
           ("shard_s", Json.Float shard_s);
           ("seq_rps", Json.Float (per seq_s));
           ("shard_rps", Json.Float (per shard_s));
           ("speedup", Json.Float speedup);
           ("parity", Json.Bool true);
         ]
         :: !rows);
      Table.add_row t
        [
          fmt_i n;
          fmt_i (Csr.m csr);
          fmt_i rounds;
          fmt_f ~d:3 seq_s;
          fmt_f ~d:3 shard_s;
          fmt_f ~d:0 (per seq_s);
          fmt_f ~d:0 (per shard_s);
          fmt_f ~d:2 speedup;
        ])
    sizes;
  Table.print t;
  bench_rows ~exp:"e14" (List.rev !rows);
  Printf.printf "parity: sharded == sequential on every configuration\n";
  match !speedup_at with
  | (n, s) :: _ ->
      Printf.printf "speedup at n = %d with %d domains on %d cores: %.2fx (target >= 2x: %b)\n"
        n domains cores s (s >= 2.0)
  | [] -> ()

(* E15 — Theorem 14's route at scale: RR Broadcast over a Baswana-Sen
   orientation vs randomized push-pull, both on the wheel engine, on
   the low-conductance ring-of-cliques family (size-16 cliques,
   latency-8 bridges).  Push-pull pays the conductance price at every
   bridge crossing; the spanner keeps the bridges but thins each
   clique to O(log n) out-edges, so the deterministic round-robin
   cursor reaches a bridge every few rounds instead of hitting it by
   luck.  Round counts are honest: a protocol that exhausts the cap
   records "capped", never a fabricated number.  The spanner build is
   timed and reported separately from the broadcast so the wall-clock
   comparison does not hide preprocessing.

   Sizing: on a ring of cliques the round count grows with the ring
   diameter (~ n / clique size), so wall-clock is Theta(n * rounds) ~
   n^2 — the defaults are sized for a single-core container (~30 s
   total).  E15_N picks other node counts (comma-separated, rounded
   down to clique multiples; E15_N=100000,1000000 is the full-scale
   run for a beefy host) and E15_DOMAINS shards both broadcasts across
   OCaml domains, which is trajectory-identical (bench e14) and so
   changes only the wall-clock column. *)
let e15 () =
  let sizes =
    match Sys.getenv_opt "E15_N" with
    | Some s -> String.split_on_char ',' s |> List.map String.trim |> List.map int_of_string
    | None -> [ 10_000; 20_000 ]
  in
  let domains =
    match Sys.getenv_opt "E15_DOMAINS" with Some s -> int_of_string s | None -> 1
  in
  let clique = 16 and bridge = 8 in
  let max_rounds = 200_000 in
  section "E15  Theorem 14 at scale: RR-on-spanner vs push-pull"
    (Printf.sprintf
       "One-to-all broadcast on ring-of-cliques (cliques of %d, latency-%d\n\
        bridges), wheel engine: randomized push-pull vs RR Broadcast over a\n\
        Baswana-Sen orientation with k = ceil(log2 n) (Lemma 15 out-degree\n\
        bound asserted at packing).  Rounds and seconds in BENCH_e15.json."
       clique bridge);
  let t =
    Table.create ~title:"E15: push-pull vs RR-on-spanner, low-conductance family"
      ~columns:
        [
          ("n", Table.Right);
          ("pp rounds", Table.Right);
          ("pp s", Table.Right);
          ("span edges", Table.Right);
          ("max outdeg", Table.Right);
          ("build s", Table.Right);
          ("rr rounds", Table.Right);
          ("rr s", Table.Right);
          ("round ratio", Table.Right);
        ]
  in
  let rows = ref [] in
  List.iter
    (fun n_req ->
      let seed = 1013 in
      let cliques = max 3 (n_req / clique) in
      let csr = Csr.ring_of_cliques ~cliques ~size:clique ~bridge_latency:bridge in
      let n = Csr.n csr in
      let pp, pp_s =
        time (fun () -> Runner.run ~domains csr Runner.Push_pull ~seed ~source:0 ~max_rounds)
      in
      let rr, sp, rr_s =
        time_rr_spanner (fun () ->
            Runner.run ~domains csr (Runner.Rr_spanner { stretch_k = 0 }) ~seed ~source:0
              ~max_rounds)
      in
      let pp = pp.Runner.record and rr = rr.Runner.record in
      let fmt_rounds = function Some r -> fmt_i r | None -> "capped" in
      let json_rounds = function
        | Some r -> Gossip_util.Json.Int r
        | None -> Gossip_util.Json.Null
      in
      let ratio =
        match (pp.Runner.rounds, rr.Runner.rounds) with
        | Some p, Some r when r > 0 -> Some (float_of_int p /. float_of_int r)
        | _ -> None
      in
      (let module Json = Gossip_util.Json in
       rows :=
         [
           ("n", Json.Int n);
           ("cliques", Json.Int cliques);
           ("clique_size", Json.Int clique);
           ("bridge_latency", Json.Int bridge);
           ("max_rounds", Json.Int max_rounds);
           ("domains", Json.Int domains);
           ("pp_rounds", json_rounds pp.Runner.rounds);
           ("pp_s", Json.Float pp_s);
           ("spanner_k", Json.Int sp.Runner.k);
           ("spanner_edges", Json.Int sp.Runner.edges);
           ("spanner_max_out_degree", Json.Int sp.Runner.max_out_degree);
           ("spanner_out_degree_bound", Json.Int sp.Runner.out_degree_bound);
           ("spanner_build_s", Json.Float sp.Runner.build_s);
           ("rr_rounds", json_rounds rr.Runner.rounds);
           ("rr_s", Json.Float rr_s);
           ( "round_ratio",
             match ratio with Some x -> Json.Float x | None -> Json.Null );
         ]
         :: !rows);
      Table.add_row t
        [
          fmt_i n;
          fmt_rounds pp.Runner.rounds;
          fmt_f ~d:2 pp_s;
          fmt_i sp.Runner.edges;
          fmt_i sp.Runner.max_out_degree;
          fmt_f ~d:2 sp.Runner.build_s;
          fmt_rounds rr.Runner.rounds;
          fmt_f ~d:2 rr_s;
          (match ratio with Some x -> fmt_f ~d:2 x | None -> "-");
        ])
    sizes;
  Table.print t;
  bench_rows ~exp:"e15" (List.rev !rows);
  print_endline
    "RR-on-spanner reaches every clique deterministically; push-pull pays the\n\
     conductance price at each latency-8 bridge."

(* E16 — dynamic networks: push-pull vs RR-on-spanner vs a
   drift-immune baseline while the low-conductance cut erodes.

   The testbed is the braided ring (lib/scale Csr.braided_ring): a
   ring of cliques where adjacent cliques are joined by [bridges]
   parallel bridges, one of which — the backbone — is one tick faster
   than the rest.  A linear lib/dyn drift schedule filtered to
   [lat-ge bridge_latency] stretches every braid bridge by up to the
   cap while leaving cliques and the backbone untouched, so the
   conductance profile degrades live: ell-star / phi-star grows with
   the cap, and the per-epoch [dyn.epoch.<k>.*] gauges from
   Scenario.observer record the climb inside the run itself.

   Three contenders per drift cap:
   - randomized push-pull, which pays the eroding cut in full;
   - RR Broadcast over a Baswana-Sen orientation, whose spanner may
     lean on braid bridges and so also feels the drift;
   - the conductance-independent baseline: the k-DTG local-broadcast
     kernel with ell = bridge_latency - 1, which only ever uses
     edges the filter exempts (cliques + backbone) and is therefore
     immune by construction — asserted to stay within 1.25x of its
     own static round count.

   Defaults are sized for a single-core container; E16_N picks other
   node counts (comma-separated; E16_N=100000 is the full-scale run
   for a beefy host).  Rounds, seconds, and the per-epoch gauge
   series land in BENCH_e16.json. *)
let e16 () =
  let module Scenario = Gossip_dyn.Scenario in
  let module Registry = Gossip_obs.Registry in
  let module Json = Gossip_util.Json in
  let sizes =
    match Sys.getenv_opt "E16_N" with
    | Some s -> String.split_on_char ',' s |> List.map String.trim |> List.map int_of_string
    | None -> [ 12_000 ]
  in
  let clique = 16 and bridges = 4 and bridge = 8 in
  let caps = [ 1; 2; 4; 8 ] in
  let max_rounds = 1_000_000 in
  section "E16  dynamic networks: broadcast under live latency drift"
    (Printf.sprintf
       "One-to-all broadcast on a braided ring (cliques of %d, %d bridges per\n\
        seam, backbone latency %d) while a linear drift schedule stretches\n\
        every latency->=%d braid bridge up to cap x: push-pull vs RR-on-spanner\n\
        vs the drift-immune DTG backbone walker (ell = %d).  Per-epoch\n\
        ell-star / phi-ell gauges and all rounds in BENCH_e16.json."
       clique bridges (bridge - 1) bridge (bridge - 1));
  let t =
    Table.create ~title:"E16: broadcast rounds as the braid cut erodes"
      ~columns:
        [
          ("n", Table.Right);
          ("cap", Table.Right);
          ("pp rounds", Table.Right);
          ("pp s", Table.Right);
          ("rr rounds", Table.Right);
          ("rr s", Table.Right);
          ("base rounds", Table.Right);
          ("base s", Table.Right);
          ("bound @0", Table.Right);
          ("bound @last", Table.Right);
        ]
  in
  let rows = ref [] in
  List.iter
    (fun n_req ->
      let seed = 1013 in
      let cliques = max 3 (n_req / clique) in
      let csr = Csr.braided_ring ~cliques ~size:clique ~bridges ~bridge_latency:bridge in
      let n = Csr.n csr in
      let pp_static = ref 0 and base_static = ref 0 in
      List.iter
        (fun cap ->
          (* cap 1 is the static control: no env at all, so the run is
             bit-identical to the pre-lib/dyn engine. *)
          let scenario =
            if cap <= 1 then None
            else
              Some
                {
                  Scenario.static with
                  Scenario.name = Printf.sprintf "braid-drift-x%d" cap;
                  seed;
                  rules =
                    [
                      {
                        Scenario.schedule = Scenario.Linear { rate = 0.25; cap = float_of_int cap };
                        filter = Scenario.Lat_ge bridge;
                      };
                    ];
                  epoch = 1024;
                  track_phi = true;
                }
          in
          (* Push-pull carries the telemetry registry, so the scenario
             observer records its per-epoch gauges there. *)
          let reg = Registry.create () in
          let run ?telemetry p =
            Runner.run ?scenario ?telemetry csr p ~seed ~source:0 ~max_rounds
          in
          let pp, pp_s = time (fun () -> run ~telemetry:reg Runner.Push_pull) in
          let rr, _, rr_s =
            time_rr_spanner (fun () -> run (Runner.Rr_spanner { stretch_k = 0 }))
          in
          let base, base_s = time (fun () -> run (Runner.Dtg_local { ell = bridge - 1 })) in
          let pp_r = rounds_exn pp.Runner.record.Runner.rounds in
          let rr_r = rounds_exn rr.Runner.record.Runner.rounds in
          let base_r = rounds_exn base.Runner.record.Runner.rounds in
          (* Per-epoch gauge series: dyn.epoch.<k>.{ell_star,phi_ell_ppm,bound}. *)
          let epochs =
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun (name, v) ->
                match String.split_on_char '.' name with
                | [ "dyn"; "epoch"; k; field ] ->
                    let k = int_of_string k in
                    let prev = try Hashtbl.find tbl k with Not_found -> [] in
                    Hashtbl.replace tbl k ((field, Json.Int v) :: prev)
                | _ -> ())
              (Registry.gauges reg);
            Hashtbl.fold (fun k fields acc -> (k, fields) :: acc) tbl []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          let bound_of k =
            match List.assoc_opt k epochs with
            | Some fields -> (
                match List.assoc_opt "bound" fields with Some (Json.Int b) -> Some b | _ -> None)
            | None -> None
          in
          let bound0 = bound_of 0 in
          let bound_last =
            match epochs with [] -> None | l -> bound_of (fst (List.nth l (List.length l - 1)))
          in
          if cap <= 1 then (
            pp_static := pp_r;
            base_static := base_r)
          else (
            (* Drift only ever slows push-pull: the eroding cut costs rounds. *)
            if pp_r < !pp_static then
              failwith
                (Printf.sprintf "e16: push-pull sped up under drift x%d (%d < static %d)" cap pp_r
                   !pp_static);
            (* The backbone walker never touches a drifted edge. *)
            if float_of_int base_r > 1.25 *. float_of_int !base_static then
              failwith
                (Printf.sprintf "e16: baseline not drift-immune at cap %d (%d vs static %d)" cap
                   base_r !base_static);
            match bound0 with
            | None -> failwith "e16: drifted run produced no dyn.epoch.0.bound gauge"
            | Some _ -> ());
          rows :=
            [
              ("n", Json.Int n);
              ("cliques", Json.Int cliques);
              ("clique_size", Json.Int clique);
              ("bridges", Json.Int bridges);
              ("bridge_latency", Json.Int bridge);
              ("drift_cap", Json.Int cap);
              ("pp_rounds", Json.Int pp_r);
              ("pp_s", Json.Float pp_s);
              ("rr_rounds", Json.Int rr_r);
              ("rr_s", Json.Float rr_s);
              ("baseline_rounds", Json.Int base_r);
              ("baseline_s", Json.Float base_s);
              ( "epochs",
                Json.List
                  (List.map
                     (fun (k, fields) -> Json.Obj (("epoch", Json.Int k) :: List.rev fields))
                     epochs) );
            ]
            :: !rows;
          let fmt_bound = function Some b -> fmt_i b | None -> "-" in
          Table.add_row t
            [
              fmt_i n;
              string_of_int cap ^ "x";
              fmt_i pp_r;
              fmt_f ~d:2 pp_s;
              fmt_i rr_r;
              fmt_f ~d:2 rr_s;
              fmt_i base_r;
              fmt_f ~d:2 base_s;
              fmt_bound bound0;
              fmt_bound bound_last;
            ])
        caps;
      let last_pp =
        match !rows with
        | row :: _ -> (match List.assoc "pp_rounds" row with Json.Int r -> r | _ -> 0)
        | [] -> 0
      in
      if last_pp <= !pp_static then
        failwith
          (Printf.sprintf "e16: push-pull did not slow down at the largest cap (%d vs static %d)"
             last_pp !pp_static))
    sizes;
  Table.print t;
  bench_rows ~exp:"e16" (List.rev !rows);
  print_endline
    "The drifting braid cut taxes push-pull round by round while the DTG\n\
     backbone walker, blind to conductance, never notices."

(* E17 — Theorem 20 closed at scale: the unified unknown-latency
   algorithm (push-pull raced against the discovery -> T(k) schedule ->
   spanner-RR -> termination-check chain) head-to-head with its own
   push-pull branch on a 10^6-node small-world graph, starting from
   zero latency knowledge.

   Configurations: a static control, a deterministic mild drop plan, a
   bounded jitter plan, and a lib/dyn linear latency-drift scenario —
   the same fault surface the parity qchecks sweep, at full scale.
   Every run must complete source-to-all and land within the Theorem
   20 budget O(min((D + Delta) log^3 n, (l_star/phi_star) log n)); we assert
   against the (D + Delta) log^3 n arm (D bounded by twice the source
   eccentricity — min(a, b) <= a, so the assertion is sound without a
   10^12-op conductance sweep).  A violation is a hard failure with a
   non-zero exit, which is what the CI smoke step leans on.

   The default is sized for a single-core container (~5 min);
   E17_N=1000000 is the full-scale run for a beefy host (the budget
   assertion holds at every size), E17_DOMAINS shards the wheel.
   Rows in BENCH_e17.json. *)
let e17 () =
  let module Dissemination = Gossip_core.Dissemination in
  let module Eid = Gossip_core.Eid in
  let module Robustness = Gossip_core.Robustness in
  let module Scenario = Gossip_dyn.Scenario in
  let module Gen = Gossip_graph.Gen in
  let module Paths = Gossip_graph.Paths in
  let module Engine = Gossip_sim.Engine in
  let module Json = Gossip_util.Json in
  let n_req =
    match Sys.getenv_opt "E17_N" with Some s -> int_of_string s | None -> 50_000
  in
  let domains =
    match Sys.getenv_opt "E17_DOMAINS" with Some s -> int_of_string s | None -> 1
  in
  let seed = 1013 in
  let deg = 8 and lmax = 4 in
  let max_rounds = 1_000_000 in
  section "E17  Theorem 20 at scale: unified unknown-latency vs push-pull"
    (Printf.sprintf
       "One-to-all dissemination on a Watts-Strogatz graph (degree %d, uniform\n\
        1-%d latencies) with ZERO a-priori latency knowledge: push-pull raced\n\
        against discovery -> T(k) -> spanner RR -> termination check, under\n\
        static / drop / jitter / lib-dyn-drift conditions.  Rounds asserted\n\
        against the (D + Delta) log^3 n arm of the Theorem 20 budget; rows in\n\
        BENCH_e17.json."
       deg lmax);
  let grng = Rng.of_int seed in
  let g =
    Gen.with_latencies grng (Gen.Uniform (1, lmax)) (Gen.watts_strogatz grng ~n:n_req ~k:deg ~beta:0.1)
  in
  let csr = Csr.of_graph g in
  let n = Csr.n csr in
  let source = 0 in
  (* Budget: D <= 2 * ecc(source) (one Dijkstra, not all-pairs). *)
  let ecc = Paths.eccentricity g source in
  let delta = Graph.max_degree g in
  let lg = Gossip_core.Spanner.ceil_log2 n in
  let budget = 8 * ((2 * ecc) + delta) * lg * lg * lg in
  Printf.printf "n = %d, ecc(source) = %d, Delta = %d, budget = %d rounds\n\n" n ecc delta budget;
  let drift_compiled =
    let scen =
      {
        Scenario.static with
        Scenario.name = "e17-drift";
        seed;
        rules =
          [ { Scenario.schedule = Scenario.Linear { rate = 0.1; cap = 2.0 }; filter = Scenario.All } ];
      }
    in
    Scenario.compile scen ~csr ~source
  in
  (* Fault plans reach the wheel as environments; the jitter plan's
     wheel covers ℓ_max plus its +2. *)
  let configs =
    [
      ("static", None, None);
      ( "drop",
        Some
          (Wheel.env_of_faults
             {
               Engine.no_faults with
               Engine.drop =
                 (fun ~initiator ~responder ~round ->
                   (initiator + (3 * responder) + round) mod 13 = 0);
             }),
        None );
      ( "jitter",
        Some (Wheel.env_of_faults (Robustness.jitter_up_to (Rng.of_int (seed + 5)) ~extra:2)),
        Some (Csr.max_latency csr + 2) );
      ("drift", Some drift_compiled.Scenario.env, Some drift_compiled.Scenario.wheel_latency);
    ]
  in
  let t =
    Table.create ~title:"E17: Theorem 20 unified race, unknown latencies"
      ~columns:
        [
          ("config", Table.Left);
          ("winner", Table.Left);
          ("rounds", Table.Right);
          ("pp rounds", Table.Right);
          ("eid rounds", Table.Right);
          ("attempts", Table.Right);
          ("k_final", Table.Right);
          ("s", Table.Right);
        ]
  in
  let rows = ref [] in
  List.iter
    (fun (label, env, wheel_latency) ->
      let r, secs =
        time (fun () ->
            Dissemination.broadcast_scale ?env ?wheel_latency ~domains
              (Rng.of_int (seed + 17))
              csr ~source ~max_rounds ())
      in
      if not r.Dissemination.b_success then
        failwith (Printf.sprintf "e17 %s: unified dissemination did not complete" label);
      let informed =
        let c = ref 0 in
        Bytes.iter (fun ch -> if ch <> '\000' then incr c) r.Dissemination.b_informed;
        !c
      in
      if informed <> n then
        failwith (Printf.sprintf "e17 %s: %d of %d nodes informed" label informed n);
      if r.Dissemination.b_rounds > budget then
        failwith
          (Printf.sprintf "e17 %s: %d rounds exceed the Theorem 20 budget %d" label
             r.Dissemination.b_rounds budget);
      let attempts = r.Dissemination.b_attempts in
      let k_final =
        match List.rev attempts with a :: _ -> a.Eid.ua_k | [] -> 0
      in
      let winner =
        match r.Dissemination.b_winner with
        | Dissemination.Scale_push_pull_won -> "push-pull"
        | Dissemination.Scale_spanner_route_won -> "eid-chain"
      in
      rows :=
        [
          ("config", Json.String label);
          ("n", Json.Int n);
          ("deg", Json.Int deg);
          ("lmax", Json.Int lmax);
          ("domains", Json.Int domains);
          ("budget", Json.Int budget);
          ("winner", Json.String winner);
          ("rounds", Json.Int r.Dissemination.b_rounds);
          ( "pp_rounds",
            match r.Dissemination.b_pushpull_rounds with Some x -> Json.Int x | None -> Json.Null );
          ("eid_rounds", Json.Int r.Dissemination.b_spanner_rounds);
          ("k_final", Json.Int k_final);
          ("seconds", Json.Float secs);
          ( "attempts",
            Json.List
              (List.map
                 (fun a ->
                   Json.Obj
                     [
                       ("k", Json.Int a.Eid.ua_k);
                       ("discovery_rounds", Json.Int a.Eid.ua_discovery_rounds);
                       ("schedule_rounds", Json.Int a.Eid.ua_schedule_rounds);
                       ("rr_rounds", Json.Int a.Eid.ua_rr_rounds);
                       ("check_rounds", Json.Int a.Eid.ua_check_rounds);
                       ("edges_known", Json.Int a.Eid.ua_edges_known);
                       ("failed", Json.Bool a.Eid.ua_failed);
                       ("unanimous", Json.Bool a.Eid.ua_unanimous);
                     ])
                 attempts) );
        ]
        :: !rows;
      Table.add_row t
        [
          label;
          winner;
          fmt_i r.Dissemination.b_rounds;
          (match r.Dissemination.b_pushpull_rounds with Some x -> fmt_i x | None -> "capped");
          fmt_i r.Dissemination.b_spanner_rounds;
          fmt_i (List.length attempts);
          fmt_i k_final;
          fmt_f ~d:1 secs;
        ])
    configs;
  Table.print t;
  bench_rows ~exp:"e17" (List.rev !rows);
  Printf.printf
    "Every configuration finished source-to-all from zero latency knowledge\n\
     within the Theorem 20 budget (%d rounds).\n"
    budget

(* E18 — the scale ceiling: the compact int32/SoA memory layout at
   n = 10^7.

   The runtime hot state (CSR arrays, the exchange pool's SoA columns,
   the per-node RNG streams) moved from boxed machine words to int32
   Bigarray cells / 8-byte RNG states; this experiment records the
   honest numbers at ten million nodes and hard-fails (non-zero exit,
   which the CI smoke step leans on) if any of the PR's claims
   regress:

   - resident bytes-per-directed-edge of the hot state, measured for
     the int32 layout and computed for the boxed layout it replaced
     (Csr.boxed_memory_words keeps the removed layout's arithmetic;
     the pool and RNG baselines are 8 machine words per exchange field
     row and 5 words per stream, the removed representations) — the
     reduction must be >= 2x;
   - the wheel.minor_words_per_round gauge must sit within
     Wheel.minor_words_budget: the round loop is allocation-free;
   - a domains=2 run must be bit-identical to the sequential run
     (trajectory, metrics, informed set) — the parity matrix at the
     bench's scale;
   - peak RSS (VmHWM) and rounds/sec are recorded in BENCH_e18.json;
     at n <= E18_REF_MAX (default 200k) the boxed reference engine
     (lib/sim) runs the same broadcast for an honest rounds/sec
     baseline — above that it is skipped, and the skip is printed, not
     silent.

   E18_N sizes the run (default 10^7; CI uses a small value). *)
let e18 () =
  let module Json = Gossip_util.Json in
  let module Registry = Gossip_obs.Registry in
  let n =
    match Sys.getenv_opt "E18_N" with Some s -> int_of_string s | None -> 10_000_000
  in
  let ref_max =
    match Sys.getenv_opt "E18_REF_MAX" with Some s -> int_of_string s | None -> 200_000
  in
  let seed = 1009 in
  section "E18  the scale ceiling: int32/SoA layout at n = 10^7"
    (Printf.sprintf
       "Full push-pull broadcast on a Barabasi-Albert graph (attach 3, uniform\n\
        1-8 latencies) at n = %d: resident bytes-per-edge of the int32 hot\n\
        state vs the boxed layout it replaced (>= 2x reduction asserted), the\n\
        allocation-free round loop (minor-words gauge <= %d asserted), and\n\
        sequential-vs-sharded parity.  Peak RSS and rounds/sec in\n\
        BENCH_e18.json." n Wheel.minor_words_budget);
  let peak_rss_kb () =
    (* VmHWM from /proc/self/status: the high-water resident set. *)
    try
      let ic = open_in "/proc/self/status" in
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            close_in ic;
            int_of_string
              (String.trim (String.sub line 6 (String.length line - 6 - 3)))
        | _ -> go ()
        | exception End_of_file ->
            close_in ic;
            0
      in
      go ()
    with Sys_error _ -> 0
  in
  let csr, build_s =
    time (fun () ->
        Csr.with_latencies (Rng.of_int (seed + 7)) (Gossip_graph.Gen.Uniform (1, 8))
          (Csr.barabasi_albert (Rng.of_int seed) ~n ~attach:3))
  in
  let directed = 2 * Csr.m csr in
  Printf.printf "graph built: %d nodes, %d directed edge entries, %.1f s\n" n directed build_s;
  (* Sequential run with telemetry: the timed run and the gauge run. *)
  let reg = Registry.create () in
  let seq, seq_s =
    time (fun () ->
        Wheel.broadcast_kernel ~telemetry:reg (Rng.of_int (seed + 17)) csr
          ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:10_000)
  in
  let rounds = rounds_exn seq.Wheel.rounds in
  let gauge = Registry.gauge_value (Registry.gauge reg "wheel.minor_words_per_round") in
  let inflight_max = Registry.gauge_value (Registry.gauge reg "wheel.inflight.max") in
  if gauge > Wheel.minor_words_budget then
    failwith
      (Printf.sprintf "E18: minor-words gauge %d over the budget %d — the round loop allocates"
         gauge Wheel.minor_words_budget);
  (* Parity: a domains=2 run must be bit-identical. *)
  let shard, shard_s =
    time (fun () ->
        Wheel.broadcast_kernel ~domains:2 (Rng.of_int (seed + 17)) csr
          ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:10_000)
  in
  if
    not
      (seq.Wheel.rounds = shard.Wheel.rounds
      && seq.Wheel.history = shard.Wheel.history
      && seq.Wheel.metrics = shard.Wheel.metrics
      && Bytes.equal seq.Wheel.informed shard.Wheel.informed)
  then failwith "E18: sharded run diverged from the sequential wheel";
  (* Resident bytes per directed edge entry: CSR + exchange pool +
     RNG streams, int32/SoA layout vs the boxed layout it replaced.
     The pool is sized by the peak in-flight population (the same
     population either layout would hold); the boxed columns were 8
     machine words per exchange vs 8 int32 cells, and a boxed RNG
     stream was a record holding a boxed int64 (~5 words) vs one
     8-byte Bytes payload (2 words). *)
  let word = 8 in
  let csr_bytes = word * Csr.memory_words csr in
  let csr_boxed_bytes = word * Csr.boxed_memory_words csr in
  let pool_bytes = inflight_max * 8 * 4 in
  let pool_boxed_bytes = inflight_max * 8 * word in
  let rng_bytes = n * 2 * word in
  let rng_boxed_bytes = n * 5 * word in
  let hot = csr_bytes + pool_bytes + rng_bytes in
  let hot_boxed = csr_boxed_bytes + pool_boxed_bytes + rng_boxed_bytes in
  let bpe = float_of_int hot /. float_of_int directed in
  let bpe_boxed = float_of_int hot_boxed /. float_of_int directed in
  let reduction = bpe_boxed /. bpe in
  if reduction < 2.0 then
    failwith
      (Printf.sprintf "E18: bytes-per-edge reduction %.2fx below the 2x floor (%.1f vs %.1f)"
         reduction bpe_boxed bpe);
  (* Boxed reference engine baseline, when affordable. *)
  let ref_row =
    if n <= ref_max then begin
      let g = Csr.to_graph csr in
      let er, ref_s =
        time (fun () ->
            Push_pull.broadcast (Rng.of_int (seed + 17)) g ~source:0 ~max_rounds:10_000)
      in
      if Some (rounds_exn er.Push_pull.rounds) <> seq.Wheel.rounds then
        failwith "E18: wheel diverged from the boxed reference engine";
      [ ("ref_engine_s", Json.Float ref_s);
        ("ref_engine_rps", Json.Float (float_of_int rounds /. ref_s)) ]
    end
    else begin
      Printf.printf
        "boxed reference engine skipped at n = %d (> E18_REF_MAX = %d): the boxed graph\n\
         alone would not be a fair same-machine baseline at this size\n"
        n ref_max;
      []
    end
  in
  let rss = peak_rss_kb () in
  let t =
    Table.create ~title:"E18: hot-state footprint, int32/SoA vs boxed"
      ~columns:
        [ ("component", Table.Left); ("int32 MB", Table.Right); ("boxed MB", Table.Right) ]
  in
  let mb b = fmt_f ~d:1 (float_of_int b /. 1048576.0) in
  Table.add_row t [ "csr"; mb csr_bytes; mb csr_boxed_bytes ];
  Table.add_row t [ "exchange pool (peak)"; mb pool_bytes; mb pool_boxed_bytes ];
  Table.add_row t [ "rng streams"; mb rng_bytes; mb rng_boxed_bytes ];
  Table.add_row t [ "total"; mb hot; mb hot_boxed ];
  Table.print t;
  Printf.printf
    "bytes/edge: %.1f int32 vs %.1f boxed (%.2fx reduction, floor 2x)\n\
     rounds: %d  seq: %.1f s (%.0f r/s)  sharded(2): %.1f s  parity: ok\n\
     minor words/round: %d (budget %d)  peak RSS: %d kB\n"
    bpe bpe_boxed reduction rounds seq_s
    (float_of_int rounds /. seq_s)
    shard_s gauge Wheel.minor_words_budget rss;
  bench_rows ~exp:"e18"
    [
      [
        ("n", Json.Int n);
        ("directed_edges", Json.Int directed);
        ("build_s", Json.Float build_s);
        ("rounds", Json.Int rounds);
        ("seq_s", Json.Float seq_s);
        ("seq_rps", Json.Float (float_of_int rounds /. seq_s));
        ("shard_s", Json.Float shard_s);
        ("parity", Json.Bool true);
        ("inflight_max", Json.Int inflight_max);
        ("csr_bytes", Json.Int csr_bytes);
        ("csr_boxed_bytes", Json.Int csr_boxed_bytes);
        ("pool_bytes", Json.Int pool_bytes);
        ("pool_boxed_bytes", Json.Int pool_boxed_bytes);
        ("rng_bytes", Json.Int rng_bytes);
        ("rng_boxed_bytes", Json.Int rng_boxed_bytes);
        ("bytes_per_edge", Json.Float bpe);
        ("bytes_per_edge_boxed", Json.Float bpe_boxed);
        ("reduction", Json.Float reduction);
        ("minor_words_per_round", Json.Int gauge);
        ("minor_words_budget", Json.Int Wheel.minor_words_budget);
        ("peak_rss_kb", Json.Int rss);
      ]
      @ ref_row;
    ];
  print_endline
    "The int32/SoA layout holds the 10^7-node hot state in half the bytes,\n\
     with an allocation-free round loop and bit-identical trajectories."

(* E19 — the rumor-state layer: k-rumor / all-to-all dissemination
   under bounded message budgets.

   Two sweeps over the three rumor kernels (k-rumor push-pull, rumor
   rotation, algebraic gossip), on a low-conductance ring-of-cliques
   and a small-world Watts-Strogatz graph:

   - completion rounds vs k at the tightest budget (B = 1 word), and
   - completion rounds vs B at fixed k (subset kernels only — the
     algebraic kernel's budget is pinned at the ceil(k/30) coefficient
     words a combination needs).

   Hard assertion: on the ring of cliques at the largest k and B = 1,
   algebraic gossip completes in strictly fewer mean rounds than rumor
   rotation — coded exchanges beat scheduling single rumor ids through
   a bottleneck, the order advantage of Avin et al.'s analysis. *)

let e19 () =
  let module Json = Gossip_util.Json in
  let module Registry = Gossip_obs.Registry in
  let n = match Sys.getenv_opt "E19_N" with Some s -> int_of_string s | None -> 1_504 in
  let kmax = match Sys.getenv_opt "E19_K" with Some s -> int_of_string s | None -> 16 in
  let seeds = [ 1; 2; 3 ] in
  let max_rounds = 50_000 in
  section "E19  k-rumor / all-to-all: completion scaling in k and B"
    (Printf.sprintf
       "All-to-all dissemination of k rumors under a B-word message budget:\n\
        k-rumor push-pull vs rumor rotation vs algebraic gossip, on a\n\
        ring-of-cliques (clique size 8, bridge latency 8) and a Watts-Strogatz\n\
        small world (k = 6, beta = 0.1, 1-4 latencies) at n ~ %d.  Mean\n\
        completion rounds over %d seeds; runs hitting the %d-round cap score\n\
        as the cap.  Hard floor: algebraic < rotation on the ring of cliques\n\
        at k = %d, B = 1.  Rows in BENCH_e19.json." n (List.length seeds) max_rounds kmax);
  let cliques = max 2 (n / 8) in
  let roc = Csr.ring_of_cliques ~cliques ~size:8 ~bridge_latency:8 in
  let ws =
    Csr.with_latencies
      (Rng.of_int 4099)
      (Gossip_graph.Gen.Uniform (1, 4))
      (Csr.watts_strogatz (Rng.of_int 4093) ~n ~k:6 ~beta:0.1)
  in
  let graphs = [ ("ring-of-cliques", roc); ("watts-strogatz", ws) ] in
  (* The three kernels; algebraic carries exactly the coefficient
     words one combination of k rumors needs. *)
  let k_rumor ~k ~budget csr = (Kernel.k_rumor_push_pull ~k ~budget csr).Kernel.rum_kernel in
  let rotation ~k ~budget csr = (Kernel.rumor_rotation ~k ~budget csr).Kernel.rum_kernel in
  let algebraic ~k csr =
    let budget = (k + Kernel.coeff_bits - 1) / Kernel.coeff_bits in
    (Kernel.algebraic ~k ~budget csr).Kernel.alg_kernel
  in
  (* One run: mean completion rounds (cap-scored) and mean payload
     words on the wire across the seeds, a fresh kernel per seed. *)
  let measure csr make =
    let rounds_sum = ref 0 and words_sum = ref 0 and capped = ref 0 in
    List.iter
      (fun seed ->
        let reg = Registry.create () in
        let kernel = make csr in
        let words_key = Printf.sprintf "wheel.kernel.%s.words_on_wire" (Kernel.name kernel) in
        let r =
          Wheel.broadcast_kernel ~telemetry:reg (Rng.of_int seed) csr ~kernel ~source:0
            ~max_rounds
        in
        (match r.Wheel.rounds with
        | Some rounds -> rounds_sum := !rounds_sum + rounds
        | None ->
            incr capped;
            rounds_sum := !rounds_sum + max_rounds);
        words_sum := !words_sum + Registry.counter_value (Registry.counter reg words_key))
      seeds;
    let trials = List.length seeds in
    ( float_of_int !rounds_sum /. float_of_int trials,
      float_of_int !words_sum /. float_of_int trials,
      !capped )
  in
  let rows = ref [] in
  let record ~graph ~sweep ~proto ~k ~b (mean_rounds, mean_words, capped) =
    rows :=
      [
        ("graph", Json.String graph);
        ("sweep", Json.String sweep);
        ("protocol", Json.String proto);
        ("k", Json.Int k);
        ("budget", Json.Int b);
        ("mean_rounds", Json.Float mean_rounds);
        ("mean_words_on_wire", Json.Float mean_words);
        ("capped_runs", Json.Int capped);
        ("trials", Json.Int (List.length seeds));
        ("max_rounds", Json.Int max_rounds);
      ]
      :: !rows
  in
  let fmt_mean (mean_rounds, _, capped) =
    if capped > 0 then Printf.sprintf "%.0f*" mean_rounds else fmt_f ~d:0 mean_rounds
  in
  (* Sweep 1: k at the tightest budget, B = 1 word. *)
  let ks = List.sort_uniq compare [ max 2 (kmax / 4); max 2 (kmax / 2); kmax ] in
  let t1 =
    Table.create ~title:"E19a: mean completion rounds vs k (B = 1 word; * = hit cap)"
      ~columns:
        [
          ("graph", Table.Left);
          ("k", Table.Right);
          ("k-rumor", Table.Right);
          ("rotation", Table.Right);
          ("algebraic", Table.Right);
        ]
  in
  let roc_kmax = ref (nan, nan) in
  List.iter
    (fun (gname, csr) ->
      List.iter
        (fun k ->
          let kr = measure csr (k_rumor ~k ~budget:1) in
          let rot = measure csr (rotation ~k ~budget:1) in
          let alg = measure csr (algebraic ~k) in
          record ~graph:gname ~sweep:"k" ~proto:"k-rumor" ~k ~b:1 kr;
          record ~graph:gname ~sweep:"k" ~proto:"rotation" ~k ~b:1 rot;
          record ~graph:gname ~sweep:"k" ~proto:"algebraic" ~k ~b:0 alg;
          if gname = "ring-of-cliques" && k = kmax then begin
            let (am, _, _) = alg and (rm, _, _) = rot in
            roc_kmax := (am, rm)
          end;
          Table.add_row t1
            [ gname; string_of_int k; fmt_mean kr; fmt_mean rot; fmt_mean alg ])
        ks)
    graphs;
  Table.print t1;
  (* Sweep 2: budget at fixed k, subset kernels, ring of cliques. *)
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf "E19b: mean completion rounds vs budget (k = %d, ring of cliques)" kmax)
      ~columns:
        [ ("B words", Table.Right); ("k-rumor", Table.Right); ("rotation", Table.Right) ]
  in
  List.iter
    (fun b ->
      let kr = measure roc (k_rumor ~k:kmax ~budget:b) in
      let rot = measure roc (rotation ~k:kmax ~budget:b) in
      record ~graph:"ring-of-cliques" ~sweep:"budget" ~proto:"k-rumor" ~k:kmax ~b kr;
      record ~graph:"ring-of-cliques" ~sweep:"budget" ~proto:"rotation" ~k:kmax ~b rot;
      Table.add_row t2 [ string_of_int b; fmt_mean kr; fmt_mean rot ])
    [ 1; 2; 4; 8 ];
  Table.print t2;
  let alg_mean, rot_mean = !roc_kmax in
  if not (alg_mean < rot_mean) then
    failwith
      (Printf.sprintf
         "E19: algebraic gossip (%.0f mean rounds) did not beat rumor rotation (%.0f) on the\n\
          ring of cliques at k = %d, B = 1 — the coded-exchange order advantage is gone"
         alg_mean rot_mean kmax);
  bench_rows ~exp:"e19" (List.rev !rows);
  Printf.printf
    "Under a 1-word budget on the low-conductance ring, coded exchanges finish in\n\
     %.0f mean rounds where rumor rotation needs %.0f (%.1fx): when every message\n\
     can carry only one rumor's worth of bits, mixing beats scheduling.\n"
    alg_mean rot_mean (rot_mean /. alg_mean)
