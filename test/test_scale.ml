(* Tests for lib/scale: the CSR graph representation and the flat-array
   timing-wheel engine, including the old-vs-new push-pull trajectory
   parity property. *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Engine = Gossip_sim.Engine
module Csr = Gossip_scale.Csr
module I32 = Gossip_scale.I32
module Wheel = Gossip_scale.Wheel_engine
module Shard = Gossip_scale.Shard
module Registry = Gossip_obs.Registry
module Push_pull = Gossip_core.Push_pull
module Flooding = Gossip_core.Flooding

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* CSR structure *)

(* Structural sanity of a CSR graph: monotone row_ptr, sorted simple
   rows, symmetric latencies. *)
let assert_valid_csr name (t : Csr.t) =
  checki (name ^ ": row_ptr length") (Csr.n t + 1) (I32.length t.Csr.row_ptr);
  checki (name ^ ": row_ptr start") 0 (I32.get t.Csr.row_ptr 0);
  checki (name ^ ": row_ptr end") (I32.length t.Csr.col) (I32.get t.Csr.row_ptr (Csr.n t));
  for u = 0 to Csr.n t - 1 do
    let lo = I32.get t.Csr.row_ptr u and hi = I32.get t.Csr.row_ptr (u + 1) in
    if lo > hi then Alcotest.failf "%s: row_ptr decreases at %d" name u;
    for i = lo to hi - 1 do
      let v = I32.get t.Csr.col i in
      if v = u then Alcotest.failf "%s: self loop at %d" name u;
      if i > lo && I32.get t.Csr.col (i - 1) >= v then
        Alcotest.failf "%s: row %d not strictly sorted" name u;
      if Csr.latency t v u <> Some (I32.get t.Csr.lat i) then
        Alcotest.failf "%s: edge (%d,%d) not symmetric" name u v
    done
  done

let test_of_graph_roundtrip () =
  let rng = Rng.of_int 42 in
  let g =
    Gen.with_latencies rng (Gen.Uniform (1, 9)) (Gen.erdos_renyi_connected rng ~n:40 ~p:0.2)
  in
  let c = Csr.of_graph g in
  assert_valid_csr "er40" c;
  checki "n" (Graph.n g) (Csr.n c);
  checki "m" (Graph.m g) (Csr.m c);
  checki "max latency" (Graph.max_latency g) (Csr.max_latency c);
  checki "max degree" (Graph.max_degree g) (Csr.max_degree c);
  let g' = Csr.to_graph c in
  checki "roundtrip m" (Graph.m g) (Graph.m g');
  Graph.iter_edges
    (fun e ->
      if Graph.latency g' e.Graph.u e.Graph.v <> Some e.Graph.latency then
        Alcotest.failf "edge (%d,%d) lost in roundtrip" e.Graph.u e.Graph.v)
    g

let test_ring_of_cliques_matches_gen () =
  List.iter
    (fun (cliques, size, bridge) ->
      let direct = Csr.ring_of_cliques ~cliques ~size ~bridge_latency:bridge in
      let packed = Csr.of_graph (Gen.ring_of_cliques ~cliques ~size ~bridge_latency:bridge) in
      assert_valid_csr "ring direct" direct;
      checkb
        (Printf.sprintf "ring %dx%d bridge %d identical" cliques size bridge)
        true (Csr.equal direct packed))
    [ (3, 1, 1); (3, 4, 7); (5, 8, 12); (12, 3, 2) ]

let test_barabasi_albert_csr () =
  let c = Csr.barabasi_albert (Rng.of_int 7) ~n:300 ~attach:3 in
  assert_valid_csr "ba300" c;
  checki "n" 300 (Csr.n c);
  (* attach * (attach+1)/2 seed edges + attach per later node *)
  checki "m" (6 + (296 * 3)) (Csr.m c);
  checkb "connected" true (Csr.is_connected c)

let test_watts_strogatz_csr () =
  let c = Csr.watts_strogatz (Rng.of_int 11) ~n:200 ~k:3 ~beta:0.2 in
  assert_valid_csr "ws200" c;
  checki "n" 200 (Csr.n c);
  checki "m" 600 (Csr.m c)

let test_with_latencies () =
  let c =
    Csr.with_latencies (Rng.of_int 5) (Gen.Uniform (2, 6))
      (Csr.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:9)
  in
  assert_valid_csr "relat" c;
  for i = 0 to I32.length c.Csr.lat - 1 do
    let l = I32.get c.Csr.lat i in
    if l < 2 || l > 6 then Alcotest.failf "latency %d out of range" l
  done

let test_is_connected () =
  checkb "ring connected" true
    (Csr.is_connected (Csr.ring_of_cliques ~cliques:3 ~size:2 ~bridge_latency:1));
  let disconnected = Csr.of_graph (Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ]) in
  checkb "two components" false (Csr.is_connected disconnected)

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"csr of_graph/to_graph roundtrip" ~count:50
    QCheck.(pair (int_range 2 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 5)) (Gen.erdos_renyi_connected rng ~n ~p:0.3)
      in
      let c = Csr.of_graph g in
      Csr.equal c (Csr.of_graph (Csr.to_graph c)))

(* ------------------------------------------------------------------ *)
(* Wheel engine: basic behavior *)

let test_wheel_pushpull_completes () =
  let c = Csr.ring_of_cliques ~cliques:4 ~size:8 ~bridge_latency:6 in
  let r =
    Wheel.broadcast (Rng.of_int 3) c ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:100_000
  in
  checkb "completes" true (r.Wheel.rounds <> None);
  (match r.Wheel.history with
  | (0, 1) :: _ -> ()
  | _ -> Alcotest.fail "history must start at (0, 1)");
  let final_round, final_count = List.nth r.Wheel.history (List.length r.Wheel.history - 1) in
  checki "final count" 32 final_count;
  checki "rounds is last change" (Option.get r.Wheel.rounds) final_round

let test_wheel_flood_and_random_contact_complete () =
  let c = Csr.of_graph (Gen.with_latencies (Rng.of_int 2) (Gen.Uniform (1, 4)) (Gen.clique 20)) in
  List.iter
    (fun protocol ->
      let r = Wheel.broadcast (Rng.of_int 9) c ~protocol ~source:3 ~max_rounds:10_000 in
      checkb (Wheel.protocol_name protocol ^ " completes") true (r.Wheel.rounds <> None))
    [ Wheel.Flood; Wheel.Random_contact ]

let test_wheel_single_node () =
  let c = Csr.of_graph (Graph.of_edges ~n:1 []) in
  let r = Wheel.broadcast (Rng.of_int 1) c ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:10 in
  Alcotest.check (Alcotest.option Alcotest.int) "zero rounds" (Some 0) r.Wheel.rounds

let test_wheel_drop_everything () =
  let c = Csr.of_graph (Gen.path 2) in
  let faults =
    { Wheel.no_faults with Engine.drop = (fun ~initiator:_ ~responder:_ ~round:_ -> true) }
  in
  let r =
    Wheel.broadcast ~env:(Wheel.env_of_faults faults) (Rng.of_int 4) c ~protocol:Wheel.Push_pull
      ~source:0 ~max_rounds:50
  in
  checkb "never completes" true (r.Wheel.rounds = None);
  checki "everything dropped" r.Wheel.metrics.Engine.initiations
    r.Wheel.metrics.Engine.dropped;
  checki "nothing delivered" 0 r.Wheel.metrics.Engine.deliveries

let count_informed informed =
  Bytes.fold_left (fun acc b -> if b <> '\000' then acc + 1 else acc) 0 informed

let test_wheel_crash_isolates () =
  (* Path 0-1-2: node 1 crashed from the start, so the rumor can never
     cross and node 2 stays uninformed. *)
  let c = Csr.of_graph (Gen.path 3) in
  let faults =
    { Wheel.no_faults with Engine.alive = (fun ~node ~round:_ -> node <> 1) }
  in
  let r =
    Wheel.broadcast ~env:(Wheel.env_of_faults faults) (Rng.of_int 4) c ~protocol:Wheel.Push_pull
      ~source:0 ~max_rounds:60
  in
  let informed v = Bytes.get r.Wheel.informed v <> '\000' in
  checkb "source informed" true (informed 0);
  checkb "crashed node dark" false (informed 1);
  checkb "far side dark" false (informed 2);
  checkb "losses counted" true (r.Wheel.metrics.Engine.dropped > 0)

let test_wheel_jitter_bound () =
  let c = Csr.of_graph (Gen.path 2) in
  let faults =
    { Wheel.no_faults with Engine.jitter = (fun ~latency ~round:_ -> latency + 50) }
  in
  let env = Wheel.env_of_faults faults in
  (* A jitter overrunning the wheel is a typed exception (a failed run
     for the sweep runtime), not Invalid_argument. *)
  Alcotest.check_raises "oversized jitter rejected"
    (Wheel.Jitter_overflow { latency = 51; bound = 1; round = 0 }) (fun () ->
      ignore
        (Wheel.broadcast ~env (Rng.of_int 4) c ~protocol:Wheel.Push_pull ~source:0
           ~max_rounds:200));
  (* A wheel sized for the jitter accepts it. *)
  let r =
    Wheel.broadcast ~env ~wheel_latency:64 (Rng.of_int 4) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:200
  in
  checki "spread despite jitter" 2 (count_informed r.Wheel.informed)

let test_wheel_undersized_refused () =
  (* A wheel_latency below the graph's ℓ_max fails fast at create, not
     thousands of rounds into a sweep job. *)
  let c = Csr.ring_of_cliques ~cliques:3 ~size:3 ~bridge_latency:9 in
  match
    Wheel.broadcast ~wheel_latency:4 (Rng.of_int 4) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:400
  with
  | _ -> Alcotest.fail "undersized wheel accepted"
  | exception Invalid_argument msg ->
      checkb "clear message" true
        (String.length msg > 0
        && String.sub msg 0 (String.length "Wheel_engine.create") = "Wheel_engine.create")

let test_wheel_deadline () =
  let c = Csr.of_graph (Gen.cycle 64) in
  (* A deadline already in the past aborts between rounds with the
     typed exception (the sweep runtime records it as a failure). *)
  (match
     Wheel.broadcast ~deadline:0.0 (Rng.of_int 9) c ~protocol:Wheel.Push_pull ~source:0
       ~max_rounds:10_000
   with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Wheel.Deadline_exceeded { round; elapsed_s } ->
      checki "aborted before stepping" 0 round;
      checkb "elapsed measured" true (elapsed_s >= 0.0));
  (* A generous deadline changes nothing: same trajectory as no deadline. *)
  let far = Unix.gettimeofday () +. 3600.0 in
  let bare =
    Wheel.broadcast (Rng.of_int 9) c ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:10_000
  in
  let budgeted =
    Wheel.broadcast ~deadline:far (Rng.of_int 9) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:10_000
  in
  Alcotest.check
    (Alcotest.option Alcotest.int)
    "deadline never steers the run" bare.Wheel.rounds budgeted.Wheel.rounds;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "identical history" bare.Wheel.history budgeted.Wheel.history

let test_wheel_metrics_match_engine () =
  (* Not just the trajectory: on a fault-free run the counters line up
     with the reference engine too. *)
  let g = Gen.ring_of_cliques ~cliques:3 ~size:5 ~bridge_latency:4 in
  let old_r = Push_pull.broadcast (Rng.of_int 21) g ~source:2 ~max_rounds:10_000 in
  let new_r =
    Wheel.broadcast (Rng.of_int 21) (Csr.of_graph g) ~protocol:Wheel.Push_pull ~source:2
      ~max_rounds:10_000
  in
  checki "initiations" old_r.Push_pull.metrics.Engine.initiations
    new_r.Wheel.metrics.Engine.initiations;
  checki "deliveries" old_r.Push_pull.metrics.Engine.deliveries
    new_r.Wheel.metrics.Engine.deliveries;
  checki "rounds" old_r.Push_pull.metrics.Engine.rounds new_r.Wheel.metrics.Engine.rounds

(* ------------------------------------------------------------------ *)
(* Old-vs-new engine parity *)

let trajectory_testable =
  Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)

let test_parity_fixed_cases () =
  List.iter
    (fun (label, g, seed, source) ->
      let old_r = Push_pull.broadcast (Rng.of_int seed) g ~source ~max_rounds:1_000_000 in
      let new_r =
        Wheel.broadcast (Rng.of_int seed) (Csr.of_graph g) ~protocol:Wheel.Push_pull ~source
          ~max_rounds:1_000_000
      in
      Alcotest.check (Alcotest.option Alcotest.int) (label ^ " rounds") old_r.Push_pull.rounds
        new_r.Wheel.rounds;
      Alcotest.check trajectory_testable (label ^ " trajectory") old_r.Push_pull.history
        new_r.Wheel.history)
    [
      ("clique", Gen.clique 64, 1, 0);
      ("star", Gen.star 50, 2, 7);
      ("dumbbell", Gen.dumbbell ~size:10 ~bridge_latency:13, 3, 0);
      ( "ring-of-cliques-2000",
        Gen.ring_of_cliques ~cliques:200 ~size:10 ~bridge_latency:5,
        4,
        17 );
      ( "weighted er",
        Gen.with_latencies (Rng.of_int 5) (Gen.Uniform (1, 8))
          (Gen.erdos_renyi_connected (Rng.of_int 5) ~n:120 ~p:0.08),
        6,
        11 );
    ]

(* The acceptance property: on random connected graphs with mixed
   latencies, the wheel engine's push-pull is round-for-round identical
   to the handler-based engine for the same seed. *)
let prop_pushpull_parity =
  QCheck.Test.make ~name:"wheel push-pull = engine push-pull (trajectories)" ~count:120
    QCheck.(triple (int_range 4 160) (int_range 0 100_000) (int_range 1 8))
    (fun (n, seed, lmax) ->
      let grng = Rng.of_int seed in
      let g =
        (* Stay above the G(n, p) connectivity threshold ln n / n. *)
        let p = min 1.0 ((log (float_of_int n) +. 3.0) /. float_of_int n) in
        Gen.with_latencies grng (Gen.Uniform (1, lmax)) (Gen.erdos_renyi_connected grng ~n ~p)
      in
      let source = seed mod n in
      let old_r = Push_pull.broadcast (Rng.of_int (seed + 1)) g ~source ~max_rounds:100_000 in
      let new_r =
        Wheel.broadcast
          (Rng.of_int (seed + 1))
          (Csr.of_graph g) ~protocol:Wheel.Push_pull ~source ~max_rounds:100_000
      in
      old_r.Push_pull.rounds = new_r.Wheel.rounds
      && old_r.Push_pull.history = new_r.Wheel.history)

let prop_flood_parity =
  QCheck.Test.make ~name:"wheel flood = engine round-robin push (rounds)" ~count:60
    QCheck.(pair (int_range 4 100) (int_range 0 100_000))
    (fun (n, seed) ->
      let grng = Rng.of_int seed in
      let g =
        let p = min 1.0 ((log (float_of_int n) +. 3.0) /. float_of_int n) in
        Gen.with_latencies grng (Gen.Uniform (1, 6)) (Gen.erdos_renyi_connected grng ~n ~p)
      in
      let source = seed mod n in
      let old_r = Flooding.push_round_robin g ~source ~blocking:false ~max_rounds:100_000 in
      let new_r =
        Wheel.broadcast (Rng.of_int 0) (Csr.of_graph g) ~protocol:Wheel.Flood ~source
          ~max_rounds:100_000
      in
      old_r.Flooding.rounds = new_r.Wheel.rounds)

(* ------------------------------------------------------------------ *)
(* Shard infrastructure *)

let test_shard_bounds_owner () =
  List.iter
    (fun (n, k) ->
      let b = Shard.bounds ~n ~k in
      checki "bounds length" (k + 1) (Array.length b);
      checki "first bound" 0 b.(0);
      checki "last bound" n b.(k);
      for i = 0 to k - 1 do
        let size = b.(i + 1) - b.(i) in
        if size < n / k || size > ((n + k - 1) / k) then
          Alcotest.failf "shard %d of (n=%d, k=%d) has size %d" i n k size
      done;
      for v = 0 to n - 1 do
        let o = Shard.owner ~n ~k v in
        if not (b.(o) <= v && v < b.(o + 1)) then
          Alcotest.failf "owner(%d) = %d disagrees with bounds (n=%d, k=%d)" v o n k
      done)
    [ (1, 1); (4, 4); (10, 3); (40, 4); (17, 5); (1000, 7) ];
  (match Shard.bounds ~n:4 ~k:5 with
  | _ -> Alcotest.fail "k > n accepted"
  | exception Invalid_argument _ -> ());
  match Shard.bounds ~n:4 ~k:0 with
  | _ -> Alcotest.fail "k = 0 accepted"
  | exception Invalid_argument _ -> ()

let test_wheel_pool_exhausted () =
  (* Clique of 20 under push-pull: round 0 initiates 20 exchanges, so a
     2-slot hard ceiling exhausts immediately with the exact fields. *)
  let c = Csr.of_graph (Gen.clique 20) in
  Alcotest.check_raises "tiny pool exhausts"
    (Wheel.Pool_exhausted { used = 2; round = 0 })
    (fun () ->
      ignore
        (Wheel.broadcast ~pool_capacity:2 (Rng.of_int 5) c ~protocol:Wheel.Push_pull ~source:0
           ~max_rounds:10));
  (* A capacity the run fits under never steers the trajectory. *)
  let bare =
    Wheel.broadcast (Rng.of_int 5) c ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:10_000
  in
  let capped =
    Wheel.broadcast ~pool_capacity:64 (Rng.of_int 5) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:10_000
  in
  Alcotest.check trajectory_testable "capacity never steers the run" bare.Wheel.history
    capped.Wheel.history;
  match
    Wheel.broadcast ~pool_capacity:0 (Rng.of_int 1) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:10
  with
  | _ -> Alcotest.fail "pool_capacity 0 accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Sharded-vs-one-domain engine parity *)

(* CI matrixes the property over shard counts by setting
   GOSSIP_PARITY_DOMAINS (comma-separated); the default sweeps 1-4,
   each compared with the one-domain (one-shard) run. *)
let parity_domains =
  match Sys.getenv_opt "GOSSIP_PARITY_DOMAINS" with
  | None -> [ 1; 2; 3; 4 ]
  | Some s ->
      let ds = String.split_on_char ',' s |> List.filter_map int_of_string_opt in
      if ds = [] then [ 1; 2; 3; 4 ] else ds

(* Pure fault plans (deterministic functions of their arguments), as
   the sharded engine's contract requires. *)
let parity_fault_plans =
  [
    ("none", Wheel.no_faults, 0);
    ( "drop",
      {
        Wheel.no_faults with
        Engine.drop =
          (fun ~initiator ~responder ~round -> (initiator + (3 * responder) + round) mod 5 = 0);
      },
      0 );
    ( "crash",
      { Wheel.no_faults with Engine.alive = (fun ~node ~round -> node mod 7 <> 3 || round < 2) },
      0 );
    ( "jitter",
      {
        Wheel.no_faults with
        Engine.jitter = (fun ~latency ~round -> latency + ((latency + round) mod 3));
      },
      2 );
  ]

let check_sharded_parity label base (r : Wheel.result) =
  Alcotest.check (Alcotest.option Alcotest.int) (label ^ " rounds") base.Wheel.rounds
    r.Wheel.rounds;
  Alcotest.check trajectory_testable (label ^ " trajectory") base.Wheel.history r.Wheel.history;
  checkb (label ^ " metrics") true (base.Wheel.metrics = r.Wheel.metrics);
  checkb (label ^ " informed set") true (Bytes.equal base.Wheel.informed r.Wheel.informed)

let test_sharded_parity_fixed () =
  let c = Csr.ring_of_cliques ~cliques:6 ~size:7 ~bridge_latency:9 in
  List.iter
    (fun protocol ->
      let name = Wheel.protocol_name protocol in
      let run d =
        Wheel.broadcast ~domains:d (Rng.of_int 13) c ~protocol ~source:5 ~max_rounds:100_000
      in
      let base = run 1 in
      List.iter
        (fun d -> check_sharded_parity (Printf.sprintf "%s domains=%d" name d) base (run d))
        parity_domains)
    [ Wheel.Push_pull; Wheel.Flood; Wheel.Random_contact ]

(* The tentpole acceptance property: for every protocol and every pure
   fault plan, the domain-sharded engine is bit-identical to the
   one-domain run — rounds, trajectory, counters, and the final
   informed set.  (The one-domain run is itself pinned to the
   reference engine by the push-pull and flood parity properties.) *)
let prop_sharded_parity =
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (protocols x faults x domains)"
    ~count:40
    QCheck.(triple (int_range 4 80) (int_range 0 100_000) (int_range 0 11))
    (fun (n, seed, pick) ->
      let grng = Rng.of_int seed in
      let g =
        let p = min 1.0 ((log (float_of_int n) +. 3.0) /. float_of_int n) in
        Gen.with_latencies grng (Gen.Uniform (1, 6)) (Gen.erdos_renyi_connected grng ~n ~p)
      in
      let csr = Csr.of_graph g in
      let source = seed mod n in
      let protocol =
        match pick mod 3 with 0 -> Wheel.Push_pull | 1 -> Wheel.Flood | _ -> Wheel.Random_contact
      in
      let _, faults, jitter = List.nth parity_fault_plans (pick / 3) in
      let run d =
        Wheel.broadcast ~env:(Wheel.env_of_faults faults)
          ~wheel_latency:(Csr.max_latency csr + jitter) ~domains:d
          (Rng.of_int (seed + 1))
          csr ~protocol ~source ~max_rounds:400
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed)
        parity_domains)

let test_sharded_dead_shard () =
  (* n = 40, k = 4: shard 1 owns exactly nodes 10..19 (bounds 0, 10,
     20, 30, 40).  Crash all of them from round 0, so one whole shard
     does nothing but drop traffic addressed to it: parity must hold
     and the dead nodes must stay dark. *)
  let rng = Rng.of_int 31 in
  let g =
    Gen.with_latencies rng (Gen.Uniform (1, 5)) (Gen.erdos_renyi_connected rng ~n:40 ~p:0.25)
  in
  let csr = Csr.of_graph g in
  let faults =
    { Wheel.no_faults with Engine.alive = (fun ~node ~round:_ -> node < 10 || node >= 20) }
  in
  let run d =
    Wheel.broadcast ~env:(Wheel.env_of_faults faults) ~domains:d (Rng.of_int 8) csr
      ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:300
  in
  let base = run 1 in
  let sharded = run 4 in
  check_sharded_parity "dead shard" base sharded;
  checkb "never completes" true (sharded.Wheel.rounds = None);
  for v = 10 to 19 do
    checki (Printf.sprintf "node %d dark" v) 0 (Char.code (Bytes.get sharded.Wheel.informed v))
  done;
  checkb "rumor still spread outside the dead shard" true
    (sharded.Wheel.metrics.Engine.deliveries > 0);
  checkb "losses counted" true (sharded.Wheel.metrics.Engine.dropped > 0)

let test_sharded_domains_validation () =
  let c = Csr.of_graph (Gen.path 3) in
  (match
     Wheel.broadcast ~domains:0 (Rng.of_int 1) c ~protocol:Wheel.Push_pull ~source:0
       ~max_rounds:10
   with
  | _ -> Alcotest.fail "domains = 0 accepted"
  | exception Invalid_argument _ -> ());
  (* More domains than nodes clamps to n and still matches. *)
  let base =
    Wheel.broadcast (Rng.of_int 2) c ~protocol:Wheel.Push_pull ~source:0 ~max_rounds:10_000
  in
  let clamped =
    Wheel.broadcast ~domains:8 (Rng.of_int 2) c ~protocol:Wheel.Push_pull ~source:0
      ~max_rounds:10_000
  in
  check_sharded_parity "clamped to n" base clamped

let test_sharded_telemetry () =
  (* A sharded run feeds the same round histograms as the one-shard
     run, plus the shard gauge and remote-traffic counters — which a
     one-domain run never registers. *)
  let c = Csr.ring_of_cliques ~cliques:5 ~size:8 ~bridge_latency:4 in
  let run d =
    let reg = Registry.create () in
    let r =
      Wheel.broadcast ~telemetry:reg ~domains:d (Rng.of_int 6) c ~protocol:Wheel.Push_pull
        ~source:0 ~max_rounds:10_000
    in
    (reg, r)
  in
  let reg1, r1 = run 1 in
  let reg4, r4 = run 4 in
  check_sharded_parity "telemetry run" r1 r4;
  List.iter
    (fun name ->
      let h1 = Registry.histogram reg1 name and h4 = Registry.histogram reg4 name in
      checki (name ^ " count") (Registry.hist_count h1) (Registry.hist_count h4);
      checki (name ^ " sum") (Registry.hist_sum h1) (Registry.hist_sum h4);
      checkb (name ^ " buckets") true (Registry.hist_buckets h1 = Registry.hist_buckets h4))
    [ "wheel.round.deliveries"; "wheel.round.initiations"; "wheel.inflight" ];
  List.iter
    (fun name ->
      checkb ("one domain registers no " ^ name) false
        (List.mem_assoc name (Registry.names reg1)))
    [ "wheel.shards"; "wheel.shard.remote.initiations"; "wheel.shard.remote.responses" ];
  checki "wheel.shards gauge" 4 (Registry.gauge_value (Registry.gauge reg4 "wheel.shards"));
  let remote name = Registry.counter_value (Registry.counter reg4 name) in
  checkb "cross-shard initiations observed" true (remote "wheel.shard.remote.initiations" > 0);
  checkb "cross-shard responses observed" true (remote "wheel.shard.remote.responses" > 0)

(* The round loop is allocation-free by construction; the
   wheel.minor_words_per_round gauge is the enforced witness.  One
   domain and three must both come in under the exported budget — a
   regression that reintroduces a per-round closure or boxed int shows
   up here as a gauge in the hundreds. *)
let test_minor_words_gauge () =
  (* Long enough (ring diameter ⇒ 100+ rounds) to amortize the
     fixed-cost allocations inside the measured window (history
     arrays, worker closures, domain spawns). *)
  let c = Csr.ring_of_cliques ~cliques:24 ~size:8 ~bridge_latency:4 in
  let words d =
    let reg = Registry.create () in
    let r =
      Wheel.broadcast ~telemetry:reg ~domains:d (Rng.of_int 6) c ~protocol:Wheel.Push_pull
        ~source:0 ~max_rounds:10_000
    in
    checkb "completes" true (r.Wheel.rounds <> None);
    Registry.gauge_value (Registry.gauge reg "wheel.minor_words_per_round")
  in
  let one = words 1 and sharded = words 3 in
  if one > Wheel.minor_words_budget then
    Alcotest.failf "one-domain gauge %d over budget %d" one Wheel.minor_words_budget;
  if sharded > Wheel.minor_words_budget then
    Alcotest.failf "sharded gauge %d over budget %d" sharded Wheel.minor_words_budget

(* Regression for the gauge truncation fix: int_of_float alone rounded
   7.9 words/round down to 7 — the same bug class PR 3 fixed in busy_us
   and PR 8 in crash_fraction.  The gauge must round to nearest. *)
let test_gauge_rounding () =
  checki "7.9 rounds up" 8 (Wheel.gauge_of_minor_words ~total:79.0 ~rounds:10);
  checki "7.4 rounds down" 7 (Wheel.gauge_of_minor_words ~total:74.0 ~rounds:10);
  checki "exact stays" 7 (Wheel.gauge_of_minor_words ~total:70.0 ~rounds:10);
  (* the old [int_of_float] truncation mapped 0.999... to 0, hiding a
     one-word-per-round leak entirely *)
  checki "just under 1 rounds up" 1 (Wheel.gauge_of_minor_words ~total:999.0 ~rounds:1000)

(* The mailbox buffer's doubling loop is clamped: a reservation beyond
   the ceiling raises the typed Buf_overflow instead of wrapping
   negative and spinning (or handing Bigarray a bogus size). *)
let test_buf_overflow () =
  let b = Shard.Buf.create () in
  Shard.Buf.push b 17;
  (match Shard.Buf.reserve b max_int with
  | exception Shard.Buf_overflow { need; limit } ->
      (* len + max_int wraps negative: reported as the raw need *)
      checkb "need reported" true (need < 0 || need > limit)
  | _ -> Alcotest.fail "reserve max_int must raise Buf_overflow");
  (match Shard.Buf.reserve b (Shard.Buf.max_capacity) with
  | exception Shard.Buf_overflow { need; limit } ->
      checki "need = len + k" (1 + Shard.Buf.max_capacity) need;
      checki "limit is the ceiling" Shard.Buf.max_capacity limit
  | _ -> Alcotest.fail "reserve past the ceiling must raise Buf_overflow");
  (match Shard.Buf.reserve b (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative reservation must raise Invalid_argument");
  (* the failed reservations left the buffer intact *)
  checki "length unchanged" 1 (Shard.Buf.length b);
  checki "content unchanged" 17 (Shard.Buf.get b 0)

(* Multi-word payload records: the mailbox discipline the wheel engine
   uses for kernels with msg_words > 1 — a scalar column of record
   count m paired with a payload column of m * mw cells, record i's
   words at [i*mw, (i+1)*mw).  reserve/set appends must land exactly
   where the drain loop reads, across doubling growth, for any record
   mix of reserve-then-set and plain push. *)
let prop_buf_multiword_roundtrip =
  QCheck.Test.make ~name:"Buf reserve/set multi-word records drain at i*mw" ~count:200
    QCheck.(triple (int_range 1 7) (int_range 0 200) (int_range 0 100_000))
    (fun (mw, records, seed) ->
      let scalar = Shard.Buf.create () and pay = Shard.Buf.create () in
      let word i w = ((i * 31) + (w * 7) + seed) land 0xFFFF in
      for i = 0 to records - 1 do
        Shard.Buf.push scalar (i + seed);
        if (i + seed) mod 2 = 0 then begin
          let base = Shard.Buf.reserve pay mw in
          if base <> i * mw then
            QCheck.Test.fail_reportf "reserve base %d at record %d (mw %d)" base i mw;
          for w = 0 to mw - 1 do
            Shard.Buf.set pay (base + w) (word i w)
          done
        end
        else
          for w = 0 to mw - 1 do
            Shard.Buf.push pay (word i w)
          done
      done;
      let ok = ref (Shard.Buf.length scalar = records && Shard.Buf.length pay = records * mw) in
      for i = 0 to records - 1 do
        if Shard.Buf.get scalar i <> i + seed then ok := false;
        for w = 0 to mw - 1 do
          if Shard.Buf.unsafe_get pay ((i * mw) + w) <> word i w then ok := false
        done
      done;
      Shard.Buf.clear scalar;
      Shard.Buf.clear pay;
      !ok && Shard.Buf.length pay = 0)

(* ------------------------------------------------------------------ *)
(* int32 range contract: every CSR constructor rejects out-of-range
   node ids and latencies with the typed I32.Overflow — never a
   silently wrapped value. *)

let is_overflow = function I32.Overflow _ -> true | _ -> false

let prop_csr_rejects_latency_overflow =
  QCheck.Test.make ~name:"csr constructors reject out-of-int32-range latencies" ~count:30
    QCheck.(int_range 1 (1 lsl 20))
    (fun excess ->
      let big = I32.max_value + excess in
      let raises f = match f () with exception e -> is_overflow e | _ -> false in
      (* of_graph: a valid graph holding one oversized latency *)
      raises (fun () -> Csr.of_graph (Graph.of_edges ~n:3 [ (0, 1, big); (1, 2, 1) ]))
      (* of_undirected_arrays: same edge list, flat-array path *)
      && raises (fun () ->
             Csr.of_undirected_arrays ~n:3 [| 0; 1 |] [| 1; 2 |] [| big; 1 |] ~count:2)
      (* with_latencies: a degenerate uniform spec pinned above range *)
      && raises (fun () ->
             Csr.with_latencies (Rng.of_int 3)
               (Gen.Uniform (big, big))
               (Csr.ring_of_cliques ~cliques:3 ~size:2 ~bridge_latency:1))
      (* generators: the bridge latency is checked before any allocation *)
      && raises (fun () -> Csr.ring_of_cliques ~cliques:3 ~size:2 ~bridge_latency:big)
      && raises (fun () ->
             Csr.braided_ring ~cliques:3 ~size:2 ~bridges:1 ~bridge_latency:big))

let test_csr_rejects_node_count_overflow () =
  (* 2^16 cliques x 2^16 nodes = 2^32 nodes > int32: the count is
     rejected before the generator allocates anything. *)
  match Csr.ring_of_cliques ~cliques:65536 ~size:65536 ~bridge_latency:1 with
  | exception I32.Overflow { what = _; value } -> checki "overflowing n" 4294967296 value
  | _ -> Alcotest.fail "2^32-node generator must raise I32.Overflow"

let test_spanner_rejects_overflow () =
  let raises f = match f () with exception e -> is_overflow e | _ -> false in
  checkb "oversized peer id" true
    (raises (fun () -> Csr.of_oriented_spanner [| [| (I32.max_value + 1, 1) |]; [||] |]));
  checkb "oversized latency" true
    (raises (fun () -> Csr.of_oriented_spanner [| [| (1, I32.max_value + 1) |]; [||] |]));
  (* negatives keep their historical Invalid_argument, they are not
     int32 overflows *)
  (match Csr.of_oriented_spanner [| [| (-1, 1) |]; [||] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative peer must stay Invalid_argument")

(* Dynamic scenarios ride the same parity contract as static fault
   plans: for drifting latencies and churn compiled by lib/dyn, the
   domain-sharded engine is bit-identical to the one-domain run. *)
let prop_sharded_parity_scenario =
  let module Scenario = Gossip_dyn.Scenario in
  QCheck.Test.make
    ~name:"sharded wheel = sequential wheel (dynamic scenarios x protocols x domains)"
    ~count:25
    QCheck.(triple (int_range 8 60) (int_range 0 100_000) (int_range 0 8))
    (fun (n, seed, pick) ->
      let grng = Rng.of_int seed in
      let g =
        let p = min 1.0 ((log (float_of_int n) +. 3.0) /. float_of_int n) in
        Gen.with_latencies grng (Gen.Uniform (1, 6)) (Gen.erdos_renyi_connected grng ~n ~p)
      in
      let csr = Csr.of_graph g in
      let source = seed mod n in
      let protocol =
        match pick mod 3 with 0 -> Wheel.Push_pull | 1 -> Wheel.Flood | _ -> Wheel.Random_contact
      in
      let rules =
        match pick / 3 with
        | 0 ->
            [
              {
                Scenario.schedule = Scenario.Linear { rate = 0.25; cap = 3.0 };
                filter = Scenario.Lat_ge 3;
              };
            ]
        | 1 -> [ { Scenario.schedule = Scenario.Step { at = 4; factor = 2.0 }; filter = Scenario.All } ]
        | _ ->
            [
              {
                Scenario.schedule = Scenario.Diurnal { amplitude = 1.0; period = 12; phase = 2 };
                filter = Scenario.Endpoint_mod { modulus = 3; residue = 1 };
              };
            ]
      in
      let scen =
        {
          Scenario.static with
          Scenario.seed;
          rules;
          churn = [ Scenario.Random_churn { fraction = 0.2; leave = 2; down = 5; period = 3 } ];
        }
      in
      let c = Scenario.compile scen ~csr ~source in
      let run d =
        Wheel.broadcast ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency ~domains:d
          (Rng.of_int (seed + 1))
          csr ~protocol ~source ~max_rounds:400
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed)
        parity_domains)

let () =
  Alcotest.run "gossip_scale"
    [
      ( "csr",
        [
          Alcotest.test_case "of_graph roundtrip" `Quick test_of_graph_roundtrip;
          Alcotest.test_case "ring-of-cliques direct = Gen" `Quick
            test_ring_of_cliques_matches_gen;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert_csr;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz_csr;
          Alcotest.test_case "with_latencies" `Quick test_with_latencies;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          qtest prop_csr_roundtrip;
        ] );
      ( "int32-contract",
        [
          qtest prop_csr_rejects_latency_overflow;
          Alcotest.test_case "node-count overflow" `Quick test_csr_rejects_node_count_overflow;
          Alcotest.test_case "spanner overflow" `Quick test_spanner_rejects_overflow;
          Alcotest.test_case "buf overflow" `Quick test_buf_overflow;
          qtest prop_buf_multiword_roundtrip;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "push-pull completes" `Quick test_wheel_pushpull_completes;
          Alcotest.test_case "flood + random-contact" `Quick
            test_wheel_flood_and_random_contact_complete;
          Alcotest.test_case "single node" `Quick test_wheel_single_node;
          Alcotest.test_case "drop everything" `Quick test_wheel_drop_everything;
          Alcotest.test_case "crash isolates" `Quick test_wheel_crash_isolates;
          Alcotest.test_case "jitter bound" `Quick test_wheel_jitter_bound;
          Alcotest.test_case "undersized bound refused" `Quick test_wheel_undersized_refused;
          Alcotest.test_case "deadline" `Quick test_wheel_deadline;
          Alcotest.test_case "metrics match engine" `Quick test_wheel_metrics_match_engine;
        ] );
      ( "parity",
        [
          Alcotest.test_case "fixed cases" `Quick test_parity_fixed_cases;
          qtest prop_pushpull_parity;
          qtest prop_flood_parity;
        ] );
      ( "shard",
        [
          Alcotest.test_case "bounds and owner" `Quick test_shard_bounds_owner;
          Alcotest.test_case "pool exhausted" `Quick test_wheel_pool_exhausted;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "fixed cases, all protocols" `Quick test_sharded_parity_fixed;
          qtest prop_sharded_parity;
          qtest prop_sharded_parity_scenario;
          Alcotest.test_case "minor-words gauge under budget" `Quick test_minor_words_gauge;
          Alcotest.test_case "gauge rounding" `Quick test_gauge_rounding;
          Alcotest.test_case "dead shard" `Quick test_sharded_dead_shard;
          Alcotest.test_case "domains validation + clamp" `Quick
            test_sharded_domains_validation;
          Alcotest.test_case "telemetry parity + shard metrics" `Quick test_sharded_telemetry;
        ] );
    ]
