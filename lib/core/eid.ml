module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph

type attempt = {
  k : int;
  discovery_rounds : int;
  rr_rounds : int;
  check_rounds : int;
  spanner_out_degree : int;
  spanner_edges : int;
}

type result = {
  rounds : int;
  attempts : attempt list;
  k_final : int;
  sets : Rumor.t array;
  success : bool;
  unanimous : bool;
}

(* One EID(k) pass: discovery, spanner, RR broadcast.  [sets] is
   updated in place; returns the attempt record (check_rounds = 0) and
   the spanner orientation for the caller's termination check. *)
let eid_once rng g ~k ~n_hat ~sets =
  let iterations = Spanner.ceil_log2 n_hat in
  let discovery_rounds = ref 0 in
  (* A DTG phase can only deadlock-guard on the cap; each phase is
     O(k log^2 n), so this cap is generous. *)
  let phase_cap = max 1000 (64 * k * iterations * iterations * 4) in
  for _ = 1 to iterations do
    let r = Dtg.phase g ~ell:k ~max_rounds:phase_cap ~rumors:sets () in
    match r.Dtg.rounds with
    | Some rounds -> discovery_rounds := !discovery_rounds + rounds
    | None -> discovery_rounds := !discovery_rounds + phase_cap
  done;
  let gk = Graph.subgraph_le g k in
  let k_spanner = Spanner.ceil_log2 n_hat in
  let spanner = Spanner.build rng gk ~k:k_spanner ~n_hat () in
  let k_rr = k * ((2 * k_spanner) - 1) in
  let rr =
    Rr_broadcast.run ~base:g ~out_edges:spanner.Spanner.out_edges ~k:k_rr ~rumors:sets ()
  in
  let attempt =
    {
      k;
      discovery_rounds = !discovery_rounds;
      rr_rounds = rr.Rr_broadcast.rounds;
      check_rounds = 0;
      spanner_out_degree = Spanner.max_out_degree spanner;
      spanner_edges = Spanner.edge_count spanner;
    }
  in
  (attempt, spanner, k_rr)

let run_known_diameter rng g ~d ?n_hat () =
  if d < 1 then invalid_arg "Eid.run_known_diameter: need d >= 1";
  let n_hat = match n_hat with Some h -> max h (Graph.n g) | None -> Graph.n g in
  let sets = Rumor.initial g in
  let attempt, _spanner, _k_rr = eid_once rng g ~k:d ~n_hat ~sets in
  {
    rounds = attempt.discovery_rounds + attempt.rr_rounds;
    attempts = [ attempt ];
    k_final = d;
    sets;
    success = Rumor.all_to_all_done sets;
    unanimous = true;
  }

(* ------------------------------------------------------------------ *)
(* Known-diameter EID on the flat CSR scale engine: the same spanner
   route — k-DTG local spread, Baswana–Sen on G_k, RR Broadcast over
   the orientation — but single-rumor (broadcast from [source] rather
   than all-to-all) and run through Wheel_engine kernels, so it
   reaches 10^6 nodes.  The spanner is computed globally (the paper
   computes it locally from discovered neighborhoods using shared
   public coins — same object, different mechanics), and the DTG
   phase contributes the initial local spread plus its honest round
   cost. *)

module Scale_csr = Gossip_scale.Csr
module Scale_kernel = Gossip_scale.Kernel
module Scale_wheel = Gossip_scale.Wheel_engine

type scale_result = {
  scale_rounds : int;
  scale_dtg_rounds : int;
  scale_rr_rounds : int option;
  scale_spanner_out_degree : int;
  scale_spanner_edges : int;
  scale_informed : Bytes.t;
  scale_success : bool;
}

let run_known_diameter_scale ?n_hat ?domains ?telemetry ?max_rounds rng csr ~d ~source () =
  if d < 1 then invalid_arg "Eid.run_known_diameter_scale: need d >= 1";
  let n = Scale_csr.n csr in
  let n_hat = match n_hat with Some h -> max h n | None -> n in
  let lg = Spanner.ceil_log2 n_hat in
  let session = Scale_wheel.session ?telemetry ?domains csr in
  (* Phase 1: k-DTG local broadcast over the latency-<= d subgraph,
     budgeted at the discovery phase's 2·d·⌈log n̂⌉² rounds (the
     single-rumor shadow of the O(log n) DTG repetitions). *)
  let dtg_budget = max 64 (2 * d * lg * lg) in
  let dtg_kernel = Scale_kernel.dtg_local ~ell:(min d (Scale_csr.max_latency csr)) csr in
  let dtg_res =
    Scale_wheel.phase session rng csr ~kernel:dtg_kernel ~source ~max_rounds:dtg_budget
  in
  let dtg_rounds = dtg_res.Scale_wheel.metrics.Gossip_sim.Engine.rounds in
  (* Phase 2: Baswana–Sen on G_d with k = ⌈log n̂⌉, packed into an
     oriented CSR with the Lemma 15 out-degree bound asserted at
     construction, then RR Broadcast seeded with phase 1's informed
     set. *)
  let gd = Graph.subgraph_le (Scale_csr.to_graph csr) d in
  let k_spanner = lg in
  let spanner = Spanner.build rng gd ~k:k_spanner ~n_hat () in
  let oriented =
    Scale_csr.of_oriented_spanner
      ~out_degree_bound:(Spanner.out_degree_bound ~n ~k:k_spanner)
      spanner.Spanner.out_edges
  in
  let k_rr = d * ((2 * k_spanner) - 1) in
  let rr_cap =
    match max_rounds with
    | Some m -> m
    | None -> (k_rr * Scale_csr.oriented_max_out_degree oriented) + (2 * k_rr)
  in
  let rr_kernel = Scale_kernel.rr_broadcast ~k:k_rr oriented in
  let rr_res =
    Scale_wheel.phase session ~informed:dtg_res.Scale_wheel.informed rng csr ~kernel:rr_kernel
      ~source ~max_rounds:rr_cap
  in
  let final_count = ref 0 in
  Bytes.iter
    (fun c -> if c <> '\000' then incr final_count)
    rr_res.Scale_wheel.informed;
  {
    scale_rounds = Scale_wheel.session_rounds session;
    scale_dtg_rounds = dtg_rounds;
    scale_rr_rounds = rr_res.Scale_wheel.rounds;
    scale_spanner_out_degree = Spanner.max_out_degree spanner;
    scale_spanner_edges = Spanner.edge_count spanner;
    scale_informed = rr_res.Scale_wheel.informed;
    scale_success = !final_count = n;
  }

(* ------------------------------------------------------------------ *)
(* General EID with UNKNOWN latencies on the scale engine — the
   Theorem 20 spanner branch, end to end, with zero a-priori latency
   knowledge.  Per guess k (doubling from 1):

   1. probe every edge with wait bound k, timing the responses
      (Discovery.probe_scale) — this is the only place latencies
      enter, and they enter as measurements;
   2. run the T(k) DTG schedule over the DISCOVERED graph
      (Path_discovery.run_schedule_scale), informed set chained in;
   3. Baswana–Sen with ⌈log n̂⌉ on the discovered graph, RR Broadcast
      over the orientation for k_rr = k·(2·k_spanner − 1);
   4. the single-rumor termination check over the same orientation
      with parameter k_rr (Termination_check.run_scale);
   5. a failed (or vacuously clean-but-incomplete) verdict doubles k
      and retries, carrying the informed set forward.

   Every engine run is a phase of one Wheel_engine session: the run
   options, the scenario clock, [on_round]'s numbering and the
   metrics ledger belong to it, and it sizes a pinned wheel for the
   discovered graphs phases 2–4 run on.  The true input only appears
   in the harness guard (the latency-sum cap that bounds the doubling
   loop, mirroring [run]) and in [Discovery.probe_scale]'s
   completeness audit. *)

type unknown_attempt = {
  ua_k : int;
  ua_discovery_rounds : int;
  ua_schedule_rounds : int;
  ua_rr_rounds : int;
  ua_check_rounds : int;
  ua_edges_known : int;
  ua_spanner_out_degree : int;
  ua_spanner_edges : int;
  ua_failed : bool;
  ua_unanimous : bool;
}

type unknown_result = {
  u_rounds : int;
  u_attempts : unknown_attempt list;
  u_k_final : int;
  u_informed : Bytes.t;
  u_success : bool;
  u_unanimous : bool;
  u_metrics : Gossip_sim.Engine.metrics;
}

let count_informed informed =
  let c = ref 0 in
  Bytes.iter (fun ch -> if ch <> '\000' then incr c) informed;
  !c

let run_unknown_scale ?n_hat ?domains ?telemetry ?env ?wheel_latency ?deadline ?on_round rng
    csr ~source () =
  let n = Scale_csr.n csr in
  let session =
    Scale_wheel.session ?env ?wheel_latency ?deadline ?on_round ?telemetry ?domains csr
  in
  let clock () = Scale_wheel.session_rounds session in
  let n_hat = match n_hat with Some h -> max h n | None -> n in
  let lg = Spanner.ceil_log2 n_hat in
  (* Harness guard on the doubling loop, from the TRUE latencies (the
     protocol never reads them): a guess beyond twice the latency sum
     cannot be beaten by any larger guess on a connected input. *)
  let latency_sum =
    let module I32 = Gossip_scale.I32 in
    let o = Scale_csr.oriented_of_csr csr in
    let acc = ref 0 in
    for i = 0 to I32.length o.Scale_csr.o_lat - 1 do
      acc := !acc + I32.get o.Scale_csr.o_lat i
    done;
    max 1 (!acc / 2)
  in
  let rec attempt_loop k informed acc_attempts unanimous =
    let disc = Discovery.probe_scale session rng csr ~d_bound:k in
    let gk = disc.Discovery.s_discovered in
    let sched_start = clock () in
    let sched = Path_discovery.run_schedule_scale session ?informed rng gk ~k ~source in
    let sched_rounds = clock () - sched_start in
    let k_spanner = lg in
    let spanner = Spanner.build rng (Scale_csr.to_graph gk) ~k:k_spanner ~n_hat () in
    let oriented =
      Scale_csr.of_oriented_spanner
        ~out_degree_bound:(Spanner.out_degree_bound ~n ~k:k_spanner)
        spanner.Spanner.out_edges
    in
    let k_rr = k * ((2 * k_spanner) - 1) in
    let rr_cap = (k_rr * Scale_csr.oriented_max_out_degree oriented) + (2 * k_rr) in
    let rr_kernel = Scale_kernel.rr_broadcast ~k:k_rr oriented in
    let rr_res =
      Scale_wheel.phase session ~informed:sched rng gk ~kernel:rr_kernel ~source
        ~max_rounds:rr_cap
    in
    let check =
      Termination_check.run_scale session rng gk ~oriented ~k:k_rr
        ~informed:rr_res.Scale_wheel.informed
    in
    let attempt =
      {
        ua_k = k;
        ua_discovery_rounds = disc.Discovery.s_rounds;
        ua_schedule_rounds = sched_rounds;
        ua_rr_rounds = rr_res.Scale_wheel.metrics.Gossip_sim.Engine.rounds;
        ua_check_rounds = check.Termination_check.sc_rounds;
        ua_edges_known = disc.Discovery.s_edges_known;
        ua_spanner_out_degree = Spanner.max_out_degree spanner;
        ua_spanner_edges = Spanner.edge_count spanner;
        ua_failed = check.Termination_check.sc_any_failed;
        ua_unanimous = check.Termination_check.sc_unanimous;
      }
    in
    let acc_attempts = attempt :: acc_attempts in
    let unanimous = unanimous && check.Termination_check.sc_unanimous in
    let informed = rr_res.Scale_wheel.informed in
    let finish success =
      {
        u_rounds = clock ();
        u_attempts = List.rev acc_attempts;
        u_k_final = k;
        u_informed = informed;
        u_success = success;
        u_unanimous = unanimous;
        u_metrics = Scale_wheel.session_metrics session;
      }
    in
    if not check.Termination_check.sc_any_failed then
      finish (count_informed informed = n)
    else if k > 2 * latency_sum then finish false
    else attempt_loop (2 * k) (Some informed) acc_attempts unanimous
  in
  attempt_loop 1 None [] true

let run rng g ?n_hat () =
  let n_hat = match n_hat with Some h -> max h (Graph.n g) | None -> Graph.n g in
  let sets = Rumor.initial g in
  (* The estimate can never usefully exceed the sum of all latencies. *)
  let latency_sum =
    let acc = ref 0 in
    Graph.iter_edges (fun e -> acc := !acc + e.Graph.latency) g;
    max 1 !acc
  in
  let rec attempt_loop k acc_attempts acc_rounds unanimous =
    let attempt, spanner, k_rr = eid_once rng g ~k ~n_hat ~sets in
    let check =
      Termination_check.run ~base:g ~out_edges:spanner.Spanner.out_edges ~k:k_rr ~sets
    in
    let attempt = { attempt with check_rounds = check.Termination_check.rounds } in
    let rounds =
      acc_rounds + attempt.discovery_rounds + attempt.rr_rounds + attempt.check_rounds
    in
    let attempts = attempt :: acc_attempts in
    let unanimous = unanimous && check.Termination_check.unanimous in
    let failed = Array.exists (fun f -> f) check.Termination_check.failed in
    if not failed then
      {
        rounds;
        attempts = List.rev attempts;
        k_final = k;
        sets;
        success = Rumor.all_to_all_done sets;
        unanimous;
      }
    else if k > 2 * latency_sum then
      {
        rounds;
        attempts = List.rev attempts;
        k_final = k;
        sets;
        success = false;
        unanimous;
      }
    else attempt_loop (2 * k) attempts rounds unanimous
  in
  attempt_loop 1 [] 0 true
