module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph

type knowledge = Known_latencies | Unknown_latencies

type winner = Push_pull_won | Spanner_route_won

type result = {
  rounds : int;
  winner : winner;
  pushpull_rounds : int option;
  spanner_rounds : int;
  discovery_rounds : int;
  success : bool;
}

let all_to_all rng g ~knowledge ~max_rounds =
  let pp = Push_pull.all_to_all (Rng.split rng) g ~max_rounds in
  let discovery_rounds =
    match knowledge with
    | Known_latencies -> 0
    | Unknown_latencies ->
        (* Guess-and-double latency discovery up to the weighted
           diameter; the real protocol detects sufficiency through the
           same termination check EID runs (Section 4.2). *)
        let d = Gossip_graph.Paths.weighted_diameter g in
        (Discovery.probe_doubling g ~target:(max 1 d)).Discovery.rounds
  in
  let eid = Eid.run (Rng.split rng) g () in
  let spanner_rounds = discovery_rounds + eid.Eid.rounds in
  let pushpull_rounds = pp.Push_pull.rounds in
  let winner, rounds =
    match pushpull_rounds with
    | Some r when r <= spanner_rounds -> (Push_pull_won, r)
    | Some _ | None -> (Spanner_route_won, spanner_rounds)
  in
  {
    rounds;
    winner;
    pushpull_rounds;
    spanner_rounds;
    discovery_rounds;
    success = eid.Eid.success || pushpull_rounds <> None;
  }

(* ------------------------------------------------------------------ *)
(* Theorem 20's unified algorithm on the scale engine, single-rumor:
   push-pull raced against the unknown-latency EID chain, each branch
   on its own split of the caller's RNG (the same discipline as
   [all_to_all]), winner = fewer rounds.  Running the branches
   interleaved would cost the model a factor of two; simulating them
   separately and taking the minimum preserves every asymptotic
   claim. *)

module Scale_csr = Gossip_scale.Csr
module Scale_wheel = Gossip_scale.Wheel_engine

type scale_winner = Scale_push_pull_won | Scale_spanner_route_won

type scale_result = {
  b_rounds : int;
  b_winner : scale_winner;
  b_pushpull_rounds : int option;
  b_spanner_rounds : int;
  b_informed : Bytes.t;
  b_success : bool;
  b_unanimous : bool;
  b_attempts : Eid.unknown_attempt list;
  b_metrics : Gossip_sim.Engine.metrics;
}

let broadcast_scale ?n_hat ?domains ?telemetry ?env ?wheel_latency ?deadline ?on_round rng csr
    ~source ~max_rounds () =
  let pp_rng = Rng.split rng in
  let eid_rng = Rng.split rng in
  let pp =
    Scale_wheel.broadcast ?env ?wheel_latency ?deadline ?on_round ?telemetry ?domains pp_rng csr
      ~protocol:Scale_wheel.Push_pull ~source ~max_rounds
  in
  (* The chain's rounds follow on from push-pull's. *)
  let on_round =
    match on_round with
    | None -> None
    | Some f ->
        let after = pp.Scale_wheel.metrics.Gossip_sim.Engine.rounds in
        Some (fun ~round ~informed -> f ~round:(after + round) ~informed)
  in
  let eid =
    Eid.run_unknown_scale ?n_hat ?domains ?telemetry ?env ?wheel_latency ?deadline ?on_round
      eid_rng csr ~source ()
  in
  let winner, rounds, informed, metrics =
    match pp.Scale_wheel.rounds with
    | Some r when r <= eid.Eid.u_rounds ->
        (Scale_push_pull_won, r, pp.Scale_wheel.informed, pp.Scale_wheel.metrics)
    | Some _ | None ->
        (Scale_spanner_route_won, eid.Eid.u_rounds, eid.Eid.u_informed, eid.Eid.u_metrics)
  in
  {
    b_rounds = rounds;
    b_winner = winner;
    b_pushpull_rounds = pp.Scale_wheel.rounds;
    b_spanner_rounds = eid.Eid.u_rounds;
    b_informed = informed;
    b_success = eid.Eid.u_success || pp.Scale_wheel.rounds <> None;
    b_unanimous = eid.Eid.u_unanimous;
    b_attempts = eid.Eid.u_attempts;
    b_metrics = metrics;
  }
