(** Unified information dissemination (Theorem 20).

    The paper's final algorithm runs push-pull and the spanner route in
    parallel and stops with whichever finishes first:

    - latencies {e unknown}:
      [O(min((D + Delta) log^3 n, (l_star/phi_star) log n))] — the spanner route must
      first discover latencies (Section 4.2);
    - latencies {e known}:
      [O(min(D log^3 n, (l_star/phi_star) log n))].

    Running two protocols in parallel in the model costs a factor of
    two (alternate rounds between them); we simulate each branch
    separately and report the minimum and the winner, which preserves
    every asymptotic claim. *)

type knowledge = Known_latencies | Unknown_latencies

type winner = Push_pull_won | Spanner_route_won

type result = {
  rounds : int;  (** the minimum of the two branches *)
  winner : winner;
  pushpull_rounds : int option;  (** [None] when push-pull hit the cap *)
  spanner_rounds : int;  (** EID (+ discovery when unknown) total *)
  discovery_rounds : int;  (** 0 with known latencies *)
  success : bool;
}

(** [all_to_all rng g ~knowledge ~max_rounds] solves all-to-all
    dissemination both ways and reports the unified outcome.
    [max_rounds] caps the push-pull branch only. *)
val all_to_all :
  Gossip_util.Rng.t ->
  Gossip_graph.Graph.t ->
  knowledge:knowledge ->
  max_rounds:int ->
  result

(** {1 The unified algorithm on the flat scale engine}

    Single-rumor Theorem 20 at 10^6 nodes with {e unknown} latencies:
    push-pull ({!Gossip_scale.Kernel.push_pull}) raced against
    the unknown-latency EID chain ({!Eid.run_unknown_scale}), each on
    its own RNG split, winner = fewer rounds. *)

type scale_winner = Scale_push_pull_won | Scale_spanner_route_won

type scale_result = {
  b_rounds : int;  (** the minimum of the two branches *)
  b_winner : scale_winner;
  b_pushpull_rounds : int option;  (** [None] when push-pull hit the cap *)
  b_spanner_rounds : int;  (** EID chain total (discovery included) *)
  b_informed : Bytes.t;  (** the winning branch's final informed set *)
  b_success : bool;
  b_unanimous : bool;  (** the EID branch's check verdicts all agreed *)
  b_attempts : Eid.unknown_attempt list;  (** the EID branch's attempts *)
  b_k_final : int;  (** the EID branch's estimate in force at termination *)
  b_metrics : Gossip_sim.Engine.metrics;  (** the winning branch's counters *)
}

(** [broadcast_scale rng csr ~source ~max_rounds ()] races the two
    branches.  [max_rounds] caps the push-pull branch only (the EID
    chain self-budgets per phase); the other optional arguments reach
    both branches.  The branches run in parallel in the model, so each
    starts at round 0 of the scenario: push-pull is one engine run,
    and the chain opens its own session
    ({!Eid.run_unknown_scale}).  [on_round] sees push-pull's rounds,
    then the chain's numbered on from push-pull's last, so the
    rounds strictly increase over the whole race. *)
val broadcast_scale :
  ?domains:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?env:Gossip_scale.Wheel_engine.env ->
  ?wheel_latency:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  scale_result
