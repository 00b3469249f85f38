(** Efficient Information Dissemination — EID (Algorithms 3–4;
    Theorems 14, 19).

    The spanner route to all-to-all dissemination with known latencies:

    + {b Neighborhood discovery}: [O(log n)] repetitions of [k]-DTG, so
      every node learns its [log n]-hop neighborhood in the
      latency-[<= k] subgraph [G_k] (each DTG phase pushes knowledge
      one hop further);
    + {b Spanner construction}: Baswana–Sen with [k_spanner = ⌈log n̂⌉]
      on [G_k], computed from the discovered neighborhoods (local
      computation; cluster sampling uses shared public coins);
    + {b RR Broadcast} over the oriented spanner with parameter
      [k · (2·k_spanner - 1)] (the spanner stretch turns distance-[k]
      pairs into that spanner distance).

    With [k = D] this takes [O(D log³ n)] rounds (Theorem 14 /
    Lemma 17).  When [D] is unknown, General EID (Algorithm 4) runs the
    guess-and-double loop with the Termination Check; Lemma 18
    guarantees a unanimous verdict each attempt and Theorem 19 the same
    [O(D log³ n)] total. *)

type attempt = {
  k : int;  (** the diameter estimate of this attempt *)
  discovery_rounds : int;
  rr_rounds : int;
  check_rounds : int;  (** 0 when no check ran (known-D mode) *)
  spanner_out_degree : int;
  spanner_edges : int;
}

type result = {
  rounds : int;  (** total engine rounds across phases and attempts *)
  attempts : attempt list;  (** in execution order *)
  k_final : int;  (** estimate in force at termination *)
  sets : Rumor.t array;
  success : bool;  (** all-to-all dissemination achieved *)
  unanimous : bool;  (** every check verdict was unanimous (Lemma 18) *)
}

(** [run_known_diameter rng g ~d ?n_hat ()] is one EID([d]) execution
    (no termination check).  [n_hat] defaults to [n]. *)
val run_known_diameter :
  Gossip_util.Rng.t -> Gossip_graph.Graph.t -> d:int -> ?n_hat:int -> unit -> result

(** [run rng g ?n_hat ()] is General EID: guess-and-double from
    [k = 1] with termination checks.  Terminates once a check passes
    (or after the estimate exceeds [2 · D_max] with [D_max] the sum of
    all latencies, which cannot happen on connected inputs). *)
val run : Gossip_util.Rng.t -> Gossip_graph.Graph.t -> ?n_hat:int -> unit -> result

(** {1 EID on the flat scale engine}

    The same spanner route at 10^6 nodes, single-rumor: a k-DTG
    local-broadcast kernel over the latency-[<= d] subgraph, then
    Baswana–Sen with [⌈log n̂⌉] on [G_d] (Lemma 15 out-degree bound
    asserted when the orientation is packed), then an RR Broadcast
    kernel over the orientation seeded with the DTG phase's informed
    set — all through {!Gossip_scale.Wheel_engine.broadcast_kernel}.
    The spanner is computed globally here (the paper derives it from
    locally discovered neighborhoods under shared public coins — the
    same object, cheaper mechanics at this scale). *)

type scale_result = {
  scale_rounds : int;  (** wheel rounds actually executed, both phases *)
  scale_dtg_rounds : int;
  scale_rr_rounds : int option;  (** [None] if the RR phase hit its cap *)
  scale_spanner_out_degree : int;
  scale_spanner_edges : int;
  scale_informed : Bytes.t;  (** final informed set, one byte per node *)
  scale_success : bool;  (** every node informed *)
}

(** [run_known_diameter_scale rng csr ~d ~source ()] runs the known-[d]
    pipeline above from [source].  [max_rounds] caps the RR phase
    (default: Lemma 15's [k_rr · Δ_out + k_rr] plus response slack).
    The two phases run in one {!Gossip_scale.Wheel_engine.session}
    opened with [domains] and [telemetry].
    @raise Invalid_argument on [d < 1], a bad [source], or a spanner
    orientation violating the Lemma 15 bound. *)
val run_known_diameter_scale :
  ?n_hat:int ->
  ?domains:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?max_rounds:int ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  d:int ->
  source:int ->
  unit ->
  scale_result

(** {1 Unknown-latency EID on the scale engine (Theorem 20)}

    The spanner branch of the unified algorithm with {e zero} a-priori
    latency knowledge: per guess [k] (doubling from 1) the chain
    probes every edge with wait bound [k] and times the responses
    ({!Discovery.probe_scale}), runs the T([k]) DTG schedule over the
    {e discovered} graph ({!Path_discovery.run_schedule_scale}),
    builds a Baswana–Sen spanner on it and RR-broadcasts over the
    orientation, then runs the single-rumor termination check
    ({!Termination_check.run_scale}); a failed or incomplete verdict
    doubles [k] and retries, carrying the informed set forward.  The
    true input graph is only consulted by the harness (the
    latency-sum cap bounding the doubling loop), never by the
    protocol. *)

type unknown_attempt = {
  ua_k : int;  (** the wait-bound / diameter estimate of this attempt *)
  ua_discovery_rounds : int;
  ua_schedule_rounds : int;
  ua_rr_rounds : int;
  ua_check_rounds : int;
  ua_edges_known : int;  (** undirected edges measured both ways *)
  ua_spanner_out_degree : int;
  ua_spanner_edges : int;
  ua_failed : bool;  (** some check verdict failed *)
  ua_unanimous : bool;  (** the verdicts agreed (Lemma 18) *)
}

type unknown_result = {
  u_rounds : int;  (** wheel rounds, all phases and attempts *)
  u_attempts : unknown_attempt list;  (** in execution order *)
  u_k_final : int;
  u_informed : Bytes.t;
  u_success : bool;  (** every node informed *)
  u_unanimous : bool;  (** every attempt's verdict was unanimous *)
  u_metrics : Gossip_sim.Engine.metrics;  (** summed over every phase *)
}

(** [run_unknown_scale rng csr ~source ()] runs the chain above as one
    {!Gossip_scale.Wheel_engine.session} opened at round 0 with the
    optional arguments, so every phase of every attempt shares them
    and one round clock: a scenario [env] unfolds once over the whole
    chain, [on_round] sees rounds 1, 2, …, [u_rounds], and a pinned
    [wheel_latency] is scaled for each discovered graph (see
    {!Gossip_scale.Wheel_engine.phase}).  A static fault plan is
    passed as [~env:(Wheel_engine.env_of_faults plan)].  An exception
    [on_round] raises aborts the chain and propagates. *)
val run_unknown_scale :
  ?n_hat:int ->
  ?domains:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?env:Gossip_scale.Wheel_engine.env ->
  ?wheel_latency:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  source:int ->
  unit ->
  unknown_result
