(** The T(k) doubling schedule and Path Discovery (Appendix E).

    [T(k)] is a recursively defined sequence of ℓ-DTG invocations:

    [T(1) = 1-DTG],  [T(2k) = T(k) · 2k-DTG · T(k)]

    so the parameter pattern for [k = 8] is
    [1 2 1 4 1 2 1 8 1 2 1 4 1 2 1].  Lemma 24: after executing
    [T(k)], any two nodes at weighted distance [<= k] have exchanged
    rumors.  Lemma 25: executing [T(D)] solves all-to-all
    dissemination in [O(D log² n log D)] time.  The schedule needs no
    bound on [n], and uses the heavy (latency-[2k]) edges only once
    between the two recursive halves — information is accumulated near
    a heavy edge before it is crossed.

    Path Discovery (Algorithm 6) handles unknown [D] by
    guess-and-double over [T(k)] with the Termination Check (the check
    broadcast rides on round-robin flooding over the latency-[<= k]
    adjacency, a valid [k]-distance broadcast per Section 5.3). *)

(** [t_sequence k] is the list of ℓ-DTG parameters of [T(k)]; [k] is
    rounded up to a power of two.  Length [2^log k + ... = 2·k' - 1]
    for [k'] the rounded value... precisely [2^(log2 k' + 1) - 1]
    entries. *)
val t_sequence : int -> int list

type result = {
  rounds : int;  (** total engine rounds *)
  k_final : int;
  attempts : int;  (** guess-and-double iterations (1 for known D) *)
  sets : Rumor.t array;
  success : bool;
  unanimous : bool;
}

(** [run_known_diameter g ~d] executes [T(d)] once. *)
val run_known_diameter : Gossip_graph.Graph.t -> d:int -> result

(** [run g] is Path Discovery with unknown diameter. *)
val run : Gossip_graph.Graph.t -> result

(** {1 The T(k) schedule on the flat scale engine} *)

type schedule_scale_result = {
  ps_rounds : int;  (** wheel rounds executed across all phases *)
  ps_informed : Bytes.t;  (** final informed set, one byte per node *)
  ps_metrics : Gossip_sim.Engine.metrics;  (** summed over all phases *)
}

(** [run_schedule_scale rng csr ~k ~source] executes [T(k)]
    single-rumor: each ℓ-DTG entry runs as a
    {!Gossip_scale.Kernel.dtg_local} kernel for its
    [max 64 (2·ℓ·⌈log n⌉²)] budget, the informed set chaining from
    phase to phase (seeded from [?informed], copied).  Phases after
    the rumor has reached everyone cost no rounds.  Optional
    arguments pass through to every phase's
    {!Gossip_scale.Wheel_engine.broadcast_kernel}; [on_round] so sees
    each phase's rounds from 1 ({!Eid.run_unknown_scale} counts them
    over the whole chain). *)
val run_schedule_scale :
  ?faults:Gossip_scale.Wheel_engine.faults ->
  ?env:Gossip_scale.Wheel_engine.env ->
  ?wheel_latency:int ->
  ?max_jitter:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?domains:int ->
  ?informed:Bytes.t ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  k:int ->
  source:int ->
  schedule_scale_result
