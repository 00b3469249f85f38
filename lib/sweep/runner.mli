(** One runner from protocol descriptor to outcome.

    This is the one place that turns a {!Gossip_scale.Kernel.protocol}
    descriptor into a run.  The CLI's [run --protocol], {!Sweep.run_job}
    (so [sweep], {!Sweep.run_ft} and the gossipd daemon) and the scale
    benches call {!run} and keep only their own graph building and
    printing.  Routes:

    - single kernels (push-pull, flood, random-contact, dtg, k-rumor,
      rotation, algebraic): {!Gossip_scale.Kernel.of_protocol} run by
      {!Gossip_scale.Wheel_engine.broadcast_kernel};
    - rr-spanner (Lemma 15, Theorem 14): a Baswana–Sen spanner with
      parameter [stretch_k] ([⌈log₂ n⌉] when 0), packed with
      {!Gossip_core.Spanner.out_degree_bound} asserted, then RR
      Broadcast over the orientation;
    - unknown-eid and unified (Theorem 20): the chain drivers
      {!Gossip_core.Eid.run_unknown_scale} and
      {!Gossip_core.Dissemination.broadcast_scale}.

    {b Seeds.}  From [seed] the runner derives the engine's stream
    [seed + 17] and, on rr-spanner, the spanner's [seed + 29], so
    building the spanner never perturbs the engine's draws.  The graph
    is the caller's (the sweep redraws latencies from [seed + 7]).

    {b Scenarios.}  [scenario] is compiled against [csr] and [source]
    ({!Gossip_dyn.Scenario.compile}) — with the spanner orientation on
    rr-spanner, where an adversary can aim, and without it elsewhere,
    where an adversary is refused.  With [telemetry], single-kernel
    and rr-spanner runs also attach {!Gossip_dyn.Scenario.observer}
    ahead of [on_round], so a [track-phi] scenario's [dyn.epoch.*]
    gauges land in the registry.  Chains get no observer.  Their phases
    share one scenario clock, so the rounds [on_round] sees are the
    scenario's, but the phases run on the discovered graph and its
    spanner rather than on [csr]: an epoch probe of [csr] would
    describe a graph no phase runs on, and which graph a chain's
    epochs should describe is left to a per-phase outcome.

    {b Options by route.}  [domains], [telemetry], [deadline] and
    [on_round] reach every engine run of every route; on a chain,
    [on_round] sees rounds counted over all phases (on unified,
    push-pull's first), so they strictly increase.  An exception
    [on_round] raises aborts the run and propagates.  [pool_capacity]
    applies to single-kernel and rr-spanner runs only.  [max_rounds]
    caps those runs and unified's push-pull branch; the unknown-eid
    chain budgets its own phases. *)

(** The set-up of an rr-spanner run. *)
type spanner = {
  k : int;  (** spanner parameter (stretch [2k − 1]) *)
  edges : int;  (** directed edges of the packed orientation *)
  max_out_degree : int;  (** [Δ_out] of the orientation *)
  out_degree_bound : int;  (** the Lemma 15 bound asserted at packing *)
  build_s : float;  (** wall-clock seconds: graph conversion, build, packing *)
}

(** What a route adds to the engine-shaped result. *)
type route =
  | Kernel_run
  | Spanner_run of spanner
  | Eid_chain of Gossip_core.Eid.unknown_result
  | Unified_race of Gossip_core.Dissemination.scale_result

type outcome = {
  name : string;
      (** the kernel's name (as in [wheel.kernel.<name>.*] telemetry),
          or ["unknown-eid"] / ["unified"] *)
  result : Gossip_scale.Wheel_engine.result;
      (** [rounds] is [None] when capped or when a chain left a node
          uninformed; a chain's [metrics] are summed over its phases
          (unified: the winning branch's) and its [history] is empty *)
  route : route;
}

(** [run csr protocol ~seed ~source ~max_rounds] runs [protocol] on
    [csr] from [source].
    @raise Gossip_dyn.Scenario.Invalid_scenario when [scenario] does
    not compile against [csr].
    @raise Invalid_argument on a bad descriptor parameter or an
    orientation over the Lemma 15 out-degree bound.  Engine exceptions
    ([Deadline_exceeded], [Pool_exhausted], [Jitter_overflow]) and
    [on_round]'s propagate. *)
val run :
  ?scenario:Gossip_dyn.Scenario.t ->
  ?domains:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  ?pool_capacity:int ->
  Gossip_scale.Csr.t ->
  Gossip_scale.Kernel.protocol ->
  seed:int ->
  source:int ->
  max_rounds:int ->
  outcome
