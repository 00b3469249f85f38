(** One runner from protocol descriptor to outcome.

    This module owns the serializable protocol descriptors and is the
    one place that turns a descriptor into a run.  The CLI's
    [run --protocol], {!Sweep.run_job} (so [sweep], {!Sweep.run_ft}
    and the gossipd daemon) and the scale benches call {!run} and keep
    only their own graph building and printing; the engine below,
    {!Gossip_scale.Wheel_engine}, takes kernels and knows no
    descriptors.  Routes:

    - single kernels (push-pull, flood, random-contact, dtg, k-rumor,
      rotation, algebraic): the descriptor's {!Gossip_scale.Kernel}
      constructor on [csr]'s contact rows, run by
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
    gauges land in the registry.  Chains get no observer: their phases
    run on the discovered graph and its spanner, not on [csr], and
    which graph a chain's epochs should describe is left open.

    {b Options by route.}  [domains], [telemetry], [deadline] and
    [on_round] reach every engine run of every route; on a chain,
    [on_round] sees rounds counted over all phases (on unified,
    push-pull's first), so they strictly increase.  An exception
    [on_round] raises aborts the run and propagates.  [max_rounds]
    caps single-kernel and rr-spanner runs and unified's push-pull
    branch; the unknown-eid chain budgets its own phases.

    {b The record.}  Every route ends in one {!record}: rounds, metrics
    and what the route adds.  Its one JSON codec ({!record_fields},
    {!record_of_json}) is what sweep rows, checkpoints, telemetry
    [job] events and gossipd [result] rows carry. *)

(** {1 Protocol descriptors}

    The names the CLI's [--protocol], the sweep checkpoints and the
    gossipd wire format carry.  The grammar, one production per
    descriptor:

    {v
    push-pull | flood | random-contact | unknown-eid | unified
    rr-spanner[:K]          K >= 1
    dtg[:L]                 L >= 1
    k-rumor[:K[:B]]         K, B >= 0
    rotation[:K[:B]]        K, B >= 0
    algebraic[:K[:B]]       K, B >= 0
    v}

    A parameter that is absent or [0] is chosen at run time from the
    graph:

    - [rr-spanner]: [K = ⌈log₂ n⌉];
    - [dtg]: [L = ℓ_max], i.e. flooding;
    - [k-rumor], [rotation], [algebraic]: [K = min n 16] rumors;
    - [k-rumor], [rotation]: a [B = 4]-word message budget;
    - [algebraic]: [B = ⌈K/30⌉] words, exactly the
      {!Gossip_scale.Kernel.coeff_bits}-bit coefficient words one
      combination needs. *)

type protocol =
  | Push_pull
      (** every node contacts a uniformly random neighbor each round;
          the exchange pushes the rumor out and pulls it back —
          trajectory-identical to [Gossip_core.Push_pull.broadcast]
          for the same seed *)
  | Flood
      (** informed nodes cycle deterministically through their
          neighbors (round-robin push, responses carry nothing) —
          trajectory-identical to
          [Gossip_core.Flooding.push_round_robin ~blocking:false] *)
  | Random_contact
      (** informed nodes push to a uniformly random neighbor each
          round — the classical random-phone-call push half *)
  | Rr_spanner of { stretch_k : int }
      (** RR Broadcast over a Baswana–Sen oriented spanner built with
          parameter [stretch_k] *)
  | Dtg_local of { ell : int }
      (** deterministic local broadcast over the latency-[<= ell]
          subgraph *)
  | Unknown_eid
      (** the unknown-latency EID chain (Theorem 20's spanner branch):
          guess-and-double latency discovery → T(k) DTG schedule →
          spanner on the discovered profile → RR Broadcast →
          termination check, retrying while the vote is failed or
          non-unanimous *)
  | Unified
      (** Theorem 20's unified algorithm: push-pull and the
          unknown-latency EID chain raced, min taken *)
  | K_rumor of { k : int; budget : int }
      (** [k] rumors seeded rumor [j] at node [j] (all-to-all when
          [k = n]), push-pull contact schedule, each message a random
          subset of at most [budget] held rumor ids; completion =
          holding all [k] *)
  | Rumor_rotation of { k : int; budget : int }
      (** same seeding, random contact, Dufoulon-style deterministic
          rumor rotation: the emission window slides [budget]
          positions per round *)
  | Algebraic of { k : int; budget : int }
      (** Avin et al. algebraic gossip: random GF(2) combinations of
          the decoded span; completion = rank [k].  An explicit
          [budget] below [⌈k/30⌉] words is refused at run time. *)

(** Minimal printing: a trailing auto parameter is omitted, but an
    explicit budget forces the [k] field out too (["k-rumor:0:2"] is
    auto [k], budget 2), so names are injective on descriptors. *)
val protocol_name : protocol -> string

(** [protocol_of_string s] inverts {!protocol_name}; it also accepts
    the parameterless forms (auto parameters) and the one-parameter
    rumor forms (["k-rumor:K"], auto budget). *)
val protocol_of_string : string -> protocol option

(** One entry per production, for help strings: ["push-pull";
    "flood"; "random-contact"; "rr-spanner[:K]"; "dtg[:L]";
    "unknown-eid"; "unified"; "k-rumor[:K[:B]]"; "rotation[:K[:B]]";
    "algebraic[:K[:B]]"]. *)
val known_protocols : string list

(** {1 Running a descriptor} *)

(** A descriptor parameter that does not fit the graph: a rumor count
    above [n], or an algebraic budget below [⌈k/30⌉] words.  The
    message starts with the descriptor's name. *)
exception Invalid_protocol of string

(** The set-up of an rr-spanner run. *)
type spanner = {
  k : int;  (** spanner parameter (stretch [2k − 1]) *)
  edges : int;  (** directed edges of the packed orientation *)
  max_out_degree : int;  (** [Δ_out] of the orientation *)
  out_degree_bound : int;  (** the Lemma 15 bound asserted at packing *)
  build_s : float;  (** wall-clock seconds: graph conversion, build, packing *)
}

(** What the unknown-eid chain reports beyond its rounds and metrics. *)
type chain = {
  k_final : int;  (** the estimate in force at termination *)
  unanimous : bool;  (** every attempt's verdict was unanimous (Lemma 18) *)
  attempts : Gossip_core.Eid.unknown_attempt list;  (** in execution order *)
}

(** What Theorem 20's race reports beyond its rounds and metrics. *)
type race = {
  winner : Gossip_core.Dissemination.scale_winner;
  pushpull_rounds : int option;  (** [None] when push-pull hit the cap *)
  spanner_rounds : int;  (** the chain's total, discovery included *)
  eid : chain;  (** the spanner route's chain *)
}

(** What a route adds to the rounds and metrics. *)
type route =
  | Kernel_run
  | Spanner_run of spanner
  | Eid_chain of chain
  | Unified_race of race

(** The record of a finished run.  Sweep rows, checkpoint lines,
    telemetry [job] events, gossipd [result] rows and the CLI's
    [run --protocol] printer all carry it, through {!record_fields}
    and {!record_of_json}. *)
type record = {
  rounds : int option;
      (** completion round; [None] when capped or when a chain left a
          node uninformed *)
  metrics : Gossip_scale.Wheel_engine.metrics;
      (** a chain's are summed over its phases (unified: the winning
          branch's), so [metrics.rounds] is the rounds it executed *)
  route : route;
}

type outcome = {
  name : string;
      (** the kernel's name (as in [wheel.kernel.<name>.*] telemetry),
          or ["unknown-eid"] / ["unified"] *)
  record : record;
  history : (int * int) list;
      (** the engine's informed-count trajectory; empty on chains *)
  informed : Bytes.t;  (** the final completion set, one byte per node *)
}

(** [run csr protocol ~seed ~source ~max_rounds] runs [protocol] on
    [csr] from [source].
    @raise Gossip_dyn.Scenario.Invalid_scenario when [scenario] does
    not compile against [csr].
    @raise Invalid_protocol on a descriptor parameter that does not
    fit [csr], before any engine work.
    @raise Invalid_argument on an orientation over the Lemma 15
    out-degree bound.  Engine exceptions
    ([Deadline_exceeded], [Pool_exhausted], [Jitter_overflow]) and
    [on_round]'s propagate. *)
val run :
  ?scenario:Gossip_dyn.Scenario.t ->
  ?domains:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  Gossip_scale.Csr.t ->
  protocol ->
  seed:int ->
  source:int ->
  max_rounds:int ->
  outcome

(** {1 The record's JSON codec} *)

(** [record_fields ?wall r] is [r] as the fields of a row, in row
    order: [rounds] (null when [None]), [initiations], [deliveries],
    [payload_words], [dropped], the caller's [wall] fields (so rows
    keep the field order of older checkpoints), [rounds_executed],
    [rejected] and, on every route but [Kernel_run], a [route] object
    keyed by ["kind"]: ["spanner"], ["eid"] or ["race"], field for
    field as in {!spanner}, {!chain} and {!race}, a race writing its
    chain's fields in place of [eid] (DESIGN.md tables them).  The
    spanner's [build_s] is wall-clock. *)
val record_fields :
  ?wall:(string * Gossip_util.Json.t) list -> record -> (string * Gossip_util.Json.t) list

(** [record_of_json protocol j] reads back, exactly, a record
    {!record_fields} wrote into the object [j], ignoring other fields.
    [None] when a field is missing or malformed, or when the [route]
    does not match the route kind [protocol] runs (a kernel descriptor
    with one, or a chain or rr-spanner row without its own). *)
val record_of_json : protocol -> Gossip_util.Json.t -> record option
