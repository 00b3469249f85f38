(** Declarative dynamic-network scenarios.

    The paper's guarantees — push-pull's [O(ℓ*/φ* · log n)] bound, the
    RR/spanner stack's weighted-diameter bounds — are proved on a {e
    static} latency assignment.  A [Scenario.t] describes how the
    network moves during a broadcast: latency {b schedules} (drift,
    diurnal swing, step changes, RTT-trace multipliers), node {b
    churn} (leave / rejoin with amnesia), and an {b adversary} that
    concentrates jitter on the Baswana–Sen spanner edges the RR stack
    depends on.  Scenarios are JSON-loadable, deterministic in the
    scenario [seed], and {!compile} to a {!Gossip_scale.Wheel_engine.env} — the
    time-indexed generalization of the engine's fault hook — so every
    kernel runs under the same plans unchanged.

    A scenario with no schedules, churn, or adversary is the {e
    trivial} scenario: its compiled environment never rewrites a
    latency or a presence bit, and runs are bit-identical to the
    static engine.

    {2 JSON schema}

    {v
    { "name": "drift",                       (optional, default "scenario")
      "seed": 1,                             (optional, default 1)
      "schedules": [                         (optional, default [])
        { "kind": "linear",  "rate": 0.05, "cap": 4.0,
          "filter": { "kind": "lat-ge", "latency": 4 } },
        { "kind": "diurnal", "amplitude": 0.5, "period": 64, "phase": 0 },
        { "kind": "step",    "at": 50, "factor": 2.0 },
        { "kind": "trace",   "multipliers": [1.0, 1.5, 2.0], "dilate": 10 } ],
      "churn": [                             (optional, default [])
        { "node": 5, "leave": 10, "rejoin": 20 },      (rejoin optional)
        { "kind": "random", "fraction": 0.01,
          "leave": 30, "down": 15, "period": 8 } ],    (period optional)
      "adversary": { "budget": 3, "from": "spanner" }, (optional)
      "epoch": 32,                           (optional, φ-probe spacing)
      "track-phi": true }                    (optional, default false)
    v}

    Filters select which edges a schedule rewrites: ["all"] (default),
    ["lat-ge"] / ["lat-le"] (by static latency), ["endpoint-mod"]
    (edges whose smaller endpoint id satisfies
    [min u v mod modulus = residue]).  Unknown kinds, unknown fields,
    and negative times are rejected with {!Invalid_scenario}. *)

(** Raised on any malformed scenario: bad JSON, unknown schedule /
    filter / churn kind, unknown field, negative time, out-of-range
    parameter, or a plan that churns the broadcast source.  The
    message names the offending field. *)
exception Invalid_scenario of string

(** Which edges a schedule applies to.  [Endpoint_mod] matches edges
    whose smaller endpoint satisfies [min u v mod modulus = residue] —
    a cheap deterministic way to single out a slice of the graph. *)
type filter =
  | All
  | Lat_ge of int
  | Lat_le of int
  | Endpoint_mod of { modulus : int; residue : int }

(** A latency multiplier as a function of the round (and, for
    [Trace], of the edge identity). *)
type schedule =
  | Linear of { rate : float; cap : float }
      (** factor [min cap (1 + rate·round)]; [rate >= 0], [cap >= 1] *)
  | Diurnal of { amplitude : float; period : int; phase : int }
      (** factor [1 + amplitude·(1 + sin 2π(round+phase)/period)/2] —
          swings between 1 and [1 + amplitude] *)
  | Step of { at : int; factor : float }
      (** factor 1 before round [at], [factor] from it on *)
  | Trace of { multipliers : float array; dilate : int }
      (** per-edge RTT trace: edge [(u,v)] at round [r] uses
          [multipliers.((r/dilate + offset(u,v)) mod length)] where
          [offset] is a deterministic hash of the scenario seed and
          the edge — every edge walks the same trace from its own
          phase *)

type rule = { schedule : schedule; filter : filter }

type churn =
  | Leave of { node : int; leave : int; rejoin : int option }
      (** [node] is absent during rounds [leave .. rejoin-1]
          ([rejoin = None]: forever); on rejoin it has {e forgotten
          the rumor} and must be re-informed *)
  | Random_churn of { fraction : float; leave : int; down : int; period : int }
      (** [⌊fraction·n⌋] nodes sampled from the scenario seed
          (never the source) leave at rounds staggered over
          [leave .. leave+period-1] and rejoin [down] rounds later *)

(** Adversarial jitter aimed at the spanner: every directed exchange
    over a spanner edge suffers additive jitter in [\[0, budget\]],
    drawn deterministically from (seed, edge, round).  Requires the
    spanner orientation at {!compile} time. *)
type adversary = { budget : int }

type t = {
  name : string;
  seed : int;
  rules : rule list;
  churn : churn list;
  adversary : adversary option;
  epoch : int;  (** rounds between φ_ℓ/ℓ* probes (default 32) *)
  track_phi : bool;
}

(** The trivial scenario: no schedules, churn, or adversary. *)
val static : t

(** [is_static s] holds when [s] rewrites nothing — compiled runs are
    bit-identical to the plain engine. *)
val is_static : t -> bool

(** {1 Serialization} *)

(** [of_json j] validates and decodes.  @raise Invalid_scenario *)
val of_json : Gossip_util.Json.t -> t

(** [to_json s] inverts {!of_json} ([of_json (to_json s) = s]) — the
    form the gossipd [submit] request embeds. *)
val to_json : t -> Gossip_util.Json.t

(** [of_string s] parses one JSON document.  @raise Invalid_scenario *)
val of_string : string -> t

(** [load path] reads and parses a scenario file.
    @raise Invalid_scenario on unreadable file or bad contents *)
val load : string -> t

(** {1 Compilation} *)

type compiled = {
  scenario : t;
  env : Gossip_scale.Wheel_engine.env;  (** pure closures — safe under [?domains] *)
  wheel_latency : int;
      (** upper bound on every effective latency the plan can produce
          ([ℓ_max · ∏ max-factors + budget]) — pass as the engine's
          [?wheel_latency] *)
  epoch : int;
}

(** [compile ?oriented s ~csr ~source] resolves the plan against a
    concrete graph: samples random churn, checks explicit churn nodes
    are in range, builds the environment closures, and lists every
    finite rejoin as the environment's [env_rejoins] schedule (sorted
    by round, then node, without duplicates).  [oriented] is
    the spanner orientation the adversary targets — required when
    [s.adversary] is set.
    @raise Invalid_scenario when the plan churns [source] (the engine
    would otherwise never complete: a broadcast whose source leaves
    before informing anyone is undefined), when a churn node is out of
    range, or when an adversary has no orientation to aim at. *)
val compile : ?oriented:Gossip_scale.Csr.oriented -> t -> csr:Gossip_scale.Csr.t -> source:int -> compiled

(** {1 Live φ_ℓ / ℓ* tracking}

    [observer c ~csr ~telemetry] is an [?on_round] hook that, every
    [c.epoch] rounds (at most [max_epochs] times), rebuilds the
    effective latency assignment at that round and probes the weighted
    conductance profile with {!Gossip_conductance.Spectral.phi_ell}:
    for each distinct effective latency [ℓ] (at most [max_probe_lats],
    evenly subsampled beyond that) it estimates [φ_ℓ] and takes
    [ℓ* = argmin ℓ/φ_ℓ].  Epoch [k]'s result lands in three gauges:

    - [dyn.epoch.<k>.ell_star] — the minimizing latency [ℓ*];
    - [dyn.epoch.<k>.phi_ell_ppm] — [φ_{ℓ*}] in parts per million;
    - [dyn.epoch.<k>.bound] — [⌈ℓ*/φ_{ℓ*}⌉], the shape of push-pull's
      round bound, the series e16 asserts grows under drift.

    A no-op closure when [c.scenario.track_phi] is false.
    [iterations] tunes the spectral sweep (default 60: probes ride on
    the round loop, so they trade accuracy for latency). *)
val observer :
  ?iterations:int ->
  compiled ->
  csr:Gossip_scale.Csr.t ->
  telemetry:Gossip_obs.Registry.t ->
  round:int ->
  informed:int ->
  unit

val max_epochs : int

val max_probe_lats : int
