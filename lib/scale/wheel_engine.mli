(** Flat-array gossip simulator for million-node graphs.

    {!Gossip_sim.Engine} is polymorphic in the payload and dispatches
    through per-node handler closures and a binary heap of boxed
    events — the right tool for the paper's gadgets, but at 10^6 nodes
    the allocation and pointer traffic dominate.  [Wheel_engine]
    specializes the hot broadcast protocols and keeps {e all} state
    flat:

    - the informed set is a byte array;
    - in-flight exchanges live in parallel {b int32} columns ({!I32.t}
      Bigarrays — 4 bytes per field, off the OCaml heap) cut into
      fixed-size blocks.  Each wheel slot owns an arrival chain and a
      response chain of blocks: phase 2 appends to arrival chains,
      phase 1b copies each delivered request's response into its due
      slot's response chain, and a walked chain returns its blocks to
      a free-block list, so a round walks contiguous memory.  Within a
      slot exchanges run first-in first-out; nothing observable
      depends on that order (see below).  Node ids and latencies fit
      by the {!Csr} range contract, and due rounds are guarded per
      round (a run raises {!I32.Overflow} rather than wrapping a due
      date);
    - the round loop is {e allocation-free}: no per-round closures,
      boxed ints, or escaping refs — enforced by asserting the
      ["wheel.minor_words_per_round"] gauge against
      {!minor_words_budget} in the tests and bench e18;
    - the event queue is a timing wheel of [ℓ_max + 1] slots indexed by
      [round mod (ℓ_max + 1)] — legal because every event is due at
      most [ℓ_max] rounds ahead, so insertion and extraction are O(1)
      with no comparisons;
    - per-node randomness comes from [Rng] streams split from the
      caller's seed in node order — the exact discipline of the
      handler-based protocols, which is what makes trajectory parity
      with [Gossip_core.Push_pull.broadcast] possible.

    The round semantics are identical to [Engine.step]: all deliveries
    due this round happen first (responses are generated before any
    push merge, from state as of the start of the round, so information
    never chains through several same-round deliveries), then every
    node may initiate, in ascending node order.  A latency-[ℓ] exchange
    initiated at round [r] arrives at [r + ⌈ℓ/2⌉] and its response
    returns at [r + ℓ].

    There is one implementation of that round.  Nodes are split into
    [k] contiguous shards ({!Shard.bounds}), each with its own exchange
    exchange blocks and wheels; cross-shard traffic moves through mailboxes
    drained at two barriers per round, the second of which runs a
    serial merge.  A run on one domain is the one-shard case: every
    exchange is local, the mailboxes stay empty, and the merge runs
    inline.

    The protocol itself is a {!Kernel.t}: a directed contact structure,
    the per-node [on_initiate] hook, and an exchange the round either
    runs inline (the one-bit [Rumor] exchange, no call per exchange)
    or hands to the kernel's payload hooks ([Words]); see {!Kernel}
    for the contract and why the RNG-stream discipline is part of it.  The engine owns everything
    else — exchange blocks, wheels, environment, deadline, RNG streams, telemetry,
    shard mailboxes.  A kernel chain runs its phases in one
    {!session}.  The engine takes kernels only: it knows no protocol
    names or descriptors, which [Gossip_sweep.Runner] owns together
    with the rules that turn one into kernels. *)

(** A time-indexed network environment — the generalization of the
    reference engine's static fault plan ({!Gossip_sim.Engine.faults})
    that dynamic scenarios ([lib/dyn]) compile into.  The round reads
    it as data:

    - [presence] says who is present when ({!Presence.t}): a schedule
      of absence intervals [(leave, node, back)] for churn, or a
      static plan's liveness.  At the start of each round every shard
      folds it into one per-node int32 column for its own nodes, so
      each check in the round is a load and a compare: a node
      initiates only while alive, and an exchange initiated at round
      [since] is delivered to a node only if it has been present ever
      since — a node that left and rejoined mid-flight missed the
      message (its incarnation changed).  Every finite [back] is also
      an amnesia point: the node rejoins at the start of that round
      with its rumor state forgotten and its completed bit cleared
      before any delivery, so completion still means "everyone
      currently informed".  The column (4 bytes per node) exists only
      when there is presence to track; a schedule naming a node
      outside the graph is refused with [Invalid_argument] before the
      run starts.
    - [drop ~initiator ~responder ~round] suppresses an initiation.
    - [latency] maps an edge's static latency to the effective latency
      of an exchange initiated at [round].  It is clamped to [>= 1] by
      the engine and must stay within the wheel bound, or
      {!Jitter_overflow} is raised.  A map that reads only the static
      latency and the round is a [By_class] map: phase 2 asks it once
      per base latency, round and shard, and reuses the answer for
      every exchange over an edge of that latency.  A map that reads
      the edge's endpoints [(u, v)] is a [By_edge] map, asked once per
      exchange.

    A [None] hook costs the round one branch, and a run without
    [?env] makes no environment call at all.  Hooks and an [Alive_at]
    plan must be pure (deterministic functions of their arguments):
    under [?domains > 1] the engine may evaluate them from any domain,
    and bit-identical parity across shard counts relies on it — as
    does the [By_class] memo, which calls a map fewer times than there
    are exchanges. *)
type latency =
  | By_class of (latency:int -> round:int -> int)
  | By_edge of (u:int -> v:int -> latency:int -> round:int -> int)

type env = {
  presence : Presence.t;
  drop : (initiator:int -> responder:int -> round:int -> bool) option;
  latency : latency option;
}

(** The environment is the wheel's one fault channel.  [env_of_faults
    f] embeds a static fault plan as the trivial environment: presence
    is [Alive_at f.alive], asked once per node per round, [drop] is
    [f.drop], and the latency map is [f.jitter] as a [By_edge] map,
    asked once per exchange: a plan's jitter may draw from a shared
    stream on every call ({!Gossip_core.Robustness.jitter_up_to}), and
    a [By_class] map would be asked fewer times.  Experiment plans ({!Gossip_core.Robustness}-style
    crash/drop/jitter closures) thus run on either engine; a plan that
    jitters latencies by up to [j] needs [~wheel_latency:(ℓ_max + j)]. *)
val env_of_faults : Gossip_sim.Engine.faults -> env

(** The queries behind the round's checks, with the reference
    semantics ({!Presence.alive}, {!Presence.present_since}) — for
    tests and for scenario probes.  [latency] is the engine's
    effective latency: the map's value clamped to [>= 1], or the
    static latency without a map. *)
val alive : env -> node:int -> round:int -> bool

val present_since : env -> node:int -> since:int -> round:int -> bool

val latency : env -> u:int -> v:int -> latency:int -> round:int -> int

(** Counters are the reference engine's record, so downstream
    aggregation code needs no conversion. *)
type metrics = Gossip_sim.Engine.metrics

(** Raised by {!step} and {!broadcast_kernel} when the environment stretches a
    latency past the wheel bound mid-run.  A typed exception (with a registered
    printer) rather than [Invalid_argument] so a sweep runtime can
    record the run as a failed outcome instead of crashing. *)
exception Jitter_overflow of { latency : int; bound : int; round : int }

(** Raised by {!broadcast_kernel} between rounds once the wall-clock
    [deadline] has passed. *)
exception Deadline_exceeded of { round : int; elapsed_s : float }

(** Raised when a shard would hold more than [?pool_capacity] live
    exchanges.  [used] is the number of live exchanges at the failure;
    [round] the round being executed.  Typed
    (with a registered printer) so {!Sweep.run_ft} checkpoints the job
    as a structured failure instead of an opaque [Failure _]. *)
exception Pool_exhausted of { used : int; round : int }

(** The asserted ceiling for the ["wheel.minor_words_per_round"]
    gauge, on runs without an environment and on runs under one
    compiled by [Gossip_dyn.Scenario.compile] (schedules, churn,
    adversary): neither the round loop nor the scenario's latency
    hook allocates per round, and the amortized leftovers (block growth,
    history doubling) stay far below this once a run spans more than a
    handful of rounds.  An environment of hand-written hooks is only
    as allocation-free as its hooks.  Exported so the tests
    and bench e18 assert the same number. *)
val minor_words_budget : int

(** Entries per exchange block: the unit in which a shard's exchange
    storage is carved into slot chains, reused and grown.  A constant,
    exported so tests can size runs whose slots span several blocks. *)
val block_size : int

(** [gauge_of_minor_words ~total ~rounds] is the per-round
    minor-allocation gauge: [total /. rounds] rounded to {e nearest}
    ([Float.round], not [int_of_float] truncation — the bug class PR 3
    fixed in [busy_us] and PR 8 in [crash_fraction]).  Exposed so the
    rounding behavior itself is testable. *)
val gauge_of_minor_words : total:float -> rounds:int -> int

(** A run stepped one round at a time on one shard: the same stages
    and merge {!broadcast_kernel} runs, for callers that must stop at
    an exact round (past completion, say) rather than at completion or
    a round budget. *)
type t

(** [create_kernel ?env ?wheel_latency ?telemetry ?pool_capacity
    ?informed rng csr ~kernel ~source] builds a run of [kernel] with
    the source already informed.  The kernel's contact structure must
    span exactly [Csr.n csr] nodes and its latencies must fit the
    wheel; both are validated here.  [wheel_latency] sizes the timing
    wheel (default: [Csr.max_latency csr]); it must be at least the
    graph's ℓ_max — a smaller one fails fast here — and an upper bound
    on every latency [env] stretches to, or the run raises
    {!Jitter_overflow} when one overruns it.

    [pool_capacity] bounds the live exchanges: a run that would hold
    more concurrent exchanges fails fast with {!Pool_exhausted}.
    Default: no bound but memory — the exchange blocks grow on demand.
    Under [?domains > 1] the capacity applies to {e each} shard.

    [telemetry] attaches an observability registry: per round the
    engine observes delivery/initiation counts and the in-flight
    exchange population (= wheel-slot occupancy) into the
    ["wheel.round.deliveries"], ["wheel.round.initiations"] and
    ["wheel.inflight"] histograms, tracks the ["wheel.inflight.max"]
    gauge, and — when the registry carries a ring — records per-round
    [informed]/[deliveries]/[initiations]/[drops]/[queue] trace
    events.  Kernel-tagged traffic totals additionally accumulate into
    the ["wheel.kernel.<name>.deliveries"] /
    ["wheel.kernel.<name>.initiations"] counters, so a JSONL report
    shows which kernel produced a run's traffic, payload words
    accumulate into ["wheel.kernel.<name>.words_on_wire"], and the
    ["wheel.kernel.<name>.bits_budget"] gauge records the kernel's
    declared per-message bit budget ([32 * msg_words]) once at
    creation.  All handles are
    resolved at creation; a telemetry-off run pays one option match
    per round.  A full {!broadcast_kernel} run additionally sets the
    ["wheel.minor_words_per_round"] gauge — minor-heap words allocated
    per executed round on the orchestrating domain (ROADMAP item 3's
    allocation-free-round-loop enforcement hook).

    [env] is a time-indexed environment (see {!env}; default: none —
    every node alive, nothing dropped, static latencies, and no
    environment call in the round).

    [informed] seeds the initial informed set from a byte vector (any
    nonzero byte marks the node; the source is always added) — this is
    how {!Gossip_core.Eid}'s scale pipeline chains one kernel's final
    informed set into the next phase.  The bytes are copied, never
    shared.
    @raise Invalid_argument on a bad source, a wheel below [ℓ_max] or
    the kernel's contact latencies, an [informed] vector
    of the wrong length, a [pool_capacity] below 1, a malformed absence
    schedule, or a kernel contact mismatch. *)
val create_kernel :
  ?env:env ->
  ?wheel_latency:int ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?pool_capacity:int ->
  ?informed:Bytes.t ->
  Gossip_util.Rng.t ->
  Csr.t ->
  kernel:Kernel.t ->
  source:int ->
  t

val metrics : t -> metrics

val informed : t -> int -> bool

(** [step t] executes one round (deliveries, then initiations), also
    after every node is informed.
    @raise Jitter_overflow when a jittered latency exceeds the wheel
    bound.
    @raise Pool_exhausted when a shard exceeds [pool_capacity] live exchanges. *)
val step : t -> unit

(** Result of a full broadcast run, shaped like
    [Gossip_core.Push_pull.result]. *)
type result = {
  rounds : int option;  (** rounds until all informed, [None] if capped *)
  metrics : metrics;
  history : (int * int) list;
      (** (round, informed-count) at every change — the informed-set
          trajectory of Theorem 12's proof *)
  informed : Bytes.t;
      (** final completion set, one byte per node ([informed.(v) <> 0]
          iff [v] completed — heard the rumor for single-rumor
          kernels, holds all [k] rumors / reached rank [k] for the
          rumor-state kernels) — what the sharded-parity property
          compares beyond the trajectory.  This is the kernel's
          {!Rumor_store} byte array, shared, not copied. *)
}

(** [broadcast_kernel ?env ?wheel_latency ?deadline ?domains rng csr
    ~kernel ~source ~max_rounds] runs [kernel] until every node has
    completed or the round budget is spent; {!create_kernel} documents
    [kernel], [env], [wheel_latency], [telemetry], [pool_capacity] and
    [informed].  This is the entry point for every single-kernel run,
    RR Broadcast over a precomputed spanner included; a kernel chain
    runs its phases through {!phase} instead.

    [deadline] is an absolute wall-clock time ([Unix.gettimeofday]
    scale): it is checked cooperatively {e between} rounds — so it
    never perturbs RNG draws, delivery order, or trajectory parity —
    and once passed the run aborts with {!Deadline_exceeded}.

    [domains] (default 1) shards the run across that many OCaml
    domains: nodes are partitioned into contiguous shards
    ({!Shard.bounds}), each with its own exchange blocks, wheels,
    informed-byte slice and RNG streams; cross-shard traffic moves
    through per-[(src, dst)] mailboxes drained in fixed shard order at
    phase barriers.  The trajectory ([history]), [metrics], final
    informed set, and RNG consumption are bit-identical to [domains =
    1] for every (kernel, seed, environment) — {e provided the
    environment's hooks are pure} (deterministic functions of their
    arguments; the engine may evaluate them from any domain).  With
    [domains > 1] and [?telemetry], the registry additionally gains a
    ["wheel.shards"] gauge and the
    ["wheel.shard.remote.initiations"] /
    ["wheel.shard.remote.responses"] counters (cross-shard mailbox
    traffic, summed over the shards at the end of the run).
    [domains] is clamped to the node count; 1 runs the same round as a
    single shard on the calling domain.

    [on_round] is a per-round observer with the deadline's guarantees:
    it fires strictly {e between} rounds (after round [round]'s
    deliveries and initiations are committed, with the informed count
    at that instant) on the orchestrating domain, so it can never
    perturb RNG draws, delivery order, or trajectory parity.  An
    exception it raises aborts the run and propagates — the
    cooperative-cancellation hook the serve daemon's progress
    streaming and job cancellation are built on.
    @raise Deadline_exceeded once [deadline] has passed.
    @raise Jitter_overflow when a stretched latency overruns the
    wheel mid-run.
    @raise Pool_exhausted when a shard exceeds [pool_capacity] live exchanges. *)
val broadcast_kernel :
  ?env:env ->
  ?wheel_latency:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?pool_capacity:int ->
  ?informed:Bytes.t ->
  ?domains:int ->
  Gossip_util.Rng.t ->
  Csr.t ->
  kernel:Kernel.t ->
  source:int ->
  max_rounds:int ->
  result

(** {1 Kernel chains}

    Theorem 20's unknown-latency route is one execution made of phases
    (discovery, the [T(k)] schedule, RR Broadcast, the Termination
    Check), each an engine run of its own kernel, often on a graph of
    its own.  A session is that execution: the chain opens it once with
    the run options and runs every engine run through {!phase}.

    - {b One clock.}  A phase starting at session round [c] sees the
      environment from there: its absences are shifted by [c]
      ({!Presence.rebase}: those over before [c] are dropped, a rejoin
      at [c] lands on the phase's round 0), and its hooks read
      [round + c].  At [c = 0], or without an environment, the
      environment passes through untouched.  [on_round] sees [c + round], so rounds run 1, 2, …,
      {!session_rounds} over the chain.  In-flight exchanges end with
      their phase.
    - {b One wheel rule.}  Without [wheel_latency] a phase's wheel is
      its graph's ℓ_max.  A pinned [w] belongs to the input graph's
      ℓ_max [L]: a phase graph [g] with a larger ℓ_max — a discovered
      graph, measured under the environment's stretch — gets
      [⌈w · ℓ_max(g) / L⌉], which covers additive jitter ([w = L + j])
      and multiplicative drift ([w = L·F + B]) alike.  A scaled bound
      past the int32 range raises {!I32.Overflow}.
    - {b One ledger.}  Each finished phase adds its metrics to
      {!session_metrics}, whose [rounds] is the clock; a phase that
      raises adds nothing. *)

type session

(** [session ?env ?wheel_latency ?deadline ?on_round ?telemetry
    ?domains csr] opens a chain at round 0 over the input graph [csr];
    the options mean what they mean for {!broadcast_kernel}. *)
val session :
  ?env:env ->
  ?wheel_latency:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?domains:int ->
  Csr.t ->
  session

(** [phase s ?informed rng g ~kernel ~source ~max_rounds] is
    {!broadcast_kernel} of [kernel] on [g] as the session's next phase;
    [informed] carries the previous phase's informed set. *)
val phase :
  session ->
  ?informed:Bytes.t ->
  Gossip_util.Rng.t ->
  Csr.t ->
  kernel:Kernel.t ->
  source:int ->
  max_rounds:int ->
  result

(** Rounds the session's phases have executed. *)
val session_rounds : session -> int

(** Metrics summed over the session's phases (the live ledger). *)
val session_metrics : session -> metrics
