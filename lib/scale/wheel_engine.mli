(** Flat-array gossip simulator for million-node graphs.

    {!Gossip_sim.Engine} is polymorphic in the payload and dispatches
    through per-node handler closures and a binary heap of boxed
    events — the right tool for the paper's gadgets, but at 10^6 nodes
    the allocation and pointer traffic dominate.  [Wheel_engine]
    specializes the hot broadcast protocols and keeps {e all} state
    flat:

    - the informed set is a byte array;
    - in-flight exchanges live in a pooled structure of parallel
      {b int32} columns ({!I32.t} Bigarrays — 4 bytes per field, off
      the OCaml heap), threaded into singly-linked lists; node ids and
      latencies fit by the {!Csr} range contract, and due rounds are
      guarded per round (a run raises {!I32.Overflow} rather than
      wrapping a due date);
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
    pool and wheels; cross-shard traffic moves through mailboxes
    drained at two barriers per round, the second of which runs a
    serial merge.  A run on one domain is the one-shard case: every
    exchange is local, the mailboxes stay empty, and the merge runs
    inline.

    The protocol itself is a {!Kernel.t}: a directed contact structure
    plus the [on_initiate] / [on_deliver] / [on_response] hooks the
    round phases call (see {!Kernel} for the hook contract and why the
    RNG-stream discipline is part of it).  The engine owns everything
    else — pool, wheels, environment, deadline, RNG streams, telemetry,
    shard mailboxes.  A kernel chain runs its phases in one
    {!session}. *)

(** The serializable protocol descriptors ({!Kernel.protocol},
    re-exported).  The classic descriptors spread one rumor from a
    source; the rumor-state descriptors ([K_rumor], [Rumor_rotation],
    [Algebraic]) run k-rumor all-to-all dissemination under a bounded
    per-message word budget.  They differ in who initiates, toward
    whom, over which contact structure, and in what a message
    carries. *)
type protocol = Kernel.protocol =
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
      (** RR Broadcast over a Baswana–Sen oriented spanner ([stretch_k
          = 0] means [⌈log₂ n⌉]).  Needs a precomputed spanner, so
          {!broadcast} rejects it — build the kernel with
          {!Kernel.rr_broadcast} and run {!broadcast_kernel}. *)
  | Dtg_local of { ell : int }
      (** deterministic local broadcast over the latency-[<= ell]
          subgraph ([ell = 0] means [ℓ_max], i.e. flooding) *)
  | Unknown_eid
      (** the unknown-latency EID chain (Theorem 20's spanner branch).
          A kernel chain, so {!broadcast} rejects it — run
          [Gossip_core.Eid.run_unknown_scale]. *)
  | Unified
      (** Theorem 20's unified algorithm: push-pull raced against the
          unknown-latency chain.  A kernel chain — run
          [Gossip_core.Dissemination.broadcast_scale]. *)
  | K_rumor of { k : int; budget : int }
      (** [k]-rumor all-to-all push-pull: node [j < k] starts with
          rumor [j]; each exchange carries at most [budget] rumor ids
          (a rotating subset of what the initiator holds); completion
          = holding all [k].  [k = 0] means [min n 16]; [budget = 0]
          means 4 words. *)
  | Rumor_rotation of { k : int; budget : int }
      (** small-message dissemination: nodes rotate a [budget]-wide
          window deterministically over their [k]-rumor state and
          contact a uniform random neighbor each round (Dufoulon-style
          rumor rotation). *)
  | Algebraic of { k : int; budget : int }
      (** algebraic gossip (Avin et al.): messages are random GF(2)
          linear combinations of held coded rows; completion = rank
          [k].  [budget = 0] means exactly the [⌈k/30⌉] coefficient
          words a combination needs; an explicit budget below that is
          rejected. *)

val protocol_name : protocol -> string

(** [protocol_of_string s] inverts {!protocol_name} (single parser
    shared by the CLI and the sweep checkpoints). *)
val protocol_of_string : string -> protocol option

(** Canonical protocol names for help strings. *)
val known_protocols : string list

(** The reference engine's static fault plan, so experiment plans
    ({!Gossip_core.Robustness}-style crash/drop/jitter closures) run on
    either engine; the wheel takes them through {!env_of_faults}. *)
type faults = Gossip_sim.Engine.faults

val no_faults : faults

(** A time-indexed network environment — the generalization of
    {!faults} that dynamic scenarios ([lib/dyn]) compile into.  Where a
    fault plan sees only [(node, round)] or [(latency, round)], an
    environment additionally sees {e edge identity} ([u], [v]) for
    latency rewriting and {e presence intervals} for churn:

    - [env_alive ~node ~round]: may [node] act (initiate, respond,
      be counted live) at [round]?
    - [env_present_since ~node ~since ~round]: has [node] been
      continuously present from round [since] through [round]?  An
      in-flight exchange initiated at [since] is delivered to [node]
      only if this holds — a node that left and rejoined mid-flight
      missed the message (its incarnation changed).  For static plans
      this degenerates to [env_alive ~node ~round].
    - [env_drop ~initiator ~responder ~round]: suppress the initiation.
    - [env_latency ~u ~v ~latency ~round]: the effective latency of
      edge [(u, v)] (static latency [latency]) for an exchange
      initiated at [round].  Clamped to [>= 1] by the engine; must stay
      within the wheel bound or {!Jitter_overflow} is raised.
    - [env_rejoins]: the churn schedule, [(round, node)] pairs in
      strictly ascending order: [node] rejoins (with amnesia) at the
      start of [round] — the engine clears its informed bit before any
      deliveries, so completion still means "everyone currently
      informed".  Each round visits only its own entries, so static
      environments ([[||]]) pay nothing.  A schedule out of order or
      naming a node outside the graph is refused with
      [Invalid_argument] before the run starts.

    All closures must be pure (deterministic functions of their
    arguments): under [?domains > 1] the engine may evaluate them from
    any domain, and bit-identical parity across shard counts relies on
    it. *)
type env = {
  env_alive : node:int -> round:int -> bool;
  env_present_since : node:int -> since:int -> round:int -> bool;
  env_drop : initiator:int -> responder:int -> round:int -> bool;
  env_latency : u:int -> v:int -> latency:int -> round:int -> int;
  env_rejoins : (int * int) array;
}

(** The environment is the wheel's one fault channel.  [env_of_faults
    f] embeds a static fault plan as the trivial environment
    ([env_present_since] ignores [since]; no rejoins); a plan that
    jitters latencies by up to [j] needs [~wheel_latency:(ℓ_max + j)]. *)
val env_of_faults : faults -> env

(** Counters are the reference engine's record, so downstream
    aggregation code needs no conversion. *)
type metrics = Gossip_sim.Engine.metrics

(** Raised by {!step} and {!broadcast} when the environment stretches a
    latency past the wheel bound mid-run.  A typed exception (with a registered
    printer) rather than [Invalid_argument] so a sweep runtime can
    record the run as a failed outcome instead of crashing. *)
exception Jitter_overflow of { latency : int; bound : int; round : int }

(** Raised by {!broadcast} between rounds once the wall-clock
    [deadline] has passed. *)
exception Deadline_exceeded of { round : int; elapsed_s : float }

(** Raised when the exchange pool cannot grow past [?pool_capacity]
    (or [Sys.max_array_length]).  [used] is the number of live pool
    slots at the failure; [round] the round being executed.  Typed
    (with a registered printer) so {!Sweep.run_ft} checkpoints the job
    as a structured failure instead of an opaque [Failure _]. *)
exception Pool_exhausted of { used : int; round : int }

(** The asserted ceiling for the ["wheel.minor_words_per_round"] gauge
    on static (fault-free closure-free) runs: the round loop allocates
    nothing per round, and the amortized leftovers (pool growth,
    history doubling) stay far below this once a run spans more than a
    handful of rounds.  Exported so the tests and bench e18 assert the
    same number. *)
val minor_words_budget : int

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

    [pool_capacity] bounds the exchange pool: it is both the initial
    size hint and a hard growth ceiling, so a run that would hold more
    concurrent exchanges fails fast with {!Pool_exhausted} instead of
    doubling toward the hard ceiling
    [min Sys.max_array_length I32.max_value] (pool indices live in
    int32 cells, so the ceiling is clamped to the int32 range; an
    explicit capacity above it is clamped too).  Default: unbounded up
    to that ceiling.  Under [?domains > 1] the capacity applies to
    {e each} shard's pool.

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
    per round.  A full {!broadcast} run additionally sets the
    ["wheel.minor_words_per_round"] gauge — minor-heap words allocated
    per executed round on the orchestrating domain (ROADMAP item 3's
    allocation-free-round-loop enforcement hook).

    [env] is a time-indexed environment (see {!env}; default: every
    node alive, nothing dropped, static latencies).

    [informed] seeds the initial informed set from a byte vector (any
    nonzero byte marks the node; the source is always added) — this is
    how {!Gossip_core.Eid}'s scale pipeline chains one kernel's final
    informed set into the next phase.  The bytes are copied, never
    shared.
    @raise Invalid_argument on a bad source, a wheel below [ℓ_max] or
    the kernel's contact latencies, an [informed] vector
    of the wrong length, a [pool_capacity] below 1, a malformed rejoin
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

val informed_count : t -> int

(** [step t] executes one round (deliveries, then initiations), also
    after every node is informed.
    @raise Jitter_overflow when a jittered latency exceeds the wheel
    bound.
    @raise Pool_exhausted when the pool hits [pool_capacity]. *)
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

(** [broadcast ?env ?wheel_latency ?deadline ?domains rng csr
    ~protocol ~source ~max_rounds] runs until every node is
    informed or the round budget is spent.  [deadline] is an absolute
    wall-clock time ([Unix.gettimeofday] scale): it is checked
    cooperatively {e between} rounds — so it never perturbs RNG draws,
    delivery order, or trajectory parity — and once passed the run
    aborts with {!Deadline_exceeded}.

    [domains] (default 1) shards the run across that many OCaml
    domains: nodes are partitioned into contiguous shards
    ({!Shard.bounds}), each with its own exchange pool, wheels,
    informed-byte slice and RNG streams; cross-shard traffic moves
    through per-[(src, dst)] mailboxes drained in fixed shard order at
    phase barriers.  The trajectory ([history]), [metrics], final
    informed set, and RNG consumption are bit-identical to [domains =
    1] for every (protocol, seed, environment) — {e provided the
    environment's closures are pure} (deterministic functions of their
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
    @raise Pool_exhausted when the pool hits [pool_capacity]. *)
val broadcast :
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
  protocol:protocol ->
  source:int ->
  max_rounds:int ->
  result

(** [broadcast_kernel rng csr ~kernel ~source ~max_rounds] is
    {!broadcast} for an explicit kernel (see {!create_kernel}) — the
    only way to run protocols whose contact structure the engine
    cannot derive from [csr] alone; sharding, determinism guarantees,
    and exceptions are identical.  This is the entry point for RR
    Broadcast over a precomputed spanner; a kernel chain runs its
    phases through {!phase} instead. *)
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
      environment from there: its closures read [round + c] (and
      [since + c]), and the rejoin schedule keeps the entries at or
      after [c], rebased to the phase's round 0.  At [c = 0], or
      without an environment, the environment passes through
      untouched.  [on_round] sees [c + round], so rounds run 1, 2, …,
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
    the options mean what they mean for {!broadcast}. *)
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
