(** Protocol kernels for the flat timing-wheel engine.

    {!Wheel_engine} owns everything a gossip run needs except the
    protocol itself: the exchange pool, the arrival/response wheels,
    the fault plan, the deadline, per-node RNG streams, the telemetry
    handles, and (when sharded) the cross-domain mailboxes.  A
    {e kernel} supplies the protocol: a directed contact structure, a
    per-message payload budget, a completion store, and five hooks the
    engine calls at fixed points of its round.

    {2 Rumor-state layer}

    The kernel — not the engine — owns all rumor state.  Each kernel
    carries a {!Rumor_store.t} ([store]): one completed byte per node
    plus a count, which is all the engine reads (seeding, termination,
    [result.informed]).  What "completed" means is the kernel's choice:
    the classic single-rumor kernels use the store's default semantics
    (seeded = informed), the k-rumor family completes a node when it
    holds all [k] rumors, the algebraic kernel when its GF(2) basis
    reaches rank [k].

    Payloads are bounded word vectors, not single ints: a kernel
    declares [msg_words] (its per-message budget B, in int32 words — 32
    [msg_words] bits on the wire per message) and the engine hands
    every payload hook a word buffer [buf] plus the message's base
    offset [off]; the hook owns words [off .. off + msg_words - 1],
    which arrive zeroed on the emitting side.  Classic kernels are the
    [msg_words = 1] special case and write at most word [off].

    {2 Hook contract}

    The engine's round has four phases (1a/1b/1c/2, see
    {!Wheel_engine}); the kernel is consulted at all of them:

    - [on_initiate ~rngs ~round ~u ~deg ~informed] — phase 2, called
      once per alive node in ascending node order.  Returns a slot
      index into [u]'s contact row ([0 <= slot < deg]) or [-1] for no
      initiation this round.  This is the only hook that may consume
      randomness ([rngs.(u)]) or advance per-node kernel state whose
      update order matters, and the {b order and count of those effects
      are part of the kernel's observable API}: per-node RNG streams
      are split in node order at engine creation, and trajectory parity
      across shard counts, with the reference engine, and between
      engine generations holds only because every kernel draws from
      [rngs.(u)] under exactly the same conditions in all of them.  The
      request payload is written by [req_pay ~u ~informed ~buf ~off],
      evaluated with [u]'s informed (completed) bit as of phase 2
      (after this round's deliveries); it must be a pure emission —
      read kernel state, write payload words, mutate nothing.
    - [on_deliver ~v ~informed ~buf ~off] — phase 1a, writes the
      response payload from the responder [v]'s {e round-start} state,
      before any of this round's push merges.  Also emission-pure.
    - [on_push ~v ~buf ~off] — phase 1b, absorbs the request payload
      into the responder [v]'s state and returns whether [v] is now
      completed (the engine then marks the store; the classic kernels
      return [pay = 1], state-carrying kernels merge and return their
      completion predicate).  The payload words are the kernel's to
      consume — they may be mutated in place (the engine retires them
      after the hook), which is how the algebraic kernel reduces
      incoming vectors without scratch allocation.
    - [on_response ~u ~slot ~rtt ~buf ~off] — phase 1c, absorbs the
      returning payload into the initiator [u], same contract as
      [on_push].  [slot] is the contact-row index [on_initiate]
      returned (the peer is [contact.o_col.(o_row_ptr.(u) + slot)]),
      and [rtt] is the exchange's measured round-trip time — its
      {e effective} latency under the run's fault plan and
      environment, which is how the discovery kernel learns the
      latency profile without any side channel.

    {2 Shard parity}

    Hooks other than [on_initiate] may mutate kernel state only in
    ways that are order-independent within a phase: idempotent
    monotone marks (boolean ORs into byte arrays), writes to
    per-(node, slot) cells that each receive at most one write per
    run, or merges whose end-of-phase state is insertion-order
    invariant (the algebraic kernel's canonical-RREF basis).  Every
    cell a hook touches must belong to the node the engine passed it
    ([u]/[v]) — the same owner-only discipline that protects the
    store's completed bytes — so a run stays bit-identical whatever
    its shard count.

    {2 State layout}

    Kernels keep per-node state (round-robin cursors, rumor bitsets,
    GF(2) bases, discovered latencies, vote bits) in flat arrays
    captured by the hook closures.  A kernel instance is mutable and
    single-run: build a fresh kernel per broadcast.  Under domain
    sharding the one instance is shared by all shards, which is safe
    because the engine only calls each hook for nodes the calling
    shard owns. *)

(** {1 Protocol descriptors}

    The serializable names for the kernels the stack knows how to
    build; {!Wheel_engine} re-exports this type, and the sweep
    checkpoints and the CLI's [--protocol]/[--algorithm] options parse
    it through the single {!protocol_of_string} below.  A parameter of
    [0] means "choose automatically at build time" ([⌈log₂ n⌉] for the
    spanner parameter, the graph's [ℓ_max] for the DTG threshold,
    [min n 16] rumors / a 4-word budget for the k-rumor family). *)

type protocol =
  | Push_pull  (** uniform random neighbor, every node, every round *)
  | Flood  (** informed nodes cycle neighbors round-robin *)
  | Random_contact  (** informed nodes contact a uniform neighbor *)
  | Rr_spanner of { stretch_k : int }
      (** RR Broadcast over a Baswana–Sen oriented spanner built with
          parameter [stretch_k] (0 = [⌈log₂ n⌉]) *)
  | Dtg_local of { ell : int }
      (** deterministic local broadcast over the latency-[<= ell]
          subgraph (0 = [ℓ_max], i.e. flooding) *)
  | Unknown_eid
      (** the unknown-latency EID chain (Theorem 20's spanner branch):
          guess-and-double latency discovery → T(k) DTG schedule →
          spanner on the discovered profile → RR Broadcast →
          termination check, retrying while the vote is failed or
          non-unanimous.  A kernel chain, so {!of_protocol} rejects it
          — run [Gossip_core.Eid.run_unknown_scale]. *)
  | Unified
      (** Theorem 20's unified algorithm: push-pull and the
          unknown-latency EID chain raced, min taken.  A kernel chain
          — run [Gossip_core.Dissemination.broadcast_scale]. *)
  | K_rumor of { k : int; budget : int }
      (** k rumors seeded one per node (all-to-all when [k = n]),
          push-pull contact schedule, each message a random rumor
          subset of at most [budget] words (0 = auto for either
          field) *)
  | Rumor_rotation of { k : int; budget : int }
      (** same seeding, random contact, Dufoulon-style deterministic
          rumor rotation: the emission window slides [budget] positions
          per round *)
  | Algebraic of { k : int; budget : int }
      (** Avin et al. algebraic gossip: random GF(2) combinations of
          the decoded span, 30 coefficient bits per word; completion =
          rank [k].  [budget] must be at least [⌈k/30⌉] words (0 =
          exactly that). *)

val protocol_name : protocol -> string

(** [protocol_of_string s] inverts {!protocol_name}; also accepts the
    parameterless forms ["rr-spanner"] / ["dtg"] / ["k-rumor"] …
    (auto parameters) and the one-parameter k-rumor forms
    (["k-rumor:K"], auto budget). *)
val protocol_of_string : string -> protocol option

(** Canonical names for help strings: ["push-pull"; "flood";
    "random-contact"; "rr-spanner[:K]"; "dtg[:L]"; "unknown-eid";
    "unified"; "k-rumor[:K[:B]]"; "rotation[:K[:B]]";
    "algebraic[:K[:B]]"]. *)
val known_protocols : string list

(** {1 Kernels} *)

type t = {
  name : string;  (** tag for telemetry counters and display *)
  contact : Csr.oriented;  (** directed contact rows [on_initiate] indexes *)
  uses_rng : bool;  (** engine must split per-node RNG streams *)
  msg_words : int;  (** per-message payload budget B, in int32 words *)
  store : Rumor_store.t;  (** kernel-owned completion state *)
  on_initiate : rngs:Gossip_util.Rng.t array -> round:int -> u:int -> deg:int -> informed:bool -> int;
  req_pay : u:int -> informed:bool -> buf:I32.t -> off:int -> unit;
  on_deliver : v:int -> informed:bool -> buf:I32.t -> off:int -> unit;
  on_push : v:int -> buf:I32.t -> off:int -> bool;
  on_response : u:int -> slot:int -> rtt:int -> buf:I32.t -> off:int -> bool;
}

val name : t -> string

val contact : t -> Csr.oriented

val store : t -> Rumor_store.t

(** [completed t v] / [completed_count t] — the kernel's completion
    predicate, delegated to its store.  After a broadcast these are
    the per-node outcome ("holds the rumor" / "holds all k" / "rank
    k") and how many nodes reached it. *)
val completed : t -> int -> bool

val completed_count : t -> int

(** The classic three, bit-identical in trajectory, metrics, and RNG
    consumption to the closed-variant engine they replace. *)

val push_pull : Csr.t -> t

val flood : Csr.t -> t

val random_contact : Csr.t -> t

(** [rr_broadcast ?iterations ~k oriented] is RR Broadcast (Algorithm
    2 / Lemma 15) over a precomputed orientation: every node cycles a
    cursor through its out-edges of latency [<= k] (row order
    preserved — see {!Csr.oriented_filter_le}), initiating every round
    while [round < iterations].  [iterations] defaults to unbounded
    (run-to-completion broadcast); pass the lemma's [k·Δ_out + k] to
    reproduce {!Gossip_core.Rr_broadcast}'s finite window, e.g. for
    trajectory-parity tests.  Exchanges are bidirectional, so rumors
    flow against the orientation too. *)
val rr_broadcast : ?iterations:int -> k:int -> Csr.oriented -> t

(** [dtg_local ~ell csr] is the k-DTG local-broadcast kernel: informed
    nodes cycle round-robin through their neighbors of latency
    [<= ell] — deterministic single-rumor local broadcast over [G_ℓ]
    (the scale-runtime simplification of {!Gossip_core.Dtg}'s
    session-based phases; with [ell >= ℓ_max] it coincides exactly
    with {!flood}). *)
val dtg_local : ell:int -> Csr.t -> t

(** {1 The k-rumor family}

    ROADMAP item 2's workload: [k] rumors seeded rumor [j] at node [j]
    (all-to-all when [k = n]), per-node rumor state owned by the
    kernel, completion = "holds all k" / "rank k".  Boxed reference
    twins live in {!Gossip_core.Rumor} for trajectory-parity tests.

    Wire accounting: each kernel reports under
    [wheel.kernel.<name>.words_on_wire] (payload words delivered) and
    [wheel.kernel.<name>.bits_budget] (the declared per-message bit
    budget, [32 * msg_words]). *)

(** Handle over the subset kernels' rumor state, for tests and
    debugging: [rum_holds ~v ~r] is whether node [v] currently holds
    rumor [r], [rum_count ~v] how many of the [k] it holds. *)
type rumor = { rum_kernel : t; rum_holds : v:int -> r:int -> bool; rum_count : v:int -> int }

(** [k_rumor_push_pull ~k ~budget csr]: push-pull contact schedule
    (uniform random neighbor every round); each message carries up to
    [budget] held rumor ids, chosen by a cyclic scan from a uniformly
    redrawn per-round start position — a random subset within budget.
    @raise Invalid_argument unless [1 <= k <= n] and [budget >= 1]. *)
val k_rumor_push_pull : k:int -> budget:int -> Csr.t -> rumor

(** [rumor_rotation ~k ~budget csr]: Dufoulon et al. small-message
    regime — each node's emission window of [budget] rumor positions
    rotates deterministically by [budget] per round, so every held
    rumor hits the wire within [⌈k/budget⌉] rounds, while the contact
    is a uniform random neighbor (a deterministic neighbor cursor
    would alias with the rotation period and can freeze a rumor onto a
    disconnected neighbor subgraph). *)
val rumor_rotation : k:int -> budget:int -> Csr.t -> rumor

(** Handle over the algebraic kernel's per-node GF(2) state:
    [alg_rank ~v] is node [v]'s decoded rank, [alg_rows ~v] its
    canonical-RREF basis rows (each row [⌈k/30⌉] words of 30
    coefficient bits, ascending pivot order) — insertion-order
    invariant, which is what the twin-parity tests check. *)
type algebraic = { alg_kernel : t; alg_rank : v:int -> int; alg_rows : v:int -> int array array }

(** [algebraic ~k ~budget csr]: algebraic gossip (Avin et al.) —
    messages are uniform random GF(2) linear combinations of the
    sender's decoded span, completion is rank [k].
    @raise Invalid_argument unless [1 <= k <= n] and
    [budget >= ⌈k/30⌉]. *)
val algebraic : k:int -> budget:int -> Csr.t -> algebraic

(** {1 Unknown-latency kernels}

    The building blocks of the Theorem 20 chain.  Both are inert with
    respect to the engine's rumor machinery (payload 0 / return
    [false]): their results live in the arrays below, which the
    drivers in [Gossip_core.Discovery] / [Gossip_core.Termination_check]
    read back after the run. *)

(** The discovery kernel's handle: [disc_lat] is parallel to the
    contact structure's [o_col] — [disc_lat.(o_row_ptr.(u) + i)] is
    the measured round-trip latency of [u]'s [i]-th out-edge, or [-1]
    while undiscovered (probe still in flight, lost to a fault, or
    measured above [disc_d_bound]). *)
type discovery = { disc_kernel : t; disc_lat : int array; disc_d_bound : int }

(** [discovery ~d_bound csr] probes every contact edge once, one
    neighbor per round per node (cursor order), recording each
    response's measured round-trip time when it is [<= d_bound].  The
    schedule needs [Δ + d_bound] rounds to settle
    ({!Gossip_core.Discovery.probe_rounds}); run it through
    [Gossip_core.Discovery.probe_scale]. *)
val discovery : d_bound:int -> Csr.t -> discovery

(** The check kernel's handle: after the gather pass, [check_flag]
    marks nodes that saw (or heard of) an uninformed node, and
    [check_mismatch] marks nodes whose frozen informed bit disagreed
    with a received one. *)
type check = { check_kernel : t; check_flag : Bytes.t; check_mismatch : Bytes.t }

(** [termination_check ~iterations ~informed oriented] is pass 1 of
    the Section 5.3 vote, single-rumor form: the informed set is
    frozen at construction, every node floods (frozen, flag, mismatch)
    bit-packed payloads round-robin over [oriented] for [iterations]
    rounds, and absorbs received payloads by boolean OR.  A node
    starts flagged iff it is uninformed, so a unanimously clean
    verdict is exactly "everyone heard the rumor".  Run through
    [Gossip_core.Termination_check.run_scale], which adds the verdict
    pass. *)
val termination_check : iterations:int -> informed:Bytes.t -> Csr.oriented -> check

(** [verdict_flood ~iterations ~failed oriented] is pass 2: the
    per-node failed bits spread by OR under the same round-robin
    schedule, mutating [failed] in place. *)
val verdict_flood : iterations:int -> failed:Bytes.t -> Csr.oriented -> t

(** [of_protocol csr p] builds the kernel a descriptor denotes, on
    [csr]'s contact rows.  Raises [Invalid_argument] for
    [Rr_spanner _] (needs a precomputed oriented spanner the caller
    must supply through {!rr_broadcast} +
    {!Wheel_engine.broadcast_kernel}) and for [Unknown_eid] /
    [Unified] (kernel chains driven by [Gossip_core.Eid.run_unknown_scale]
    / [Gossip_core.Dissemination.broadcast_scale]). *)
val of_protocol : Csr.t -> protocol -> t
