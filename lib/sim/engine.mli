(** Synchronous gossip simulator with edge latencies.

    This implements the communication model of Section 1 of the paper:

    - time proceeds in synchronous rounds;
    - in each round every node may initiate {e one} exchange with a
      neighbor of its choice: it sends a message and automatically
      receives a response;
    - an exchange over an edge of latency [ℓ] completes [ℓ] rounds
      after initiation (the round trip takes time [ℓ]); the request
      reaches the responder after [⌈ℓ/2⌉] rounds and the response —
      computed from the responder's state at that moment — returns at
      [ℓ];
    - initiations are non-blocking: a node may initiate again in the
      next round even while earlier exchanges are in flight;
    - responses are automatic: the responder's [on_request] callback
      runs regardless of what its own protocol is doing.

    The engine is polymorphic in the payload type ['p] so protocols can
    exchange bitsets, rumor records, or structured neighborhood data.

    Determinism: within a round, deliveries are processed in event-queue
    order and initiations in ascending node order; all protocol
    randomness comes from RNG state owned by the protocol. *)

type node = Gossip_graph.Graph.node

(** Per-node behavior.  All three callbacks may share mutable protocol
    state through their closures. *)
type 'p handlers = {
  on_round : round:int -> (node * 'p) option;
      (** Called once per node per round, after deliveries.  Returning
          [Some (peer, payload)] initiates an exchange with [peer]
          (which must be a neighbor). *)
  on_request : peer:node -> round:int -> 'p -> 'p;
      (** Called at the responder when a request arrives; returns the
          response payload.  MUST NOT mutate protocol state: the engine
          computes {e all} of a round's responses before applying any of
          that round's merges, so that information cannot chain through
          several same-round deliveries (the classical synchronous
          rule: a response reflects the responder's state as of the
          start of the round). *)
  on_push : peer:node -> round:int -> 'p -> unit;
      (** Called at the responder after response generation, to fold
          the incoming request payload into local state — the "push"
          half of push-pull. *)
  on_response : peer:node -> round:int -> 'p -> unit;
      (** Called at the initiator when the response returns ([ℓ] rounds
          after initiation) — the "pull" half. *)
}

(** Failure injection (the robustness directions of Section 7).  All
    three predicates must be deterministic functions of their arguments
    (own an RNG in the closure if randomness is wanted) so runs stay
    reproducible. *)
type faults = {
  alive : node:node -> round:int -> bool;
      (** A node that is not alive initiates nothing, answers nothing,
          and receives nothing; exchanges touching it are lost.
          Crash-stop is [fun ~node ~round -> round < crash_time node]. *)
  drop : initiator:node -> responder:node -> round:int -> bool;
      (** Sampled once per exchange at initiation time; [true] loses
          the whole exchange (request and response). *)
  jitter : latency:int -> round:int -> int;
      (** Effective latency of an exchange (clamped to [>= 1]);
          identity for the paper's fixed-latency model. *)
}

(** The fault-free environment. *)
val no_faults : faults

(** Aggregate counters over a run. *)
type metrics = {
  mutable rounds : int;  (** rounds executed so far *)
  mutable initiations : int;  (** exchanges started *)
  mutable deliveries : int;  (** request + response messages delivered *)
  mutable payload_words : int;
      (** total delivered payload, in [payload_size] units — the
          message-size accounting of Section 6 *)
  mutable rejected : int;  (** requests refused by [in_capacity] *)
  mutable dropped : int;  (** messages lost to faults *)
}

(** [empty_metrics ()] is a fresh all-zero record — the accumulator
    seed for multi-phase drivers that sum per-phase engine metrics. *)
val empty_metrics : unit -> metrics

(** [add_metrics ~into m] adds every counter of [m] into [into]. *)
val add_metrics : into:metrics -> metrics -> unit

type 'p t

(** [create ?faults ?in_capacity ?payload_size g ~handlers] builds an
    engine; [handlers u] is called once per node at creation time.

    [in_capacity] bounds how many incoming requests a node serves per
    round (the restricted model of Daum et al. discussed in Section 7);
    excess requests are silently rejected and never answered.
    [payload_size] measures payloads for the [payload_words] metric
    (default: 1 per message). *)
val create :
  ?faults:faults ->
  ?in_capacity:int ->
  ?payload_size:('p -> int) ->
  Gossip_graph.Graph.t ->
  handlers:(node -> 'p handlers) ->
  'p t

val graph : 'p t -> Gossip_graph.Graph.t

(** [current_round t] is the index of the next round to execute
    (0 before any [step]). *)
val current_round : 'p t -> int

val metrics : 'p t -> metrics

(** [step t] executes one round: deliveries first, then initiations.
    @raise Invalid_argument if a handler initiates toward a
    non-neighbor. *)
val step : 'p t -> unit

(** [run_until t ~max_rounds done_] steps until [done_ ()] holds
    (checked before the first step and after every step) or the round
    budget is exhausted.  Returns [Some rounds_taken] on success,
    [None] when [max_rounds] steps were executed without success. *)
val run_until : 'p t -> max_rounds:int -> (unit -> bool) -> int option
