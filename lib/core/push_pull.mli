(** The classical push-pull random-phone-call protocol (Theorem 12).

    In every round each node initiates an exchange with a uniformly
    random neighbor; the exchange both pushes the node's rumors to the
    neighbor and pulls the neighbor's rumors back.  On a graph with
    weighted conductance [phi_star] and critical latency [ell_star], a
    broadcast completes in [O((ell_star / phi_star) log n)] rounds
    w.h.p.

    Initiations are non-blocking: a node initiates every round even
    while earlier exchanges over slow edges are still in flight. *)

type result = {
  rounds : int option;  (** rounds until completion, [None] if capped *)
  metrics : Gossip_sim.Engine.metrics;
  history : (int * int) list;
      (** (round, informed-set size) whenever the size changed —
          the Markov-process trajectory of Theorem 12's proof *)
}

(** [broadcast rng g ~source ~max_rounds] spreads a single rumor from
    [source] until every node is informed. *)
val broadcast :
  Gossip_util.Rng.t ->
  Gossip_graph.Graph.t ->
  source:Gossip_graph.Graph.node ->
  max_rounds:int ->
  result

(** [all_to_all rng g ~max_rounds] starts one rumor per node and runs
    push-pull with full rumor-set payloads until every node knows every
    rumor.  [history] tracks the number of fully-informed nodes. *)
val all_to_all :
  Gossip_util.Rng.t -> Gossip_graph.Graph.t -> max_rounds:int -> result

(** [local_broadcast rng g ~max_rounds] runs the all-to-all payloads
    but stops at the local broadcast goal (every node knows all its
    neighbors' rumors) — the problem the lower bounds of Section 3 are
    stated for. *)
val local_broadcast :
  Gossip_util.Rng.t -> Gossip_graph.Graph.t -> max_rounds:int -> result
