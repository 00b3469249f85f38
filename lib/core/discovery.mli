(** Latency discovery (Section 4.2).

    When nodes do not know the latencies of their incident edges, they
    can measure them: probe each neighbor in sequence (one initiation
    per round, non-blocking) and time the responses.  After [Δ] probing
    rounds plus a [d]-round wait, every edge of latency [<= d] is
    known, in [Δ + d] rounds total.  With guess-and-double over [d]
    this is the [Õ(D + Δ)] preprocessing that turns the known-latency
    spanner algorithm into an unknown-latency one (Theorem 20's first
    branch). *)

type result = {
  rounds : int;  (** engine rounds consumed ([Δ + d]) *)
  known : (Gossip_graph.Graph.node * int) list array;
      (** per node, the discovered [(neighbor, latency)] pairs *)
  complete : bool;  (** every edge of latency [<= d] was discovered *)
  metrics : Gossip_sim.Engine.metrics;
}

(** [probe g ~d_bound] runs one probing pass with wait bound
    [d_bound]. *)
val probe : Gossip_graph.Graph.t -> d_bound:int -> result

(** [probe_doubling g ~target] repeats [probe] with
    [d = 1, 2, 4, ...] until [d >= target], accumulating rounds — the
    guess-and-double cost [O(Δ log D + D)].  Returns the accumulated
    result with [rounds] summed over attempts. *)
val probe_doubling : Gossip_graph.Graph.t -> target:int -> result

(** [probe_rounds ~delta ~d_bound] is the schedule length one probe
    pass needs to settle: [Δ] probing rounds plus a [d_bound]-round
    wait for in-flight responses. *)
val probe_rounds : delta:int -> d_bound:int -> int

(** {1 Discovery on the flat scale engine}

    The same probe pass at 10^6 nodes, run through the
    {!Gossip_scale.Kernel.discovery} kernel: each node steps a cursor
    through its (sorted) contact row, one probe per round, and records
    the measured round-trip time of each response when it lands within
    [d_bound].  Because the timing wheel measures the exchange's {e
    effective} round trip, the discovered profile reflects the
    session's environment — stretched edges are discovered at their
    stretched cost or not at all. *)

type scale_result = {
  s_rounds : int;  (** wheel rounds executed ([Δ + d]) *)
  s_discovered : Gossip_scale.Csr.t;
      (** the discovered graph: an undirected edge appears once both
          endpoints measured it, at the worse of the two measurements *)
  s_edges_known : int;  (** undirected edges in [s_discovered] *)
  s_complete : bool;
      (** every static edge of latency [<= d_bound] was measured in
          both directions (false under message loss or inflating
          jitter) *)
  s_lat : int array;
      (** raw per-direction measurements, parallel to
          [Csr.oriented_of_csr csr]'s [o_col]; [-1] = undiscovered *)
}

(** [probe_scale session rng csr ~d_bound] is one probe pass over
    [csr] with wait bound [d_bound], run as the next
    {!Gossip_scale.Wheel_engine.phase} of [session] (whose options,
    clock and ledger it shares). *)
val probe_scale :
  Gossip_scale.Wheel_engine.session ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  d_bound:int ->
  scale_result
