(** Baswana–Sen spanner construction with edge orientation
    (Appendix D; Lemma 13).

    For a parameter [k], the algorithm computes a [(2k-1)]-spanner in
    [k] iterations of randomized cluster sampling.  Following the
    paper's modification, every spanner edge is {e oriented}: it is an
    out-edge of the vertex whose rule added it, and with
    [k = Θ(log n)] each vertex's out-degree is [O(log n)] w.h.p. —
    the property RR Broadcast's running time rests on (Lemma 15).

    Edge weights are the latencies; ties are broken by endpoint ids so
    weights are effectively distinct, as [7] requires.  Cluster
    sampling uses the estimate [n̂] of [n] ([n <= n̂ <= n^c]); Lemma 13
    shows the out-degree only degrades to [O(n̂^(1/k) log n)]. *)

type t = {
  base : Gossip_graph.Graph.t;  (** the spanned graph *)
  spanner : Gossip_graph.Graph.t;  (** spanner as an undirected graph *)
  out_edges : (Gossip_graph.Graph.node * int) array array;
      (** [out_edges.(v)] are the oriented [(peer, latency)] edges
          added by [v] *)
  k : int;
}

(** [build rng g ~k ?n_hat ()] runs the construction.  [n_hat]
    defaults to [n].  Requires [k >= 1]; [k = 1] yields the graph
    itself.

    {b Row order.}  [out_edges.(v)] lists [v]'s edges latest chosen
    first, and [v] chooses in the order an unrandomized per-node
    [Stdlib.Hashtbl] iterates its alive neighbors and the clusters
    they lead to: ascending [Hashtbl.hash id land (b - 1)], where [b]
    is the bucket count such a table reaches (16, doubled while the
    entries exceed [2b]), then newest entry first.  The build keeps no
    table; it reproduces that order from flat arrays.  RR Broadcast
    walks each row in this order, so every recorded rr-spanner
    trajectory (bench E15–E17, perfbench's ledger) rests on it, and a
    canonical order would re-record them.  The edge set does not
    depend on it: edge weights are distinct and the sampling draws
    follow node order.  The build does not vary under
    [OCAMLRUNPARAM=R], which randomized the hash tables of its earlier
    implementation.

    Cost: [O(k (n + m))] time over flat per-node slot rows. *)
val build :
  Gossip_util.Rng.t -> Gossip_graph.Graph.t -> k:int -> ?n_hat:int -> unit -> t

(** [ceil_log2 x] is [⌈log₂ x⌉], at least 1: the canonical spanner
    parameter [k] for an [x]-node graph (out-degree [O(log n)]), and
    the iteration count of the EID and T(k) phases. *)
val ceil_log2 : int -> int

(** [out_degree_bound ~n ~k] is [⌈8 · n^(1/k) · ln n⌉] (with [n] at
    least 2): the out-degree a parameter-[k] orientation stays under
    w.h.p. (Lemma 13), which Lemma 15's RR window [k·Δ_out + k] rests
    on.  Pass it to {!Gossip_scale.Csr.of_oriented_spanner} to assert
    it at packing. *)
val out_degree_bound : n:int -> k:int -> int

(** [max_out_degree t] is [Δ_out] over the orientation. *)
val max_out_degree : t -> int

(** [edge_count t] is the number of spanner edges. *)
val edge_count : t -> int

(** [stretch t] is the multiplicative stretch of the spanner w.r.t.
    its base graph (should be [<= 2k - 1]). *)
val stretch : t -> float
