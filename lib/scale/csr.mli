(** Compressed-sparse-row graphs for million-node simulations.

    {!Gossip_graph.Graph} stores one boxed [(neighbor, latency)] pair
    per directed edge — convenient for the paper's gadget graphs,
    hopeless at 10^6 nodes where pointer chasing dominates.  [Csr.t]
    packs the same undirected latency-weighted graph into three flat
    {b int32} arrays (the classical CSR layout backed by
    {!I32.t} Bigarrays), so a neighbor scan is a contiguous walk and
    the whole structure costs 4 bytes per directed-edge entry — half
    the boxed-int [int array] layout it replaced, and off the OCaml
    heap, so the GC never scans it.

    {b int32 range contract.}  Node ids, latencies, and [row_ptr]
    entries must fit an int32.  Every constructor enforces this with
    the typed {!I32.Overflow} — a node count above [2^31 - 1], a
    latency above [Int32.max_int], or a directed-edge total whose
    prefix sum overflows the cell raises instead of silently wrapping.
    At 4 bytes per entry, an int32-breaking graph would cost > 16 GiB
    for [col]/[lat] alone, so the contract costs nothing real.

    The representation is exposed (read-only by convention) so hot
    loops — {!Wheel_engine} in particular — can index the arrays
    directly through {!I32.get}/{!I32.unsafe_get}.  Invariants,
    checked by [of_graph] and the generators:

    - [I32.length row_ptr = n + 1], [row_ptr.(0) = 0], non-decreasing;
    - the directed entries of node [u] live at indices
      [row_ptr.(u) .. row_ptr.(u+1) - 1] of [col] / [lat];
    - each row is sorted by ascending neighbor id (same order as
      [Graph.neighbors]), with no self-loops or duplicates;
    - latencies are [>= 1] and symmetric: the entry [(u, v)] and its
      mirror [(v, u)] carry the same latency. *)

type t = private {
  n : int;  (** node count *)
  row_ptr : I32.t;  (** length [n + 1]; row boundaries *)
  col : I32.t;  (** neighbor ids, one entry per directed edge *)
  lat : I32.t;  (** latencies, parallel to [col] *)
}

(** {1 Accessors} *)

val n : t -> int

(** [m t] is the number of undirected edges. *)
val m : t -> int

val degree : t -> int -> int

(** [max_degree t] is [Δ]; 0 on an edgeless graph. *)
val max_degree : t -> int

(** [max_latency t] is [ℓ_max]; 1 on an edgeless graph (matching
    [Graph.max_latency]). *)
val max_latency : t -> int

(** [latency t u v] is the latency of edge [(u, v)], when present
    (binary search over the sorted row of [u]). *)
val latency : t -> int -> int -> int option

(** [iter_neighbors t u f] applies [f v latency] over the row of [u]
    in ascending neighbor order. *)
val iter_neighbors : t -> int -> (int -> int -> unit) -> unit

(** [is_connected t] tests connectivity with an array-based BFS
    (vacuously true for [n <= 1]). *)
val is_connected : t -> bool

(** [equal a b] is structural equality of the packed arrays. *)
val equal : t -> t -> bool

(** [memory_words t] is the approximate heap footprint in machine
    words of the int32 layout — the honest denominator for rounds/sec
    and bytes-per-edge comparisons. *)
val memory_words : t -> int

(** [boxed_memory_words t] is what the same structure cost in the
    pre-int32 boxed layout (three [int array]s at one machine word per
    element): the baseline bench e18's bytes-per-edge reduction is
    measured against. *)
val boxed_memory_words : t -> int

(** {1 Conversions} *)

(** [of_graph g] packs a {!Gossip_graph.Graph.t}; rows inherit the
    graph's ascending-neighbor order, so protocols that index neighbors
    by position behave identically on either representation.
    @raise I32.Overflow on an out-of-int32-range node count or latency. *)
val of_graph : Gossip_graph.Graph.t -> t

(** [to_graph t] unpacks into the boxed representation, row for row
    ([Graph.of_rows]: the CSR rows are already sorted and symmetric, so
    no edge list is built); intended for tests and for reusing the
    analysis code (conductance, diameters, spanners) on CSR-built
    graphs. *)
val to_graph : t -> Gossip_graph.Graph.t

(** [of_undirected_arrays ~n eu ev el ~count] packs the first [count]
    undirected edges [(eu.(i), ev.(i))] with latency [el.(i)] into CSR
    (both directions scattered, rows sorted ascending by neighbor).
    Latencies and the node count are int32-range-checked
    ({!I32.Overflow}); beyond that, no validation — callers must
    supply in-range distinct endpoints with no duplicate edges.  This
    is how the unknown-latency drivers rebuild a graph from a
    discovered latency profile without round-tripping through boxed
    edge lists. *)
val of_undirected_arrays : n:int -> int array -> int array -> int array -> count:int -> t

(** {1 Direct generators}

    These rebuild the three large-graph families of {!Gossip_graph.Gen}
    straight into CSR form: degrees are counted (or bounded) first,
    [row_ptr] is a prefix sum, and edges are scattered into place — no
    intermediate OCaml lists of tuples, which at 10^6 nodes would cost
    more than the final structure.  All raise {!I32.Overflow} when the
    node count, a latency, or the directed-edge total exceeds the
    int32 range. *)

(** [ring_of_cliques ~cliques ~size ~bridge_latency] is byte-for-byte
    the graph of [Gen.ring_of_cliques] (same ids, same orientation of
    the bridges), packed directly.  Requires [cliques >= 3],
    [size >= 1], [bridge_latency >= 1]. *)
val ring_of_cliques : cliques:int -> size:int -> bridge_latency:int -> t

(** [braided_ring ~cliques ~size ~bridges ~bridge_latency] is a ring
    of [cliques] unit-latency cliques of [size] nodes where adjacent
    cliques are joined by [bridges] parallel matching edges: bridge
    [j] connects node [j] of each clique to node [j] of the next.
    Bridge 0 — the {e backbone} — has latency [bridge_latency - 1];
    bridges [1 .. bridges-1] have latency [bridge_latency].  The split
    makes the family the natural dynamic-scenario testbed: a drift
    schedule filtered to [lat >= bridge_latency] erodes the braid's
    fast cut capacity (raising [ℓ*/φ*]) while the backbone — and with
    it the latency-[<= bridge_latency - 1] contact subgraph a
    conductance-independent [Dtg_local] baseline walks — is untouched.
    Requires [cliques >= 3], [size >= 1], [1 <= bridges <= size],
    [bridge_latency >= 2]. *)
val braided_ring : cliques:int -> size:int -> bridges:int -> bridge_latency:int -> t

(** [barabasi_albert rng ~n ~attach] grows a preferential-attachment
    graph (unit latencies) with the repeated-endpoints method of
    [Gen.barabasi_albert], accumulating edges into flat growable
    arrays.  The sample differs from [Gen]'s for the same seed (the
    two consume randomness in different orders) but follows the same
    distribution.  Requires [n > attach >= 1]. *)
val barabasi_albert : Gossip_util.Rng.t -> n:int -> attach:int -> t

(** [watts_strogatz rng ~n ~k ~beta] is the small-world model (unit
    latencies), dedup'd through an int-keyed hash table rather than an
    edge list.  Same caveats as [Gen.watts_strogatz]: the result is
    simple but may rarely be disconnected.  Requires [n > 2k >= 2] and
    [beta] in [\[0,1\]]. *)
val watts_strogatz : Gossip_util.Rng.t -> n:int -> k:int -> beta:float -> t

(** [with_latencies rng spec t] redraws every undirected edge latency
    from [spec], keeping the two directed mirrors equal.  Edges are
    visited in ascending [(u, v)] order.
    @raise I32.Overflow when a drawn latency exceeds the int32 range. *)
val with_latencies : Gossip_util.Rng.t -> Gossip_graph.Gen.latency_spec -> t -> t

val pp : Format.formatter -> t -> unit

(** {1 Oriented contact structures}

    A protocol kernel ({!Kernel}) initiates exchanges over a {e
    directed} per-node edge list: the classic protocols contact over
    the symmetric CSR rows, RR Broadcast over a Baswana–Sen
    orientation, DTG over the latency-[<= ℓ] subrows.  [oriented]
    packs such a directed structure into the same flat int32 layout as
    {!t}, with one crucial difference: {b rows are in construction
    order, not sorted} — round-robin kernels step a cursor through a
    row, so the order itself is part of the protocol. *)

type oriented = {
  o_n : int;  (** node count *)
  o_row_ptr : I32.t;  (** length [n + 1]; row boundaries *)
  o_col : I32.t;  (** out-neighbor ids, construction order *)
  o_lat : I32.t;  (** latencies, parallel to [o_col] *)
}

(** [oriented_of_csr t] views the symmetric CSR as a directed contact
    structure (every undirected edge in both rows); shares [t]'s
    arrays, costs O(1). *)
val oriented_of_csr : t -> oriented

val oriented_n : oriented -> int
val oriented_out_degree : oriented -> int -> int

(** [oriented_max_out_degree o] is [Δ_out]; 0 on an edgeless
    structure. *)
val oriented_max_out_degree : oriented -> int

(** [oriented_edge_count o] counts directed out-edges. *)
val oriented_edge_count : oriented -> int

(** [oriented_max_latency o] is the largest out-edge latency; 1 on an
    edgeless structure (matching [max_latency]). *)
val oriented_max_latency : oriented -> int

(** [oriented_iter_out o u f] applies [f peer latency] over the row of
    [u] in row order. *)
val oriented_iter_out : oriented -> int -> (int -> int -> unit) -> unit

(** [oriented_filter_le o ell] keeps only out-edges of latency
    [<= ell], preserving each row's edge order. *)
val oriented_filter_le : oriented -> int -> oriented

(** [of_oriented_spanner ?out_degree_bound out_edges] packs
    {!Gossip_core.Spanner}'s orientation ([out_edges.(v)] = the
    [(peer, latency)] edges added by [v]) into flat arrays,
    edge-for-edge in the source order.  When [out_degree_bound] is
    given, any row longer than the bound raises [Invalid_argument] —
    the Lemma 15 precondition RR Broadcast's round bound rests on is
    asserted at construction rather than silently violated at run
    time.  Also validates peer ids and latencies [>= 1], and raises
    the typed {!I32.Overflow} when a peer id or latency exceeds the
    int32 range (never a wrapped value). *)
val of_oriented_spanner : ?out_degree_bound:int -> (int * int) array array -> oriented
