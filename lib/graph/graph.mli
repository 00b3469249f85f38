(** Connected, undirected graphs with integer edge latencies.

    This is the network model of the paper (Section 1): [n] nodes,
    bidirectional edges, and a latency [>= 1] on every edge giving the
    round-trip time of one exchange over that edge.  The structure is
    immutable once built. *)

(** A node identifier in [\[0, n)]. *)
type node = int

(** An undirected edge [(u, v, latency)] with [u < v]. *)
type edge = { u : node; v : node; latency : int }

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on nodes [\[0, n)].

    Validation: endpoints in range, no self-loops, latencies [>= 1],
    and no parallel edges (the same unordered pair listed twice).  The
    first three are checked edge by edge in list order, then parallel
    edges are looked for in the sorted rows, so a list with two
    different faults may report the later one.
    @raise Invalid_argument when any check fails.

    Cost: [O(n + m)] time, and [4m] words of scratch besides the
    result: rows are sorted by neighbor with a counting sort. *)
val of_edges : n:int -> (node * node * int) list -> t

(** [of_rows rows] is the graph whose node [u] has neighbors [rows.(u)]:
    [(v, latency)] pairs in strictly ascending neighbor order, every
    edge listed in both endpoints' rows with one latency.  The graph
    takes ownership of [rows] (and of each row).
    @raise Invalid_argument on an endpoint out of range, a self-loop, a
    latency [< 1], an unsorted row or a duplicate neighbor, or an edge
    missing from one of its rows or listed with two latencies.

    Cost: [O(n + m)] time and [n] words of scratch. *)
val of_rows : (node * int) array array -> t

(** [map_latencies f g] is [g] with every edge latency replaced by
    [f u v latency]; the result must still be [>= 1]. *)
val map_latencies : (node -> node -> int -> int) -> t -> t

(** {1 Accessors} *)

(** [n g] is the number of nodes. *)
val n : t -> int

(** [m g] is the number of (undirected) edges. *)
val m : t -> int

(** [neighbors g u] is the array of [(v, latency)] pairs incident to
    [u], in ascending neighbor order.  The returned array is owned by
    the graph; callers must not mutate it. *)
val neighbors : t -> node -> (node * int) array

(** [degree g u] is the number of edges incident to [u]. *)
val degree : t -> node -> int

(** [max_degree g] is [Δ]. *)
val max_degree : t -> int

(** [latency g u v] is the latency of edge [(u, v)], when present. *)
val latency : t -> node -> node -> int option

val mem_edge : t -> node -> node -> bool

(** [edges g] lists every edge once, with [u < v]. *)
val edges : t -> edge list

(** [iter_edges f g] applies [f] to every edge once, with [u < v]. *)
val iter_edges : (edge -> unit) -> t -> unit

(** [max_latency g] is the largest edge latency ([ℓ_max]); 1 on an
    edgeless graph. *)
val max_latency : t -> int

(** [distinct_latencies g] is the sorted list of distinct edge
    latencies. *)
val distinct_latencies : t -> int list

(** {1 Derived graphs} *)

(** [subgraph_le g l] keeps only edges of latency [<= l] (the graph
    [G_ℓ] of Section 4.1, without the self-loop multiplicities). *)
val subgraph_le : t -> int -> t

(** {1 Queries} *)

(** [is_connected g] tests connectivity (vacuously true for n <= 1). *)
val is_connected : t -> bool

(** [volume g nodes] is [Vol(U)] of Definition 1: the number of edge
    endpoints at nodes of [U], i.e. the sum of their degrees. *)
val volume : t -> node list -> int

val pp : Format.formatter -> t -> unit
