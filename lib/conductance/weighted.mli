(** Weighted conductance [φ*] and critical latency [ℓ*] (Definition 2).

    For the latency profile [Φ(G) = {φ_1, ..., φ_ℓmax}], the weighted
    conductance maximises [φ_ℓ / ℓ]:

    [φ*(G) = φ_{ℓ*}]  where  [ℓ* = argmax_ℓ φ_ℓ(G) / ℓ].

    [φ_ℓ] is a step function that changes only at distinct edge
    latencies, and within a step [φ_ℓ / ℓ] decreases in [ℓ]; it
    therefore suffices to evaluate [φ_ℓ] at the distinct latency
    values. *)

(** Which [φ_ℓ] backend to use. *)
type backend =
  | Exact  (** subset enumeration; [n <= 22] *)
  | Sweep  (** spectral sweep-cut approximation *)
  | Auto  (** [Exact] when [n <= 16], else [Sweep] *)

(** The latency profile and the maximiser. *)
type result = {
  phi_star : float;  (** [φ*(G)] *)
  ell_star : int;  (** [ℓ*], the critical latency *)
  profile : (int * float) list;  (** [(ℓ, φ_ℓ)] at distinct latencies *)
}

(** [phi_ell ?backend g l] is the weight-ℓ conductance with the chosen
    backend (default [Auto]). *)
val phi_ell : ?backend:backend -> Gossip_graph.Graph.t -> int -> float

(** [weighted_conductance ?backend g] computes [φ*], [ℓ*] and the full
    profile.  Ratios within a relative [1e-12] of each other tie, and a
    tie goes to the smaller [ℓ].  Requires a connected graph with
    [n >= 2]. *)
val weighted_conductance : ?backend:backend -> Gossip_graph.Graph.t -> result

(** [pushpull_round_bound g] is the Theorem 12 upper bound
    [(ell_star / phi_star) * ln n] as a float — the quantity
    push-pull's measured rounds are compared against in the benches. *)
val pushpull_round_bound : ?backend:backend -> Gossip_graph.Graph.t -> float
