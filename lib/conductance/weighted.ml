module Graph = Gossip_graph.Graph

type backend = Exact | Sweep | Auto

type result = { phi_star : float; ell_star : int; profile : (int * float) list }

let resolve backend g =
  match backend with
  | Exact -> Exact
  | Sweep -> Sweep
  | Auto -> if Graph.n g <= 16 then Exact else Sweep

let phi_ell ?(backend = Auto) g l =
  match resolve backend g with
  | Exact -> Exact.phi_ell g l
  | Sweep | Auto -> Spectral.phi_ell g l

let weighted_conductance ?(backend = Auto) g =
  if Graph.n g < 2 then invalid_arg "Weighted.weighted_conductance: need n >= 2";
  if not (Graph.is_connected g) then
    invalid_arg "Weighted.weighted_conductance: graph must be connected";
  let backend = resolve backend g in
  let latencies = Graph.distinct_latencies g in
  let profile = List.map (fun l -> (l, phi_ell ~backend g l)) latencies in
  (* A later (larger) ℓ wins only by more than a relative 1e-12, so
     ratios that tie up to rounding keep the smaller ℓ — and scaling
     every latency cannot move ℓ* by flipping a rounding error. *)
  let best (bl, bp) (l, p) =
    if p /. float_of_int l > bp /. float_of_int bl *. (1.0 +. 1e-12) then (l, p)
    else (bl, bp)
  in
  match profile with
  | [] -> invalid_arg "Weighted.weighted_conductance: edgeless graph"
  | first :: rest ->
      let ell_star, phi_star = List.fold_left best first rest in
      { phi_star; ell_star; profile }

let pushpull_round_bound ?backend g =
  let { phi_star; ell_star; _ } = weighted_conductance ?backend g in
  float_of_int ell_star /. phi_star *. log (float_of_int (Graph.n g))
