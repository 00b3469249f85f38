module Graph = Gossip_graph.Graph

let rec next_pow2 k p = if p >= k then p else next_pow2 k (2 * p)

let t_sequence k =
  if k < 1 then invalid_arg "Path_discovery.t_sequence: need k >= 1";
  let k = next_pow2 k 1 in
  let rec build k = if k = 1 then [ 1 ] else build (k / 2) @ [ k ] @ build (k / 2) in
  build k

type result = {
  rounds : int;
  k_final : int;
  attempts : int;
  sets : Rumor.t array;
  success : bool;
  unanimous : bool;
}

(* Run the T(k) schedule over accumulated rumor sets; returns rounds. *)
let run_schedule g ~k ~sets =
  let n = Graph.n g in
  let total = ref 0 in
  List.iter
    (fun ell ->
      let cap = max 1000 (64 * ell * (n + 1)) in
      let r = Dtg.phase g ~ell ~max_rounds:cap ~rumors:sets () in
      match r.Dtg.rounds with
      | Some rounds -> total := !total + rounds
      | None -> total := !total + cap)
    (t_sequence k);
  !total

let full_adjacency g = Array.init (Graph.n g) (fun u -> Graph.neighbors g u)

(* ------------------------------------------------------------------ *)
(* The T(k) schedule on the flat CSR scale engine: each ℓ-DTG entry is
   a dtg_local kernel run for its budget, the informed set chaining
   from phase to phase.  Single-rumor, so the schedule's "any two
   nodes within distance k exchanged rumors" specializes to "the
   rumor reached everything within distance k of the informed set". *)

module Scale_csr = Gossip_scale.Csr
module Scale_kernel = Gossip_scale.Kernel
module Scale_wheel = Gossip_scale.Wheel_engine

type schedule_scale_result = {
  ps_rounds : int;
  ps_informed : Bytes.t;
  ps_metrics : Gossip_sim.Engine.metrics;
}

let run_schedule_scale ?faults ?env ?wheel_latency ?max_jitter ?deadline ?on_round ?telemetry
    ?domains ?informed rng csr ~k ~source =
  if k < 1 then invalid_arg "Path_discovery.run_schedule_scale: need k >= 1";
  let lg = Spanner.ceil_log2 (Scale_csr.n csr) in
  let lmax = Scale_csr.max_latency csr in
  let total = ref 0 in
  let acc_metrics = Gossip_sim.Engine.empty_metrics () in
  let inf = ref (match informed with Some b -> Some (Bytes.copy b) | None -> None) in
  List.iter
    (fun ell ->
      (* The single-rumor shadow of one ℓ-DTG phase: local broadcast
         over G_ℓ, budgeted at 2·ℓ·⌈log n⌉² rounds (each phase of the
         paper's schedule is O(ℓ log² n)). *)
      let budget = max 64 (2 * ell * lg * lg) in
      let kernel = Scale_kernel.dtg_local ~ell:(min ell lmax) csr in
      let res =
        Scale_wheel.broadcast_kernel ?faults ?env ?wheel_latency ?max_jitter ?deadline
          ?on_round ?telemetry ?domains ?informed:!inf rng csr ~kernel ~source
          ~max_rounds:budget
      in
      total := !total + res.Scale_wheel.metrics.Gossip_sim.Engine.rounds;
      Gossip_sim.Engine.add_metrics ~into:acc_metrics res.Scale_wheel.metrics;
      inf := Some res.Scale_wheel.informed)
    (t_sequence k);
  let informed =
    match !inf with Some b -> b | None -> assert false (* t_sequence is non-empty *)
  in
  { ps_rounds = !total; ps_informed = informed; ps_metrics = acc_metrics }

let run_known_diameter g ~d =
  let sets = Rumor.initial g in
  let rounds = run_schedule g ~k:d ~sets in
  {
    rounds;
    k_final = next_pow2 d 1;
    attempts = 1;
    sets;
    success = Rumor.all_to_all_done sets;
    unanimous = true;
  }

let run g =
  let sets = Rumor.initial g in
  let out_edges = full_adjacency g in
  let latency_sum =
    let acc = ref 0 in
    Graph.iter_edges (fun e -> acc := !acc + e.Graph.latency) g;
    max 1 !acc
  in
  let rec attempt_loop k attempts acc_rounds unanimous =
    let schedule_rounds = run_schedule g ~k ~sets in
    let check = Termination_check.run ~base:g ~out_edges ~k ~sets in
    let rounds = acc_rounds + schedule_rounds + check.Termination_check.rounds in
    let unanimous = unanimous && check.Termination_check.unanimous in
    let failed = Array.exists (fun f -> f) check.Termination_check.failed in
    if not failed then
      {
        rounds;
        k_final = k;
        attempts;
        sets;
        success = Rumor.all_to_all_done sets;
        unanimous;
      }
    else if k > 2 * latency_sum then
      { rounds; k_final = k; attempts; sets; success = false; unanimous }
    else attempt_loop (2 * k) (attempts + 1) rounds unanimous
  in
  attempt_loop 1 1 0 true
