(* Tests for gossip_conductance: Cut, Exact, Spectral, Weighted
   (Definitions 1-2). *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Cut = Gossip_conductance.Cut
module Exact = Gossip_conductance.Exact
module Spectral = Gossip_conductance.Spectral
module Weighted = Gossip_conductance.Weighted

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Cut *)

let test_cut_of_list_mask () =
  let g = Gen.path 4 in
  let a = Cut.of_list g [ 0; 1 ] in
  let b = Cut.of_mask 4 0b0011 in
  Alcotest.check (Alcotest.array Alcotest.bool) "same side" a b

let test_cut_volumes () =
  let g = Gen.path 4 in
  (* Degrees 1,2,2,1. *)
  let side = Cut.of_list g [ 0; 1 ] in
  Alcotest.check (Alcotest.pair Alcotest.int Alcotest.int) "volumes" (3, 3)
    (Cut.volumes g side)

let test_cut_edges_le () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (1, 2, 5); (2, 3, 1); (0, 3, 5) ] in
  let side = Cut.of_list g [ 0; 1 ] in
  checki "all latencies" 2 (Cut.cut_edges_le g side 5);
  checki "only fast" 0 (Cut.cut_edges_le g side 1)

let test_cut_phi_ell () =
  let g = Gen.path 4 in
  let side = Cut.of_list g [ 0; 1 ] in
  checkf "phi of middle cut" (1.0 /. 3.0) (Cut.phi_ell g side 1)

let test_cut_empty_side () =
  let g = Gen.path 3 in
  let side = Cut.of_list g [] in
  checkb "infinite" true (Cut.phi_ell g side 1 = infinity)

(* ------------------------------------------------------------------ *)
(* Exact *)

let test_exact_path4 () =
  (* P4: the minimizing cut is the middle edge: 1 / min(3,3). *)
  checkf "P4" (1.0 /. 3.0) (Exact.phi_ell (Gen.path 4) 1)

let test_exact_two_nodes () = checkf "K2" 1.0 (Exact.phi_ell (Gen.path 2) 1)

let test_exact_clique () =
  (* K4: min over cuts; the singleton cut gives 3/3 = 1, the 2-2 cut
     gives 4/6 = 2/3. *)
  checkf "K4" (2.0 /. 3.0) (Exact.phi_ell (Gen.clique 4) 1)

let test_exact_dumbbell () =
  (* Two K4s and a bridge: min cut is the bridge, 1 / (2*6+1). *)
  let g = Gen.dumbbell ~size:4 ~bridge_latency:1 in
  checkf "dumbbell" (1.0 /. 13.0) (Exact.phi_ell g 1)

let test_exact_weight_threshold () =
  (* Bridge has latency 5: phi_1 must ignore it (bridge cut has zero
     fast edges) while phi_5 counts it. *)
  let g = Gen.dumbbell ~size:3 ~bridge_latency:5 in
  checkf "phi_1 = 0" 0.0 (Exact.phi_ell g 1);
  checkf "phi_5 positive" (1.0 /. 7.0) (Exact.phi_ell g 5)

let test_exact_monotone_in_ell () =
  let rng = Rng.of_int 11 in
  let g =
    Gen.with_latencies rng (Gen.Uniform (1, 6)) (Gen.erdos_renyi_connected rng ~n:10 ~p:0.4)
  in
  let prev = ref 0.0 in
  List.iter
    (fun l ->
      let phi = Exact.phi_ell g l in
      checkb "monotone nondecreasing" true (phi >= !prev -. 1e-12);
      prev := phi)
    (Graph.distinct_latencies g)

let test_exact_with_cut_consistent () =
  let g = Gen.dumbbell ~size:3 ~bridge_latency:1 in
  let phi, side = Exact.phi_ell_with_cut g 1 in
  checkf "cut evaluates to phi" phi (Cut.phi_ell g side 1)

let test_exact_too_large () =
  Alcotest.check_raises "n > 22" (Invalid_argument "Exact: n too large for exhaustive enumeration")
    (fun () -> ignore (Exact.phi_ell (Gen.clique 23) 1))

let prop_exact_lower_bounds_random_cuts =
  QCheck.Test.make ~name:"exact <= any random cut" ~count:50
    QCheck.(pair (int_range 4 10) (int_range 1 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.5 in
      let exact = Exact.phi_ell g 1 in
      let mask = 1 + Rng.int rng ((1 lsl n) - 2) in
      let side = Cut.of_mask n mask in
      exact <= Cut.phi_ell g side 1 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Spectral *)

let sweep_brackets_exact g l =
  let exact = Exact.phi_ell g l in
  let sweep = Spectral.phi_ell g l in
  (* Cheeger: exact <= sweep <= sqrt(2 * exact); allow slack for power
     iteration error. *)
  sweep >= exact -. 1e-9 && sweep <= sqrt (2.0 *. exact) +. 0.05

let test_spectral_dumbbell () =
  checkb "brackets exact" true (sweep_brackets_exact (Gen.dumbbell ~size:5 ~bridge_latency:1) 1)

let test_spectral_cycle () =
  checkb "brackets exact" true (sweep_brackets_exact (Gen.cycle 12) 1)

let test_spectral_clique () =
  checkb "brackets exact" true (sweep_brackets_exact (Gen.clique 10) 1)

let test_spectral_ring_of_cliques () =
  let g = Gen.ring_of_cliques ~cliques:3 ~size:4 ~bridge_latency:1 in
  checkb "brackets exact" true (sweep_brackets_exact g 1)

let test_spectral_weight_threshold () =
  let g = Gen.dumbbell ~size:4 ~bridge_latency:7 in
  checkf "disconnected G_1 has phi 0" 0.0 (Spectral.phi_ell g 1)

let test_spectral_with_cut_consistent () =
  let g = Gen.dumbbell ~size:5 ~bridge_latency:1 in
  let phi, side = Spectral.phi_ell_with_cut g 1 in
  checkf "cut evaluates to sweep value" phi (Cut.phi_ell g side 1)

let prop_spectral_upper_bounds_exact =
  QCheck.Test.make ~name:"sweep >= exact on random graphs" ~count:25
    QCheck.(int_range 5 12)
    (fun n ->
      let rng = Rng.of_int (n * 77) in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.5 in
      Spectral.phi_ell g 1 >= Exact.phi_ell g 1 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Weighted *)

let test_weighted_unit_graph () =
  (* All latencies 1: ell* = 1 and phi* is the classical conductance. *)
  let g = Gen.clique 8 in
  let r = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  checki "ell*" 1 r.Weighted.ell_star;
  checkf "phi* classical" (Exact.phi_ell g 1) r.Weighted.phi_star

let test_weighted_ring_of_cliques () =
  (* Bridges at latency 9: phi_1 = 0 (cliques disconnected), so the
     maximiser must pick ell = 9. *)
  let g = Gen.ring_of_cliques ~cliques:3 ~size:4 ~bridge_latency:9 in
  let r = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  checki "ell* = bridge" 9 r.Weighted.ell_star;
  checkb "phi* positive" true (r.Weighted.phi_star > 0.0)

let test_weighted_fast_beats_slow () =
  (* A clique at latency 1 plus one slow chord cannot move ell*. *)
  let g =
    Graph.map_latencies
      (fun u v l -> if (u, v) = (0, 3) || (v, u) = (0, 3) then 50 else l)
      (Gen.clique 5)
  in
  let r = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  checki "ell* stays 1" 1 r.Weighted.ell_star

let test_weighted_profile () =
  let g = Gen.dumbbell ~size:3 ~bridge_latency:4 in
  let r = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  checki "profile at distinct latencies" 2 (List.length r.Weighted.profile);
  let ells = List.map fst r.Weighted.profile in
  Alcotest.check (Alcotest.list Alcotest.int) "profile ells" [ 1; 4 ] ells;
  (* Maximiser consistency: phi*/ell* >= phi_l/l for all profile
     entries. *)
  let ratio = r.Weighted.phi_star /. float_of_int r.Weighted.ell_star in
  List.iter
    (fun (l, phi) -> checkb "argmax" true (ratio >= (phi /. float_of_int l) -. 1e-12))
    r.Weighted.profile

let test_weighted_disconnected_raises () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Weighted.weighted_conductance: graph must be connected") (fun () ->
      ignore (Weighted.weighted_conductance g))

let test_weighted_pushpull_bound () =
  let g = Gen.clique 8 in
  let b = Weighted.pushpull_round_bound ~backend:Weighted.Exact g in
  checkb "positive and finite" true (b > 0.0 && Float.is_finite b)

let test_weighted_backends_agree_small () =
  let g = Gen.dumbbell ~size:4 ~bridge_latency:3 in
  let e = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  let s = Weighted.weighted_conductance ~backend:Weighted.Sweep g in
  (* The sweep is within the Cheeger bracket of exact on every profile
     entry; critical latency should coincide on this clean bimodal
     instance. *)
  checki "same ell*" e.Weighted.ell_star s.Weighted.ell_star;
  checkb "sweep >= exact" true (s.Weighted.phi_star >= e.Weighted.phi_star -. 1e-9)

let test_weighted_auto_backend () =
  (* Auto picks Exact below 17 nodes and Sweep above; both must agree
     with their explicit counterparts. *)
  let small = Gen.dumbbell ~size:4 ~bridge_latency:3 in
  let auto = Weighted.weighted_conductance ~backend:Weighted.Auto small in
  let exact = Weighted.weighted_conductance ~backend:Weighted.Exact small in
  checkf "small auto = exact" exact.Weighted.phi_star auto.Weighted.phi_star;
  let big = Gen.ring_of_cliques ~cliques:4 ~size:8 ~bridge_latency:5 in
  let auto = Weighted.weighted_conductance ~backend:Weighted.Auto big in
  let sweep = Weighted.weighted_conductance ~backend:Weighted.Sweep big in
  checkf "large auto = sweep" sweep.Weighted.phi_star auto.Weighted.phi_star

let test_spectral_params () =
  (* More iterations and different seeds may only change the answer
     within the Cheeger bracket; with a fixed seed it is replayable. *)
  let g = Gen.dumbbell ~size:5 ~bridge_latency:1 in
  let a = Spectral.phi_ell ~iterations:50 ~seed:3 g 1 in
  let b = Spectral.phi_ell ~iterations:50 ~seed:3 g 1 in
  checkf "replayable" a b;
  let c = Spectral.phi_ell ~iterations:400 ~seed:9 g 1 in
  let exact = Exact.phi_ell g 1 in
  checkb "still >= exact" true (c >= exact -. 1e-9)

(* Scaling every latency by c leaves each phi value unchanged and
   scales the critical latency: phi_{c*l}(scaled G) = phi_l(G), so
   ell*(scaled) = c * ell*(G) and phi*(scaled) = phi*(G). *)
let latency_scaling_invariant (n, c, seed) =
  let rng = Rng.of_int seed in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 5)) (Gen.erdos_renyi_connected rng ~n ~p:0.5) in
  let scaled = Graph.map_latencies (fun _ _ l -> c * l) g in
  let a = Weighted.weighted_conductance ~backend:Weighted.Exact g in
  let b = Weighted.weighted_conductance ~backend:Weighted.Exact scaled in
  b.Weighted.ell_star = c * a.Weighted.ell_star
  && Float.abs (b.Weighted.phi_star -. a.Weighted.phi_star) < 1e-12

let prop_latency_scaling_invariance =
  QCheck.Test.make ~name:"phi* invariant under latency scaling" ~count:20
    QCheck.(triple (int_range 4 10) (int_range 2 5) (int_range 0 1000))
    latency_scaling_invariant

(* phi_4/4 = phi_5/5 = 3/40 exactly here; scaled by 3 the two ratios
   round apart, and the argmax used to flip from l = 12 to l = 15. *)
let test_weighted_scaling_tie () =
  checkb "(10, 3, 260)" true (latency_scaling_invariant (10, 3, 260))

let () =
  Alcotest.run "gossip_conductance"
    [
      ( "cut",
        [
          Alcotest.test_case "of_list/of_mask" `Quick test_cut_of_list_mask;
          Alcotest.test_case "volumes" `Quick test_cut_volumes;
          Alcotest.test_case "cut_edges_le" `Quick test_cut_edges_le;
          Alcotest.test_case "phi_ell of cut" `Quick test_cut_phi_ell;
          Alcotest.test_case "empty side" `Quick test_cut_empty_side;
        ] );
      ( "exact",
        [
          Alcotest.test_case "P4" `Quick test_exact_path4;
          Alcotest.test_case "K2" `Quick test_exact_two_nodes;
          Alcotest.test_case "K4" `Quick test_exact_clique;
          Alcotest.test_case "dumbbell" `Quick test_exact_dumbbell;
          Alcotest.test_case "weight threshold" `Quick test_exact_weight_threshold;
          Alcotest.test_case "monotone in ell" `Quick test_exact_monotone_in_ell;
          Alcotest.test_case "with_cut consistent" `Quick test_exact_with_cut_consistent;
          Alcotest.test_case "n too large" `Quick test_exact_too_large;
          qtest prop_exact_lower_bounds_random_cuts;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "dumbbell" `Quick test_spectral_dumbbell;
          Alcotest.test_case "cycle" `Quick test_spectral_cycle;
          Alcotest.test_case "clique" `Quick test_spectral_clique;
          Alcotest.test_case "ring of cliques" `Quick test_spectral_ring_of_cliques;
          Alcotest.test_case "weight threshold" `Quick test_spectral_weight_threshold;
          Alcotest.test_case "with_cut consistent" `Quick test_spectral_with_cut_consistent;
          qtest prop_spectral_upper_bounds_exact;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "unit graph" `Quick test_weighted_unit_graph;
          Alcotest.test_case "ring of cliques" `Quick test_weighted_ring_of_cliques;
          Alcotest.test_case "fast beats slow" `Quick test_weighted_fast_beats_slow;
          Alcotest.test_case "profile" `Quick test_weighted_profile;
          Alcotest.test_case "disconnected raises" `Quick test_weighted_disconnected_raises;
          Alcotest.test_case "push-pull bound" `Quick test_weighted_pushpull_bound;
          Alcotest.test_case "backends agree" `Quick test_weighted_backends_agree_small;
          qtest prop_latency_scaling_invariance;
          Alcotest.test_case "scaling tie" `Quick test_weighted_scaling_tie;
          Alcotest.test_case "auto backend" `Quick test_weighted_auto_backend;
          Alcotest.test_case "spectral params" `Quick test_spectral_params;
        ] );
    ]
