(* Tests for the Baswana-Sen spanner with orientation (Appendix D,
   Lemma 13). *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Spanner = Gossip_core.Spanner

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let test_k1_is_identity () =
  let g = Gen.clique 8 in
  let s = Spanner.build (Rng.of_int 1) g ~k:1 () in
  checki "all edges kept" (Graph.m g) (Spanner.edge_count s);
  Alcotest.check (Alcotest.float 1e-9) "stretch 1" 1.0 (Spanner.stretch s)

let test_connectivity_preserved () =
  List.iter
    (fun (name, g) ->
      let s = Spanner.build (Rng.of_int 2) g ~k:3 () in
      if not (Graph.is_connected s.Spanner.spanner) then
        Alcotest.failf "%s spanner disconnected" name)
    [
      ("clique", Gen.clique 20);
      ("grid", Gen.grid 5 5);
      ("cycle", Gen.cycle 15);
      ("ring-of-cliques", Gen.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:3);
    ]

let test_stretch_bound_k2 () =
  let rng = Rng.of_int 3 in
  let g = Gen.erdos_renyi_connected rng ~n:40 ~p:0.3 in
  let s = Spanner.build rng g ~k:2 () in
  checkb "stretch <= 3" true (Spanner.stretch s <= 3.0 +. 1e-9)

let test_stretch_bound_k3_weighted () =
  let rng = Rng.of_int 4 in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 10)) (Gen.erdos_renyi_connected rng ~n:40 ~p:0.3) in
  let s = Spanner.build rng g ~k:3 () in
  checkb "stretch <= 5" true (Spanner.stretch s <= 5.0 +. 1e-9)

let test_sparsification () =
  (* On a dense graph, k = log n should keep O(n log n) edges. *)
  let rng = Rng.of_int 5 in
  let n = 64 in
  let g = Gen.clique n in
  let k = 6 in
  let s = Spanner.build rng g ~k () in
  let nf = float_of_int n in
  checkb "far fewer edges than the clique" true
    (float_of_int (Spanner.edge_count s) <= 8.0 *. nf *. log nf);
  checkb "sparser than base" true (Spanner.edge_count s < Graph.m g / 4)

let test_out_degree_bound () =
  (* Lemma 13 shape: out-degree O(n^(1/k) log n). *)
  let rng = Rng.of_int 6 in
  let n = 64 in
  let g = Gen.clique n in
  let k = 6 in
  let s = Spanner.build rng g ~k () in
  let bound = 8.0 *. (float_of_int n ** (1.0 /. float_of_int k)) *. log (float_of_int n) in
  checkb "out-degree bounded" true (float_of_int (Spanner.max_out_degree s) <= bound)

let test_deterministic_given_seed () =
  let g = Gen.erdos_renyi_connected (Rng.of_int 7) ~n:30 ~p:0.3 in
  let s1 = Spanner.build (Rng.of_int 42) g ~k:3 () in
  let s2 = Spanner.build (Rng.of_int 42) g ~k:3 () in
  checki "same edge count" (Spanner.edge_count s1) (Spanner.edge_count s2);
  checkb "same edges" true
    (Graph.edges s1.Spanner.spanner = Graph.edges s2.Spanner.spanner)

let test_n_hat_overestimate_still_works () =
  (* Lemma 13: running with n_hat = n^2 degrades only the degree
     bound. *)
  let rng = Rng.of_int 8 in
  let g = Gen.erdos_renyi_connected rng ~n:30 ~p:0.4 in
  let s = Spanner.build rng g ~k:4 ~n_hat:(30 * 30) () in
  checkb "still connected" true (Graph.is_connected s.Spanner.spanner);
  checkb "stretch <= 7" true (Spanner.stretch s <= 7.0 +. 1e-9)

let test_out_edges_cover_spanner () =
  let rng = Rng.of_int 9 in
  let g = Gen.grid 4 4 in
  let s = Spanner.build rng g ~k:2 () in
  let oriented = Array.fold_left (fun acc a -> acc + Array.length a) 0 s.Spanner.out_edges in
  checki "each spanner edge oriented exactly once" (Spanner.edge_count s) oriented

let test_invalid_k () =
  Alcotest.check_raises "k=0" (Invalid_argument "Spanner.build: need k >= 1") (fun () ->
      ignore (Spanner.build (Rng.of_int 1) (Gen.path 3) ~k:0 ()))

let test_disconnected_base () =
  (* Spanners of disconnected graphs span each component. *)
  let g = Graph.of_edges ~n:6 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (4, 5, 1) ] in
  let s = Spanner.build (Rng.of_int 10) g ~k:2 () in
  checkb "components spanned" true
    (Gossip_graph.Paths.distance s.Spanner.spanner 0 2 < Gossip_graph.Paths.unreachable)

let prop_stretch_respects_2k_minus_1 =
  QCheck.Test.make ~name:"stretch <= 2k-1 on random weighted graphs" ~count:20
    QCheck.(triple (int_range 8 32) (int_range 1 4) (int_range 0 1000))
    (fun (n, k, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 8)) (Gen.erdos_renyi_connected rng ~n ~p:0.4)
      in
      let s = Spanner.build rng g ~k () in
      Spanner.stretch s <= float_of_int ((2 * k) - 1) +. 1e-9)

let prop_spanner_subgraph =
  QCheck.Test.make ~name:"spanner edges are base edges with same latency" ~count:20
    QCheck.(pair (int_range 6 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 9)) (Gen.erdos_renyi_connected rng ~n ~p:0.4)
      in
      let s = Spanner.build rng g ~k:3 () in
      List.for_all
        (fun { Graph.u; v; latency } -> Graph.latency g u v = Some latency)
        (Graph.edges s.Spanner.spanner))

let prop_spanner_spans =
  QCheck.Test.make ~name:"spanner of connected base is spanning" ~count:20
    QCheck.(pair (int_range 5 30) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.4 in
      let s = Spanner.build rng g ~k:3 () in
      Graph.is_connected s.Spanner.spanner && Spanner.edge_count s >= n - 1)

(* The flat build against its Hashtbl reference twin (test/setup_ref.ml):
   the same out-edge rows in the same order — RR Broadcast walks them in
   that order, so recorded trajectories rest on it — the same spanner,
   and the same number of draws. *)
let same_as_reference ?n_hat g ~k ~seed =
  let r_flat = Rng.of_int seed and r_ref = Rng.of_int seed in
  let flat = Spanner.build r_flat g ~k ?n_hat () in
  let twin = Setup_ref.spanner_build r_ref g ~k ?n_hat () in
  flat.Spanner.out_edges = twin.Spanner.out_edges
  && Graph.edges flat.Spanner.spanner = Graph.edges twin.Spanner.spanner
  && Rng.bits64 r_flat = Rng.bits64 r_ref

(* Families whose rows and cluster tables pass 32 entries (cliques of 34
   and more, BA hubs), so the emulated table resizes, plus disconnected
   bases (sparse G(n,p), two disjoint cliques). *)
let twin_graph family size seed =
  let rng = Rng.of_int seed in
  let lat g = Gen.with_latencies rng (Gen.Uniform (1, 8)) g in
  match family with
  | 0 -> lat (Gen.barabasi_albert rng ~n:(40 + (20 * size)) ~attach:(1 + (size mod 4)))
  | 1 -> lat (Gen.watts_strogatz rng ~n:(30 + (10 * size)) ~k:(2 + (size mod 3)) ~beta:0.1)
  | 2 -> lat (Gen.erdos_renyi_connected rng ~n:(10 + (3 * size)) ~p:0.3)
  | 3 -> Gen.ring_of_cliques ~cliques:(3 + (size mod 5)) ~size:(2 + size) ~bridge_latency:4
  | 4 ->
      Gossip_scale.Csr.to_graph
        (Gossip_scale.Csr.braided_ring ~cliques:(3 + size) ~size:(4 + (size mod 9))
           ~bridges:(1 + (size mod 4)) ~bridge_latency:5)
  | 5 -> lat (Gen.clique (34 + (2 * size)))
  | 6 -> lat (Gen.erdos_renyi rng ~n:(20 + (4 * size)) ~p:0.06)
  | _ ->
      let c = 34 + size in
      let half = Graph.edges (Gen.clique c) in
      lat
        (Graph.of_edges ~n:(2 * c)
           (List.concat_map
              (fun { Graph.u; v; latency } -> [ (u, v, latency); (u + c, v + c, latency) ])
              half))

let prop_flat_matches_reference =
  QCheck.Test.make ~name:"flat build = Hashtbl twin" ~count:200
    QCheck.(quad (int_range 0 7) (int_range 0 20) (int_range 1 12) (pair (int_range 0 3) small_nat))
    (fun (family, size, k, (over, seed)) ->
      let g = twin_graph family size seed in
      let n = Graph.n g in
      let n_hat = match over with 0 -> None | 1 -> Some n | 2 -> Some (4 * n) | _ -> Some (n * n) in
      same_as_reference ?n_hat g ~k ~seed)

(* The benchmark's spanner (a 10,000-node braided ring at k = 14) and a
   BA graph whose hubs hold hundreds of neighbors. *)
let test_flat_matches_reference_large () =
  let braid =
    Gossip_scale.Csr.to_graph
      (Gossip_scale.Csr.braided_ring ~cliques:625 ~size:16 ~bridges:4 ~bridge_latency:8)
  in
  checkb "braided ring, k = 14" true (same_as_reference braid ~k:14 ~seed:1042);
  let rng = Rng.of_int 3 in
  let ba = Gen.with_latencies rng (Gen.Uniform (1, 8)) (Gen.barabasi_albert rng ~n:5000 ~attach:3) in
  checkb "BA hubs, k = 13" true (same_as_reference ba ~k:13 ~seed:7);
  checkb "BA hubs, k = 2, n_hat = n^2" true (same_as_reference ba ~k:2 ~n_hat:(5000 * 5000) ~seed:8)

let () =
  Alcotest.run "gossip_spanner"
    [
      ( "spanner",
        [
          Alcotest.test_case "k=1 identity" `Quick test_k1_is_identity;
          Alcotest.test_case "connectivity preserved" `Quick test_connectivity_preserved;
          Alcotest.test_case "stretch k=2" `Quick test_stretch_bound_k2;
          Alcotest.test_case "stretch k=3 weighted" `Quick test_stretch_bound_k3_weighted;
          Alcotest.test_case "sparsification" `Quick test_sparsification;
          Alcotest.test_case "out-degree bound (Lemma 13)" `Quick test_out_degree_bound;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "n_hat overestimate" `Quick test_n_hat_overestimate_still_works;
          Alcotest.test_case "orientation covers" `Quick test_out_edges_cover_spanner;
          Alcotest.test_case "invalid k" `Quick test_invalid_k;
          Alcotest.test_case "disconnected base" `Quick test_disconnected_base;
          qtest prop_stretch_respects_2k_minus_1;
          qtest prop_spanner_subgraph;
          qtest prop_spanner_spans;
          qtest prop_flat_matches_reference;
          Alcotest.test_case "twin on large graphs" `Quick test_flat_matches_reference_large;
        ] );
    ]
