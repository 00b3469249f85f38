(* Tests for gossip_graph: Graph, Gen, Paths. *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Paths = Gossip_graph.Paths

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let triangle () = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 2); (0, 2, 3) ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = triangle () in
  checki "n" 3 (Graph.n g);
  checki "m" 3 (Graph.m g);
  checki "degree" 2 (Graph.degree g 0);
  checki "max degree" 2 (Graph.max_degree g)

let test_graph_neighbors_sorted () =
  let g = Graph.of_edges ~n:4 [ (2, 0, 1); (2, 3, 1); (2, 1, 1) ] in
  let ids = Array.map fst (Graph.neighbors g 2) in
  Alcotest.check (Alcotest.array Alcotest.int) "sorted" [| 0; 1; 3 |] ids

let test_graph_latency () =
  let g = triangle () in
  Alcotest.check (Alcotest.option Alcotest.int) "lat(1,2)" (Some 2) (Graph.latency g 1 2);
  Alcotest.check (Alcotest.option Alcotest.int) "lat(2,1)" (Some 2) (Graph.latency g 2 1);
  checkb "mem" true (Graph.mem_edge g 0 2);
  Alcotest.check (Alcotest.option Alcotest.int) "absent" None
    (Graph.latency (Gen.path 4) 0 3)

let test_graph_validation () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Graph.of_edges: self-loop" (fun () -> ignore (Graph.of_edges ~n:2 [ (0, 0, 1) ]));
  raises "Graph.of_edges: parallel edge" (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 1, 1); (1, 0, 2) ]));
  raises "Graph.of_edges: latency must be >= 1" (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 1, 0) ]));
  raises "Graph.of_edges: endpoint out of range" (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 2, 1) ]));
  (* Per-edge checks run over the whole list before parallel edges are
     looked for, so the later self-loop is the fault reported. *)
  raises "Graph.of_edges: self-loop" (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 1, 1); (1, 0, 1); (1, 1, 1) ]))

(* Graph.of_edges against the Hashtbl build it replaced
   (test/setup_ref.ml): random simple edge lists in random order and
   orientation, rows of up to 89 neighbors, some with one edge repeated
   reversed at a random place. *)
let prop_of_edges_matches_reference =
  QCheck.Test.make ~name:"of_edges = Hashtbl twin on random edge lists" ~count:200
    QCheck.(quad (int_range 1 90) (int_range 0 100) bool small_nat)
    (fun (n, density, dup, seed) ->
      let rng = Rng.of_int seed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.int rng 100 < density then begin
            let lat = 1 + Rng.int rng 9 in
            edges := (if Rng.bool rng then (u, v, lat) else (v, u, lat)) :: !edges
          end
        done
      done;
      let a = Array.of_list !edges in
      Rng.shuffle rng a;
      let l = Array.to_list a in
      let l =
        if dup && a <> [||] then begin
          let u, v, lat = Rng.pick rng a and at = Rng.int rng (Array.length a + 1) in
          List.filteri (fun i _ -> i < at) l @ ((v, u, lat) :: List.filteri (fun i _ -> i >= at) l)
        end
        else l
      in
      let outcome f = match f () with x -> Ok x | exception Invalid_argument msg -> Error msg in
      outcome (fun () ->
          let g = Graph.of_edges ~n l in
          (Array.init n (Graph.neighbors g), Graph.m g))
      = outcome (fun () -> Setup_ref.of_edges ~n l))

let test_graph_edges_listing () =
  let g = triangle () in
  let es = Graph.edges g in
  checki "3 edges" 3 (List.length es);
  List.iter (fun { Graph.u; v; _ } -> checkb "u<v" true (u < v)) es

let test_graph_latency_queries () =
  let g = triangle () in
  checki "max latency" 3 (Graph.max_latency g);
  Alcotest.check (Alcotest.list Alcotest.int) "distinct" [ 1; 2; 3 ]
    (Graph.distinct_latencies g)

let test_graph_subgraph_le () =
  let g = triangle () in
  let s = Graph.subgraph_le g 2 in
  checki "2 edges kept" 2 (Graph.m s);
  checkb "slow edge dropped" false (Graph.mem_edge s 0 2);
  checki "same n" 3 (Graph.n s)

let test_graph_map_latencies () =
  let g = triangle () in
  let doubled = Graph.map_latencies (fun _ _ l -> 2 * l) g in
  Alcotest.check (Alcotest.option Alcotest.int) "doubled" (Some 4) (Graph.latency doubled 1 2)

let test_graph_connectivity () =
  checkb "path connected" true (Graph.is_connected (Gen.path 5));
  checkb "two components" false
    (Graph.is_connected (Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ]));
  checkb "single node" true (Graph.is_connected (Graph.of_edges ~n:1 []))

let test_graph_volume () =
  let g = Gen.star 5 in
  checki "hub volume" 4 (Graph.volume g [ 0 ]);
  checki "leaves volume" 4 (Graph.volume g [ 1; 2; 3; 4 ]);
  checki "total volume" (2 * Graph.m g) (Graph.volume g [ 0; 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Gen *)

let test_gen_clique () =
  let g = Gen.clique 6 in
  checki "edges" 15 (Graph.m g);
  checki "degree" 5 (Graph.max_degree g);
  checkb "connected" true (Graph.is_connected g)

let test_gen_star () =
  let g = Gen.star 7 in
  checki "edges" 6 (Graph.m g);
  checki "hub degree" 6 (Graph.degree g 0);
  checki "leaf degree" 1 (Graph.degree g 3)

let test_gen_path_cycle () =
  let p = Gen.path 5 in
  checki "path edges" 4 (Graph.m p);
  checki "end degree" 1 (Graph.degree p 0);
  let c = Gen.cycle 5 in
  checki "cycle edges" 5 (Graph.m c);
  for v = 0 to 4 do
    checki "cycle degree 2" 2 (Graph.degree c v)
  done

let test_gen_grid_torus () =
  let g = Gen.grid 3 4 in
  checki "grid n" 12 (Graph.n g);
  checki "grid edges" ((2 * 4) + (3 * 3)) (Graph.m g);
  let t = Gen.torus 3 4 in
  for v = 0 to 11 do
    checki "torus 4-regular" 4 (Graph.degree t v)
  done

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  checki "n" 16 (Graph.n g);
  for v = 0 to 15 do
    checki "d-regular" 4 (Graph.degree g v)
  done;
  checkb "connected" true (Graph.is_connected g)

let test_gen_binary_tree () =
  let g = Gen.binary_tree 10 in
  checki "edges" 9 (Graph.m g);
  checkb "connected" true (Graph.is_connected g)

let test_gen_erdos_renyi_extremes () =
  let rng = Rng.of_int 1 in
  let full = Gen.erdos_renyi rng ~n:8 ~p:1.0 in
  checki "p=1 is clique" 28 (Graph.m full);
  let empty = Gen.erdos_renyi rng ~n:8 ~p:0.0 in
  checki "p=0 empty" 0 (Graph.m empty)

let test_gen_erdos_renyi_connected () =
  let rng = Rng.of_int 2 in
  let g = Gen.erdos_renyi_connected rng ~n:40 ~p:0.2 in
  checkb "connected" true (Graph.is_connected g)

let test_gen_random_regular () =
  let rng = Rng.of_int 3 in
  let g = Gen.random_regular rng ~n:20 ~d:4 in
  for v = 0 to 19 do
    checki "regular" 4 (Graph.degree g v)
  done

let test_gen_random_regular_validation () =
  let rng = Rng.of_int 4 in
  Alcotest.check_raises "odd product" (Invalid_argument "Gen.random_regular: n*d must be even")
    (fun () -> ignore (Gen.random_regular rng ~n:5 ~d:3))

let test_gen_ring_of_cliques () =
  let g = Gen.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:9 in
  checki "n" 20 (Graph.n g);
  checkb "connected" true (Graph.is_connected g);
  checki "max latency is bridge" 9 (Graph.max_latency g);
  (* 4 cliques of C(5,2)=10 edges plus 4 bridges. *)
  checki "edges" 44 (Graph.m g)

let test_gen_dumbbell () =
  let g = Gen.dumbbell ~size:4 ~bridge_latency:5 in
  checki "n" 8 (Graph.n g);
  checki "edges" 13 (Graph.m g);
  Alcotest.check (Alcotest.option Alcotest.int) "bridge" (Some 5) (Graph.latency g 3 4)

let test_gen_latency_specs () =
  let rng = Rng.of_int 5 in
  checki "unit" 1 (Gen.draw_latency rng Gen.Unit);
  checki "fixed" 7 (Gen.draw_latency rng (Gen.Fixed 7));
  for _ = 1 to 200 do
    let u = Gen.draw_latency rng (Gen.Uniform (3, 9)) in
    checkb "uniform range" true (u >= 3 && u <= 9);
    let b = Gen.draw_latency rng (Gen.Bimodal { fast = 1; slow = 50; p_fast = 0.5 }) in
    checkb "bimodal values" true (b = 1 || b = 50);
    let p =
      Gen.draw_latency rng
        (Gen.Power_law { min_latency = 2; max_latency = 100; exponent = 2.0 })
    in
    checkb "power-law range" true (p >= 2 && p <= 100)
  done

let test_gen_with_latencies () =
  let rng = Rng.of_int 6 in
  let g = Gen.with_latencies rng (Gen.Fixed 4) (Gen.cycle 6) in
  checki "structure kept" 6 (Graph.m g);
  Graph.iter_edges (fun e -> checki "latency 4" 4 e.Graph.latency) g

let prop_gen_er_connected =
  QCheck.Test.make ~name:"er_connected always connected" ~count:20
    QCheck.(int_range 5 40)
    (fun n ->
      let rng = Rng.of_int n in
      Graph.is_connected (Gen.erdos_renyi_connected rng ~n ~p:0.4))

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_paths_dijkstra_path_graph () =
  let g = Gen.path 5 in
  let d = Paths.dijkstra g 0 in
  Alcotest.check (Alcotest.array Alcotest.int) "distances" [| 0; 1; 2; 3; 4 |] d

let test_paths_dijkstra_weighted () =
  (* 0-1 lat 10, 0-2 lat 1, 2-1 lat 2: shortest 0->1 is 3 via 2. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 10); (0, 2, 1); (2, 1, 2) ] in
  checki "via detour" 3 (Paths.distance g 0 1)

let test_paths_diameters () =
  let g = Gen.dumbbell ~size:3 ~bridge_latency:5 in
  checki "weighted diameter" 7 (Paths.weighted_diameter g);
  checki "hop diameter" 3 (Paths.hop_diameter g)

let test_paths_eccentricity_radius () =
  let g = Gen.path 5 in
  checki "end ecc" 4 (Paths.eccentricity g 0);
  checki "center ecc" 2 (Paths.eccentricity g 2);
  checki "radius" 2 (Paths.weighted_radius g);
  checki "diameter" 4 (Paths.weighted_diameter g)

let test_paths_disconnected () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1) ] in
  checki "unreachable" Paths.unreachable (Paths.distance g 0 2);
  checki "diameter unreachable" Paths.unreachable (Paths.weighted_diameter g)

let test_paths_bfs_hops () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 100); (1, 2, 100) ] in
  Alcotest.check (Alcotest.array Alcotest.int) "hops ignore latency" [| 0; 1; 2 |]
    (Paths.bfs_hops g 0)

let test_paths_stretch_identity () =
  let g = Gen.clique 6 in
  Alcotest.check (Alcotest.float 1e-9) "stretch 1" 1.0 (Paths.stretch ~of_:g ~wrt:g)

let test_paths_stretch_star_spanner () =
  (* The star spans the triangle with stretch 2: edge (1,2) must detour
     through the hub. *)
  let g = Gen.clique 3 in
  let s = Gen.star 3 in
  Alcotest.check (Alcotest.float 1e-9) "stretch 2" 2.0 (Paths.stretch ~of_:s ~wrt:g)

let test_paths_stretch_disconnected () =
  let g = Gen.path 3 in
  let s = Graph.of_edges ~n:3 [ (0, 1, 1) ] in
  Alcotest.check (Alcotest.float 0.0) "infinite" infinity (Paths.stretch ~of_:s ~wrt:g)

let prop_paths_triangle_inequality =
  QCheck.Test.make ~name:"dijkstra triangle inequality" ~count:30
    QCheck.(int_range 4 25)
    (fun n ->
      let rng = Rng.of_int (n * 31) in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 10)) (Gen.erdos_renyi_connected rng ~n ~p:0.3)
      in
      let d0 = Paths.dijkstra g 0 in
      let ok = ref true in
      Graph.iter_edges
        (fun { Graph.u; v; latency } ->
          if d0.(v) > d0.(u) + latency || d0.(u) > d0.(v) + latency then ok := false)
        g;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dot *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_dot_undirected () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 7) ] in
  let dot = Gossip_graph.Dot.to_dot ~name:"demo" g in
  checkb "graph header" true (contains dot "graph demo {");
  checkb "fast edge bold" true (contains dot "0 -- 1 [style=bold]");
  checkb "slow edge labelled" true (contains dot "1 -- 2 [style=dashed, label=\"7\"]")

let test_dot_oriented () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 3) ] in
  let out = [| [| (1, 3) |]; [||] |] in
  let dot = Gossip_graph.Dot.oriented_to_dot ~out_edges:out g in
  checkb "digraph" true (contains dot "digraph G {");
  checkb "arc" true (contains dot "0 -> 1 [label=\"3\"]")

let test_dot_size_mismatch () =
  let g = Gen.path 3 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Dot.oriented_to_dot: orientation size mismatch")
    (fun () -> ignore (Gossip_graph.Dot.oriented_to_dot ~out_edges:[| [||] |] g))

let () =
  Alcotest.run "gossip_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
          Alcotest.test_case "latency lookup" `Quick test_graph_latency;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          qtest prop_of_edges_matches_reference;
          Alcotest.test_case "edge listing" `Quick test_graph_edges_listing;
          Alcotest.test_case "latency queries" `Quick test_graph_latency_queries;
          Alcotest.test_case "subgraph_le" `Quick test_graph_subgraph_le;
          Alcotest.test_case "map_latencies" `Quick test_graph_map_latencies;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "volume" `Quick test_graph_volume;
        ] );
      ( "gen",
        [
          Alcotest.test_case "clique" `Quick test_gen_clique;
          Alcotest.test_case "star" `Quick test_gen_star;
          Alcotest.test_case "path/cycle" `Quick test_gen_path_cycle;
          Alcotest.test_case "grid/torus" `Quick test_gen_grid_torus;
          Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
          Alcotest.test_case "binary tree" `Quick test_gen_binary_tree;
          Alcotest.test_case "erdos-renyi extremes" `Quick test_gen_erdos_renyi_extremes;
          Alcotest.test_case "erdos-renyi connected" `Quick test_gen_erdos_renyi_connected;
          Alcotest.test_case "random regular" `Quick test_gen_random_regular;
          Alcotest.test_case "random regular validation" `Quick
            test_gen_random_regular_validation;
          Alcotest.test_case "ring of cliques" `Quick test_gen_ring_of_cliques;
          Alcotest.test_case "dumbbell" `Quick test_gen_dumbbell;
          Alcotest.test_case "latency specs" `Quick test_gen_latency_specs;
          Alcotest.test_case "with_latencies" `Quick test_gen_with_latencies;
          qtest prop_gen_er_connected;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra path graph" `Quick test_paths_dijkstra_path_graph;
          Alcotest.test_case "dijkstra weighted detour" `Quick test_paths_dijkstra_weighted;
          Alcotest.test_case "diameters" `Quick test_paths_diameters;
          Alcotest.test_case "eccentricity/radius" `Quick test_paths_eccentricity_radius;
          Alcotest.test_case "disconnected" `Quick test_paths_disconnected;
          Alcotest.test_case "bfs hops" `Quick test_paths_bfs_hops;
          Alcotest.test_case "stretch identity" `Quick test_paths_stretch_identity;
          Alcotest.test_case "stretch star spanner" `Quick test_paths_stretch_star_spanner;
          Alcotest.test_case "stretch disconnected" `Quick test_paths_stretch_disconnected;
          qtest prop_paths_triangle_inequality;
        ] );
      ( "dot",
        [
          Alcotest.test_case "undirected" `Quick test_dot_undirected;
          Alcotest.test_case "oriented" `Quick test_dot_oriented;
          Alcotest.test_case "size mismatch" `Quick test_dot_size_mismatch;
        ] );
    ]
