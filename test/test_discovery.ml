(* Tests for latency discovery (Section 4.2). *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Discovery = Gossip_core.Discovery
module Wheel = Gossip_scale.Wheel_engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let test_probe_discovers_all () =
  let rng = Rng.of_int 1 in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 6)) (Gen.cycle 10) in
  let r = Discovery.probe g ~d_bound:(Graph.max_latency g) in
  checkb "complete" true r.Discovery.complete

let test_probe_latencies_correct () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 3); (1, 2, 5) ] in
  let r = Discovery.probe g ~d_bound:10 in
  checki "lat(0,1)" 3 (List.assoc 1 r.Discovery.known.(0));
  checki "lat(1,0)" 3 (List.assoc 0 r.Discovery.known.(1));
  checki "lat(1,2)" 5 (List.assoc 2 r.Discovery.known.(1))

let test_probe_bound_filters () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 2); (1, 2, 9) ] in
  let r = Discovery.probe g ~d_bound:3 in
  checkb "fast edge known" true (List.mem_assoc 1 r.Discovery.known.(0));
  checkb "slow edge unknown" false (List.mem_assoc 2 r.Discovery.known.(1));
  checkb "incomplete for max latency" true r.Discovery.complete
  (* complete refers to edges of latency <= d_bound only *)

let test_probe_rounds_formula () =
  (* Rounds = Delta + d_bound exactly. *)
  let g = Gen.star 8 in
  let r = Discovery.probe g ~d_bound:4 in
  checki "Delta + d" (Graph.max_degree g + 4) r.Discovery.rounds

let test_probe_doubling_reaches_target () =
  let rng = Rng.of_int 2 in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 7)) (Gen.cycle 8) in
  let r = Discovery.probe_doubling g ~target:(Graph.max_latency g) in
  checkb "complete" true r.Discovery.complete;
  (* Accumulated rounds exceed a single probe's. *)
  let single = Discovery.probe g ~d_bound:(Graph.max_latency g) in
  checkb "doubling costs more" true (r.Discovery.rounds >= single.Discovery.rounds)

let test_probe_invalid () =
  Alcotest.check_raises "bad bound" (Invalid_argument "Discovery.probe: need d_bound >= 1")
    (fun () -> ignore (Discovery.probe (Gen.path 3) ~d_bound:0))

let prop_probe_complete_on_random =
  QCheck.Test.make ~name:"probe with d=lmax discovers everything" ~count:20
    QCheck.(pair (int_range 4 25) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 9)) (Gen.erdos_renyi_connected rng ~n ~p:0.4)
      in
      (Discovery.probe g ~d_bound:(Graph.max_latency g)).Discovery.complete)

(* ------------------------------------------------------------------ *)
(* Round accounting *)

let test_probe_doubling_accounting () =
  (* Accumulated rounds are exactly the sum of per-attempt schedules:
     Σ (Δ + d) over d = 1, 2, 4, ..., first power of two >= target. *)
  let rng = Rng.of_int 3 in
  let g = Gen.with_latencies rng (Gen.Uniform (1, 6)) (Gen.cycle 9) in
  let target = Graph.max_latency g in
  let r = Discovery.probe_doubling g ~target in
  let delta = Graph.max_degree g in
  let expected =
    let rec go d acc =
      let acc = acc + Discovery.probe_rounds ~delta ~d_bound:d in
      if d >= target then acc else go (2 * d) acc
    in
    go 1 0
  in
  checki "rounds = sum of schedules" expected r.Discovery.rounds;
  checkb "complete at target = lmax" true r.Discovery.complete;
  (* Single-pass rounds come from the same oracle. *)
  let single = Discovery.probe g ~d_bound:4 in
  checki "probe rounds oracle" (Discovery.probe_rounds ~delta ~d_bound:4) single.Discovery.rounds

(* ------------------------------------------------------------------ *)
(* The scale probe kernel against the reference probe *)

module Csr = Gossip_scale.Csr

(* The discovered per-direction measurements must coincide with the
   reference probe's known lists: same edges, same latencies, same
   schedule length.  Both cursors walk the same ascending-neighbor
   rows, so this is exact, not statistical. *)
let check_probe_scale_parity n seed d_bound =
  let rng = Rng.of_int seed in
  let g =
    Gen.with_latencies rng (Gen.Uniform (1, 6)) (Gen.erdos_renyi_connected rng ~n ~p:0.3)
  in
  let core = Discovery.probe g ~d_bound in
  let csr = Csr.of_graph g in
  let r = Discovery.probe_scale (Wheel.session csr) (Rng.of_int (seed + 1)) csr ~d_bound in
  if r.Discovery.s_rounds <> core.Discovery.rounds then
    Alcotest.failf "rounds diverge: scale %d vs core %d" r.Discovery.s_rounds
      core.Discovery.rounds;
  if r.Discovery.s_complete <> core.Discovery.complete then
    Alcotest.failf "complete flags diverge (scale %b)" r.Discovery.s_complete;
  let o = Csr.oriented_of_csr csr in
  for u = 0 to n - 1 do
    let i = ref (Gossip_scale.I32.get o.Csr.o_row_ptr u) in
    Csr.oriented_iter_out o u (fun peer _lat ->
        let measured = r.Discovery.s_lat.(!i) in
        (match (List.assoc_opt peer core.Discovery.known.(u), measured) with
        | Some l, m when m = l -> ()
        | None, -1 -> ()
        | expected, m ->
            Alcotest.failf "edge %d->%d: scale measured %d, reference %s" u peer m
              (match expected with Some l -> string_of_int l | None -> "nothing"))
        ;
        incr i)
  done;
  (* The discovered CSR holds exactly the both-ways-measured edges. *)
  let known_undirected = ref 0 in
  Graph.iter_edges
    (fun { Graph.u; v; latency = _ } ->
      if List.mem_assoc v core.Discovery.known.(u) && List.mem_assoc u core.Discovery.known.(v)
      then incr known_undirected)
    g;
  checki "discovered edge count" !known_undirected r.Discovery.s_edges_known;
  checki "discovered CSR edge count" !known_undirected (Csr.m r.Discovery.s_discovered)

let prop_probe_scale_parity =
  QCheck.Test.make ~name:"scale discovery kernel = reference probe" ~count:25
    QCheck.(triple (int_range 4 40) (int_range 0 100_000) (int_range 1 8))
    (fun (n, seed, d_bound) ->
      check_probe_scale_parity n seed d_bound;
      true)

let test_probe_scale_sharded_parity () =
  let rng = Rng.of_int 21 in
  let g =
    Gen.with_latencies rng (Gen.Uniform (1, 5)) (Gen.erdos_renyi_connected rng ~n:60 ~p:0.15)
  in
  let csr = Csr.of_graph g in
  let run d = Discovery.probe_scale (Wheel.session ?domains:d csr) (Rng.of_int 9) csr ~d_bound:4 in
  let base = run None in
  List.iter
    (fun d ->
      let r = run (Some d) in
      checki (Printf.sprintf "rounds domains=%d" d) base.Discovery.s_rounds r.Discovery.s_rounds;
      checkb
        (Printf.sprintf "measurements domains=%d" d)
        true
        (base.Discovery.s_lat = r.Discovery.s_lat);
      checkb
        (Printf.sprintf "discovered graph domains=%d" d)
        true
        (Csr.equal base.Discovery.s_discovered r.Discovery.s_discovered))
    [ 2; 3; 4 ]

let test_probe_scale_faults_lose_edges () =
  (* A drop-everything plan measures nothing; the completeness audit
     says so instead of pretending. *)
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:4 ~bridge_latency:2 in
  let env =
    Wheel.env_of_faults
      {
        Gossip_sim.Engine.no_faults with
        drop = (fun ~initiator:_ ~responder:_ ~round:_ -> true);
      }
  in
  let r = Discovery.probe_scale (Wheel.session ~env csr) (Rng.of_int 2) csr ~d_bound:5 in
  checkb "nothing discovered" true (r.Discovery.s_edges_known = 0);
  checkb "not complete" false r.Discovery.s_complete

let () =
  Alcotest.run "gossip_discovery"
    [
      ( "discovery",
        [
          Alcotest.test_case "discovers all" `Quick test_probe_discovers_all;
          Alcotest.test_case "latencies correct" `Quick test_probe_latencies_correct;
          Alcotest.test_case "bound filters" `Quick test_probe_bound_filters;
          Alcotest.test_case "rounds formula" `Quick test_probe_rounds_formula;
          Alcotest.test_case "doubling" `Quick test_probe_doubling_reaches_target;
          Alcotest.test_case "doubling accounting" `Quick test_probe_doubling_accounting;
          Alcotest.test_case "invalid" `Quick test_probe_invalid;
          qtest prop_probe_complete_on_random;
        ] );
      ( "discovery-scale",
        [
          qtest prop_probe_scale_parity;
          Alcotest.test_case "sharded parity" `Quick test_probe_scale_sharded_parity;
          Alcotest.test_case "faults lose edges" `Quick test_probe_scale_faults_lose_edges;
        ] );
    ]
