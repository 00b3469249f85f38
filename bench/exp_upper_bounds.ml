(* Upper-bound experiments: E4 (Theorem 12), E5 (Lemma 13/Theorem 14),
   E6 (Lemma 15/Corollary 16), E7 (Theorem 19), E8 (Lemmas 24-25),
   E10 (Theorem 20), E11 (footnote 2). *)

module Rng = Gossip_util.Rng
module Table = Gossip_util.Table
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Gadgets = Gossip_graph.Gadgets
module Paths = Gossip_graph.Paths
module Weighted = Gossip_conductance.Weighted
module Push_pull = Gossip_core.Push_pull
module Flooding = Gossip_core.Flooding
module Spanner = Gossip_core.Spanner
module Rr = Gossip_core.Rr_broadcast
module Eid = Gossip_core.Eid
module Pd = Gossip_core.Path_discovery
module Dis = Gossip_core.Dissemination
module Rumor = Gossip_core.Rumor
open Common

let ln x = log x

let upper_families () =
  let rng = Rng.of_int 99 in
  [
    ("clique-64", Gen.clique 64);
    ("er-48-p0.15", Gen.erdos_renyi_connected (Rng.split rng) ~n:48 ~p:0.15);
    ( "er-48-bimodal",
      Gen.with_latencies (Rng.split rng)
        (Gen.Bimodal { fast = 1; slow = 16; p_fast = 0.7 })
        (Gen.erdos_renyi_connected (Rng.split rng) ~n:48 ~p:0.15) );
    ("ring-of-cliques-6x8", Gen.ring_of_cliques ~cliques:6 ~size:8 ~bridge_latency:6);
    ("dumbbell-16", Gen.dumbbell ~size:16 ~bridge_latency:10);
  ]

(* E4 — Theorem 12: push-pull completes within
   O((ell_star/phi_star) ln n) rounds across graph families. *)
let e4 () =
  section "E4  Theorem 12: push-pull vs the weighted-conductance bound"
    "Measured broadcast rounds against (ell*/phi*) * ln n per family; the\n\
     ratio column must stay bounded by a small constant.";
  let trials = 3 in
  let t =
    Table.create ~title:"E4: push-pull upper bound"
      ~columns:
        [
          ("family", Table.Left);
          ("n", Table.Right);
          ("D", Table.Right);
          ("ell*", Table.Right);
          ("phi*", Table.Right);
          ("bound", Table.Right);
          ("measured", Table.Right);
          ("ratio", Table.Right);
        ]
  in
  List.iter
    (fun (name, g) ->
      let wc = Weighted.weighted_conductance ~backend:Weighted.Sweep g in
      let bound =
        float_of_int wc.Weighted.ell_star /. wc.Weighted.phi_star *. ln (float_of_int (Graph.n g))
      in
      let measured =
        mean_of ~trials ~base_seed:31 (fun seed ->
            let r = Push_pull.broadcast (Rng.of_int seed) g ~source:0 ~max_rounds:5_000_000 in
            float_of_int (rounds_exn r.Push_pull.rounds))
      in
      Table.add_row t
        [
          name;
          fmt_i (Graph.n g);
          fmt_i (Paths.weighted_diameter g);
          fmt_i wc.Weighted.ell_star;
          fmt_f ~d:4 wc.Weighted.phi_star;
          fmt_f bound;
          fmt_f measured;
          fmt_f ~d:2 (measured /. bound);
        ])
    (upper_families ());
  Table.print t

(* E5 — Lemma 13 / Theorem 14: spanner size O(n log n), out-degree
   O(log n), stretch O(log n) at k = log n. *)
let e5 () =
  section "E5  Lemma 13 / Theorem 14: Baswana-Sen spanner quality"
    "At k = ceil(log2 n): edge count vs n*log n, oriented out-degree vs\n\
     log n, and stretch vs 2k-1.  Then a k-sweep at n = 128.";
  let t =
    Table.create ~title:"E5a: spanner vs n (dense random base, k = log2 n)"
      ~columns:
        [
          ("n", Table.Right);
          ("base edges", Table.Right);
          ("spanner edges", Table.Right);
          ("n ln n", Table.Right);
          ("max out-deg", Table.Right);
          ("ln n", Table.Right);
          ("stretch", Table.Right);
          ("2k-1", Table.Right);
        ]
  in
  let edge_pts = ref [] in
  List.iter
    (fun n ->
      let rng = Rng.of_int (n * 3) in
      let p = min 1.0 (4.0 *. ln (float_of_int n) /. float_of_int n) in
      let g =
        Gen.with_latencies rng (Gen.Uniform (1, 8)) (Gen.erdos_renyi_connected rng ~n ~p)
      in
      let k = Spanner.ceil_log2 n in
      let s = Spanner.build rng g ~k () in
      edge_pts := (float_of_int n, float_of_int (Spanner.edge_count s)) :: !edge_pts;
      Table.add_row t
        [
          fmt_i n;
          fmt_i (Graph.m g);
          fmt_i (Spanner.edge_count s);
          fmt_f (float_of_int n *. ln (float_of_int n));
          fmt_i (Spanner.max_out_degree s);
          fmt_f (ln (float_of_int n));
          fmt_f ~d:2 (Spanner.stretch s);
          fmt_i ((2 * k) - 1);
        ])
    [ 32; 64; 128; 256; 512 ];
  Table.print t;
  let pts = List.rev !edge_pts in
  ignore
    (report_exponent ~label:"spanner edges vs n" ~claimed:"~1.0 (O(n log n))"
       (Array.of_list (List.map fst pts))
       (Array.of_list (List.map snd pts)));
  let t =
    Table.create ~title:"E5b: k-sweep at n = 128 (clique base)"
      ~columns:
        [
          ("k", Table.Right);
          ("spanner edges", Table.Right);
          ("max out-deg", Table.Right);
          ("stretch", Table.Right);
          ("2k-1", Table.Right);
        ]
  in
  let g = Gen.clique 128 in
  List.iter
    (fun k ->
      let s = Spanner.build (Rng.of_int (k * 7)) g ~k () in
      Table.add_row t
        [
          fmt_i k;
          fmt_i (Spanner.edge_count s);
          fmt_i (Spanner.max_out_degree s);
          fmt_f ~d:2 (Spanner.stretch s);
          fmt_i ((2 * k) - 1);
        ])
    [ 1; 2; 3; 4; 6; 8 ];
  Table.print t

(* E6 — Lemma 15 / Corollary 16: RR broadcast runs in
   O(k * Delta_out + k) rounds and solves all-to-all over the
   spanner. *)
let e6 () =
  section "E6  Lemma 15 / Corollary 16: RR Broadcast over the oriented spanner"
    "RR(k) with k = stretch * D: rounds used (= k*Delta_out + 2k by\n\
     construction) and whether all-to-all completed.";
  let t =
    Table.create ~title:"E6: RR broadcast"
      ~columns:
        [
          ("family", Table.Left);
          ("D", Table.Right);
          ("k_rr", Table.Right);
          ("Delta_out", Table.Right);
          ("rounds", Table.Right);
          ("k*Dout+2k", Table.Right);
          ("all-to-all", Table.Left);
        ]
  in
  List.iter
    (fun (name, g) ->
      let rng = Rng.of_int 5 in
      let k_span = 3 in
      let s = Spanner.build rng g ~k:k_span () in
      let d = Paths.weighted_diameter g in
      let k_rr = d * ((2 * k_span) - 1) in
      let r = Rr.run_on_spanner s ~k:k_rr () in
      let dout =
        Array.fold_left
          (fun acc a ->
            max acc (Array.length (Array.of_list (List.filter (fun (_, l) -> l <= k_rr) (Array.to_list a)))))
          0 s.Spanner.out_edges
      in
      Table.add_row t
        [
          name;
          fmt_i d;
          fmt_i k_rr;
          fmt_i dout;
          fmt_i r.Rr.rounds;
          fmt_i ((k_rr * dout) + (2 * k_rr));
          string_of_bool (Rumor.all_to_all_done r.Rr.sets);
        ])
    (upper_families ());
  Table.print t

let eid_families () =
  let rng = Rng.of_int 1234 in
  [
    ("cycle-24", Gen.cycle 24);
    ("grid-5x5", Gen.grid 5 5);
    ("ring-of-cliques-4x6", Gen.ring_of_cliques ~cliques:4 ~size:6 ~bridge_latency:4);
    ( "er-32-lat(1,4)",
      Gen.with_latencies (Rng.split rng) (Gen.Uniform (1, 4))
        (Gen.erdos_renyi_connected (Rng.split rng) ~n:32 ~p:0.25) );
    ("dumbbell-8", Gen.dumbbell ~size:8 ~bridge_latency:6);
  ]

(* E7 — Theorem 19: General EID solves all-to-all in O(D log^3 n). *)
let e7 () =
  section "E7  Theorems 14 & 19: EID and General EID"
    "General EID (unknown D, guess-and-double + termination check): total\n\
     rounds against D * ln^3 n; ratio must stay bounded.  All verdicts\n\
     must be unanimous (Lemma 18).";
  let t =
    Table.create ~title:"E7: General EID"
      ~columns:
        [
          ("family", Table.Left);
          ("n", Table.Right);
          ("D", Table.Right);
          ("rounds", Table.Right);
          ("D*ln^3 n", Table.Right);
          ("ratio", Table.Right);
          ("k_final", Table.Right);
          ("attempts", Table.Right);
          ("ok", Table.Left);
        ]
  in
  List.iter
    (fun (name, g) ->
      let d = Paths.weighted_diameter g in
      let r = Eid.run (Rng.of_int 77) g () in
      let pred = float_of_int d *. (ln (float_of_int (Graph.n g)) ** 3.0) in
      Table.add_row t
        [
          name;
          fmt_i (Graph.n g);
          fmt_i d;
          fmt_i r.Eid.rounds;
          fmt_f pred;
          fmt_f ~d:2 (float_of_int r.Eid.rounds /. pred);
          fmt_i r.Eid.k_final;
          fmt_i (List.length r.Eid.attempts);
          string_of_bool (r.Eid.success && r.Eid.unanimous);
        ])
    (eid_families ());
  Table.print t;
  (* n-sweep on cycles (D grows linearly with n): General EID rounds
     must scale near-linearly in D * polylog. *)
  let t =
    Table.create ~title:"E7b: General EID on cycles, n sweep"
      ~columns:
        [ ("n = D+1", Table.Right); ("rounds", Table.Right); ("D*ln^3 n", Table.Right) ]
  in
  let pts = ref [] in
  List.iter
    (fun n ->
      let g = Gen.cycle n in
      let d = n / 2 in
      let r = Eid.run (Rng.of_int (n * 3)) g () in
      pts := (float_of_int d, float_of_int r.Eid.rounds) :: !pts;
      Table.add_row t
        [
          fmt_i n;
          fmt_i r.Eid.rounds;
          fmt_f (float_of_int d *. (ln (float_of_int n) ** 3.0));
        ])
    [ 8; 16; 32; 64; 128 ];
  Table.print t;
  let pts = List.rev !pts in
  ignore
    (report_exponent ~label:"EID rounds vs D" ~claimed:"<= 1 (the bound is linear in D; rumor accumulation across attempts finishes early)"
       (Array.of_list (List.map fst pts))
       (Array.of_list (List.map snd pts)))

(* E8 — Lemmas 24-25: the T(k) schedule. *)
let e8 () =
  section "E8  Lemmas 24-25: Path Discovery / T(k)"
    "Path Discovery (no bound on n needed): rounds against\n\
     D * ln^2 n * log2 D.";
  let t =
    Table.create ~title:"E8: Path Discovery"
      ~columns:
        [
          ("family", Table.Left);
          ("D", Table.Right);
          ("rounds", Table.Right);
          ("D*ln^2 n*log2 D", Table.Right);
          ("ratio", Table.Right);
          ("k_final", Table.Right);
          ("ok", Table.Left);
        ]
  in
  List.iter
    (fun (name, g) ->
      let d = Paths.weighted_diameter g in
      let r = Pd.run g in
      let pred =
        float_of_int d
        *. (ln (float_of_int (Graph.n g)) ** 2.0)
        *. (ln (float_of_int (max 2 d)) /. ln 2.0)
      in
      Table.add_row t
        [
          name;
          fmt_i d;
          fmt_i r.Pd.rounds;
          fmt_f pred;
          fmt_f ~d:2 (float_of_int r.Pd.rounds /. pred);
          fmt_i r.Pd.k_final;
          string_of_bool (r.Pd.success && r.Pd.unanimous);
        ])
    (eid_families ());
  Table.print t

(* E10 — Theorem 20: the unified algorithm.  We report both branches,
   the measured winner, and the winner the paper's formulas predict. *)
let e10 () =
  section "E10  Theorem 20: unified dissemination (both branches)"
    "Push-pull and the spanner route on each family, measured winner vs\n\
     the asymptotic prediction min(D log^3 n, (ell*/phi*) log n).  At\n\
     laptop scale the spanner route's polylog constants are visible:\n\
     push-pull wins wherever the two predictions are close.";
  let t =
    Table.create ~title:"E10: unified algorithm"
      ~columns:
        [
          ("family", Table.Left);
          ("pp rounds", Table.Right);
          ("spanner rounds", Table.Right);
          ("winner", Table.Left);
          ("pred pp", Table.Right);
          ("pred spanner", Table.Right);
          ("pred winner", Table.Left);
        ]
  in
  List.iter
    (fun (name, g) ->
      let r = Dis.all_to_all (Rng.of_int 9) g ~knowledge:Dis.Known_latencies ~max_rounds:5_000_000 in
      let wc = Weighted.weighted_conductance ~backend:Weighted.Sweep g in
      let nf = float_of_int (Graph.n g) in
      let pred_pp = float_of_int wc.Weighted.ell_star /. wc.Weighted.phi_star *. ln nf in
      let pred_spanner = float_of_int (Paths.weighted_diameter g) *. (ln nf ** 3.0) in
      Table.add_row t
        [
          name;
          (match r.Dis.pushpull_rounds with Some x -> fmt_i x | None -> "cap");
          fmt_i r.Dis.spanner_rounds;
          (match r.Dis.winner with
          | Dis.Push_pull_won -> "push-pull"
          | Dis.Spanner_route_won -> "spanner");
          fmt_f pred_pp;
          fmt_f pred_spanner;
          (if pred_pp <= pred_spanner then "push-pull" else "spanner");
        ])
    (eid_families ());
  Table.print t

(* E11 — footnote 2: without pull, a star takes Omega(nD). *)
let e11 () =
  section "E11  Footnote 2: push-only needs Omega(nD) on a star"
    "Blocking push-only flooding vs push-pull on stars of latency D = 4;\n\
     push-only grows linearly in n while push-pull stays flat.";
  let d = 4 in
  let t =
    Table.create ~title:"E11: star, push-only vs push-pull"
      ~columns:
        [
          ("n", Table.Right);
          ("push-only (blocking)", Table.Right);
          ("push-only (pipelined)", Table.Right);
          ("push-pull", Table.Right);
          ("(n-1)*D", Table.Right);
        ]
  in
  let push_pts = ref [] in
  List.iter
    (fun n ->
      let g = Gen.with_latencies (Rng.of_int n) (Gen.Fixed d) (Gen.star n) in
      let blocking =
        Flooding.push_round_robin g ~source:0 ~blocking:true ~max_rounds:5_000_000
      in
      let pipelined =
        Flooding.push_round_robin g ~source:0 ~blocking:false ~max_rounds:5_000_000
      in
      let pp = Push_pull.broadcast (Rng.of_int n) g ~source:0 ~max_rounds:5_000_000 in
      let b = rounds_exn blocking.Flooding.rounds in
      push_pts := (float_of_int n, float_of_int b) :: !push_pts;
      Table.add_row t
        [
          fmt_i n;
          fmt_i b;
          fmt_i (rounds_exn pipelined.Flooding.rounds);
          fmt_i (rounds_exn pp.Push_pull.rounds);
          fmt_i ((n - 1) * d);
        ])
    [ 16; 32; 64; 128; 256 ];
  Table.print t;
  let pts = List.rev !push_pts in
  ignore
    (report_exponent ~label:"blocking push-only rounds vs n" ~claimed:"1.0 (Omega(nD))"
       (Array.of_list (List.map fst pts))
       (Array.of_list (List.map snd pts)))
