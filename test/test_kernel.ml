(* Tests for the protocol-kernel layer of lib/scale: the oriented
   spanner packing (Lemma 15 bound), the trajectory parity of the
   scale RR kernel against the reference Gossip_core.Rr_broadcast on
   the paper's gadget families, the DTG/flood coincidence, fault-plan
   and domain-sharding coverage for the new kernels, and the
   Theorem 20 chains at scale. *)

module Rng = Gossip_util.Rng
module Bitset = Gossip_util.Bitset
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen
module Gadgets = Gossip_graph.Gadgets
module Engine = Gossip_sim.Engine
module Csr = Gossip_scale.Csr
module Kernel = Gossip_scale.Kernel
module Wheel = Gossip_scale.Wheel_engine
module Registry = Gossip_obs.Registry
module Presence = Gossip_scale.Presence
module Spanner = Gossip_core.Spanner
module Rr = Gossip_core.Rr_broadcast
module Eid = Gossip_core.Eid

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

(* Connected G(n, p) with mixed latencies, the standard parity fodder. *)
let gen_graph n seed lmax =
  let grng = Rng.of_int seed in
  let p = min 1.0 ((log (float_of_int n) +. 3.0) /. float_of_int n) in
  Gen.with_latencies grng (Gen.Uniform (1, lmax)) (Gen.erdos_renyi_connected grng ~n ~p)

let count_informed bytes =
  let c = ref 0 in
  Bytes.iter (fun ch -> if ch <> '\000' then incr c) bytes;
  !c

(* ------------------------------------------------------------------ *)
(* Oriented spanner packing *)

(* Lemma 15's precondition: the oriented Baswana–Sen out-degree stays
   under 8 n^(1/k) ln n, and the flat packing preserves it exactly. *)
let prop_spanner_out_degree =
  QCheck.Test.make ~name:"oriented Baswana-Sen obeys the Lemma 15 out-degree bound" ~count:30
    QCheck.(triple (int_range 8 120) (int_range 0 100_000) (int_range 2 4))
    (fun (n, seed, k) ->
      let g = gen_graph n seed 5 in
      let s = Spanner.build (Rng.of_int (seed + 1)) g ~k () in
      let bound =
        int_of_float
          (ceil (8.0 *. (float_of_int n ** (1.0 /. float_of_int k)) *. log (float_of_int n)))
      in
      let o = Csr.of_oriented_spanner ~out_degree_bound:bound s.Spanner.out_edges in
      Csr.oriented_max_out_degree o = Spanner.max_out_degree s
      && Csr.oriented_max_out_degree o <= bound)

let prop_oriented_roundtrip =
  QCheck.Test.make ~name:"of_oriented_spanner packs edge-for-edge in row order" ~count:40
    QCheck.(pair (int_range 5 80) (int_range 0 100_000))
    (fun (n, seed) ->
      let g = gen_graph n seed 6 in
      let s = Spanner.build (Rng.of_int (seed + 2)) g ~k:3 () in
      let o = Csr.of_oriented_spanner s.Spanner.out_edges in
      let total = Array.fold_left (fun a r -> a + Array.length r) 0 s.Spanner.out_edges in
      let ok = ref (Csr.oriented_n o = n && Csr.oriented_edge_count o = total) in
      Array.iteri
        (fun v row ->
          let i = ref 0 in
          Csr.oriented_iter_out o v (fun peer lat ->
              (if !i >= Array.length row then ok := false
               else
                 let p, l = row.(!i) in
                 if p <> peer || l <> lat then ok := false);
              incr i);
          if !i <> Array.length row then ok := false)
        s.Spanner.out_edges;
      !ok)

let test_out_degree_bound_enforced () =
  let rows = [| [| (1, 1); (2, 1); (3, 2) |]; [||]; [||]; [||] |] in
  (match Csr.of_oriented_spanner ~out_degree_bound:2 rows with
  | _ -> Alcotest.fail "bound violation accepted"
  | exception Invalid_argument _ -> ());
  checki "bound met passes" 3
    (Csr.oriented_edge_count (Csr.of_oriented_spanner ~out_degree_bound:3 rows))

(* ------------------------------------------------------------------ *)
(* RR kernel vs reference Rr_broadcast: trajectory parity *)

(* Same orientation, same finite window, same seedless round-robin: the
   wheel's informed bit must evolve exactly like membership of the
   source rumor in the reference engine's sets. *)
let check_rr_parity label g source seed =
  let n = Graph.n g in
  let csr = Csr.of_graph g in
  let k = Graph.max_latency g in
  let s = Spanner.build (Rng.of_int seed) g ~k:2 () in
  let oriented = Csr.of_oriented_spanner s.Spanner.out_edges in
  let delta_out = Csr.oriented_max_out_degree (Csr.oriented_filter_le oriented k) in
  let iterations = (k * delta_out) + k in
  let sets =
    Array.init n (fun v ->
        let b = Bitset.create n in
        if v = source then Bitset.add b source;
        b)
  in
  let core = Rr.run ~base:g ~out_edges:s.Spanner.out_edges ~k ~rumors:sets ~iterations () in
  let kernel = Kernel.rr_broadcast ~iterations ~k oriented in
  let t = Wheel.create_kernel (Rng.of_int 0) csr ~kernel ~source in
  for _ = 1 to iterations + k do
    Wheel.step t
  done;
  for v = 0 to n - 1 do
    if Wheel.informed t v <> Bitset.mem core.Rr.sets.(v) source then
      Alcotest.failf "%s: node %d informed bit diverges from the reference" label v
  done;
  checki (label ^ " initiations") core.Rr.metrics.Engine.initiations
    (Wheel.metrics t).Engine.initiations;
  checki (label ^ " deliveries") core.Rr.metrics.Engine.deliveries
    (Wheel.metrics t).Engine.deliveries

let test_rr_parity_gadgets () =
  let m = 6 in
  let target = Gadgets.singleton_target (Rng.of_int 77) ~m in
  let gp = Gadgets.g_p ~m ~target ~fast_latency:1 ~slow_latency:4 in
  let gsym = Gadgets.g_sym_p ~m ~target ~fast_latency:1 ~slow_latency:4 in
  let t8 =
    (Gadgets.theorem8 (Rng.of_int 5) ~layers:5 ~layer_size:4 ~ell:3).Gadgets.t8_graph
  in
  List.iter
    (fun (label, g, source, seed) -> check_rr_parity label g source seed)
    [ ("G(P)", gp, 0, 11); ("G_sym(P)", gsym, 1, 12); ("theorem8 ring", t8, 7, 13) ]

let prop_rr_parity =
  QCheck.Test.make ~name:"scale RR kernel = reference RR broadcast (informed trajectories)"
    ~count:30
    QCheck.(pair (int_range 5 70) (int_range 0 100_000))
    (fun (n, seed) ->
      let g = gen_graph n seed 5 in
      check_rr_parity (Printf.sprintf "er n=%d seed=%d" n seed) g (seed mod n) (seed + 7);
      true)

(* ------------------------------------------------------------------ *)
(* DTG kernel *)

let trajectory_testable = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)

let check_same_run label (a : Wheel.result) (b : Wheel.result) =
  Alcotest.check (Alcotest.option Alcotest.int) (label ^ " rounds") a.Wheel.rounds b.Wheel.rounds;
  Alcotest.check trajectory_testable (label ^ " trajectory") a.Wheel.history b.Wheel.history;
  checkb (label ^ " metrics") true (a.Wheel.metrics = b.Wheel.metrics);
  checkb (label ^ " informed set") true (Bytes.equal a.Wheel.informed b.Wheel.informed)

let test_dtg_flood_coincides () =
  (* With ell >= l_max the latency filter keeps everything, so k-DTG is
     flooding — bit-identical. *)
  let g = gen_graph 60 123 4 in
  let csr = Csr.of_graph g in
  let flood =
    Wheel.broadcast_kernel (Rng.of_int 0) csr ~kernel:(Kernel.flood csr) ~source:3
      ~max_rounds:100_000
  in
  let dtg_kernel =
    Wheel.broadcast_kernel (Rng.of_int 0) csr
      ~kernel:(Kernel.dtg_local ~ell:(Csr.max_latency csr) csr)
      ~source:3 ~max_rounds:100_000
  in
  check_same_run "dtg(l_max) = flood" flood dtg_kernel

let test_dtg_confined_to_subgraph () =
  (* Bridges above the threshold are invisible to k-DTG: the rumor
     saturates the source clique of G_ell and goes nowhere else. *)
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:7 in
  let r =
    Wheel.broadcast_kernel (Rng.of_int 1) csr
      ~kernel:(Kernel.dtg_local ~ell:3 csr)
      ~source:0 ~max_rounds:200
  in
  checkb "capped" true (r.Wheel.rounds = None);
  checki "source clique saturated, rest dark" 5 (count_informed r.Wheel.informed);
  for v = 0 to 4 do
    checkb (Printf.sprintf "clique node %d informed" v) true
      (Bytes.get r.Wheel.informed v <> '\000')
  done

(* ------------------------------------------------------------------ *)
(* Fault plans through the new kernels *)

let test_kernel_fault_smoke () =
  let csr = Csr.ring_of_cliques ~cliques:5 ~size:6 ~bridge_latency:3 in
  let crash =
    { Engine.no_faults with Engine.alive = (fun ~node ~round -> node mod 7 <> 3 || round < 2) }
  in
  let jitter =
    {
      Engine.no_faults with
      Engine.jitter = (fun ~latency ~round -> latency + ((latency + round) mod 3));
    }
  in
  let mk_rr () =
    let s = Spanner.build (Rng.of_int 3) (Csr.to_graph csr) ~k:2 () in
    let o = Csr.of_oriented_spanner s.Spanner.out_edges in
    Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o
  in
  List.iter
    (fun (label, mk) ->
      (* Kernels are single-run (mutable cursors): fresh instance per run. *)
      let crashed =
        Wheel.broadcast_kernel ~env:(Wheel.env_of_faults crash) (Rng.of_int 2) csr
          ~kernel:(mk ()) ~source:0 ~max_rounds:2_000
      in
      checkb (label ^ " crash run executes") true
        (crashed.Wheel.metrics.Engine.initiations > 0);
      checkb (label ^ " crash drops counted") true (crashed.Wheel.metrics.Engine.dropped > 0);
      let jittered =
        Wheel.broadcast_kernel ~env:(Wheel.env_of_faults jitter)
          ~wheel_latency:(Csr.max_latency csr + 2) (Rng.of_int 2) csr ~kernel:(mk ()) ~source:0
          ~max_rounds:20_000
      in
      checkb (label ^ " completes under jitter") true (jittered.Wheel.rounds <> None))
    [ ("rr-spanner", mk_rr); ("dtg", fun () -> Kernel.dtg_local ~ell:3 csr) ]

(* ------------------------------------------------------------------ *)
(* Rumor-state kernels: k-rumor all-to-all dissemination *)

module Rumor = Gossip_core.Rumor
module Rumor_store = Gossip_scale.Rumor_store
module Shard = Gossip_scale.Shard
module I32 = Gossip_scale.I32

let test_rumor_all_to_all () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:6 ~bridge_latency:2 in
  let n = Csr.n csr in
  List.iter
    (fun (label, kernel, cname, mw) ->
      let reg = Registry.create () in
      let r =
        Wheel.broadcast_kernel ~telemetry:reg (Rng.of_int 3) csr ~kernel ~source:0
          ~max_rounds:50_000
      in
      checkb (label ^ " completes") true (r.Wheel.rounds <> None);
      checki (label ^ " everyone complete") n (count_informed r.Wheel.informed);
      (* Per-message words accounted: the tagged counter tracks the
         engine's payload-word total, and the budget gauge declares
         the kernel's per-message bit ceiling. *)
      checki (label ^ " words on wire")
        r.Wheel.metrics.Engine.payload_words
        (Registry.counter_value
           (Registry.counter reg ("wheel.kernel." ^ cname ^ ".words_on_wire")));
      checki (label ^ " bits budget") (32 * mw)
        (Registry.gauge_value (Registry.gauge reg ("wheel.kernel." ^ cname ^ ".bits_budget")));
      checki (label ^ " payload = words x deliveries")
        (mw * r.Wheel.metrics.Engine.deliveries)
        r.Wheel.metrics.Engine.payload_words)
    (* algebraic: ⌈5/30⌉ = 1 coefficient word *)
    [
      ("k-rumor", (Kernel.k_rumor_push_pull ~k:5 ~budget:2 csr).Kernel.rum_kernel, "k-rumor", 2);
      ("rotation", (Kernel.rumor_rotation ~k:5 ~budget:2 csr).Kernel.rum_kernel, "rotation", 2);
      ("algebraic", (Kernel.algebraic ~k:5 ~budget:1 csr).Kernel.alg_kernel, "algebraic", 1);
      ( "k-rumor k=1",
        (Kernel.k_rumor_push_pull ~k:1 ~budget:1 csr).Kernel.rum_kernel,
        "k-rumor",
        1 );
    ]

let test_rumor_holdings_after_run () =
  (* After a completed run every node holds every rumor — checked
     through the kernel's own accessor, not the engine's bytes. *)
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:5 ~bridge_latency:2 in
  let n = Csr.n csr in
  let k = 4 in
  let rum = Kernel.k_rumor_push_pull ~k ~budget:2 csr in
  let r =
    Wheel.broadcast_kernel (Rng.of_int 7) csr ~kernel:rum.Kernel.rum_kernel ~source:0
      ~max_rounds:50_000
  in
  checkb "completes" true (r.Wheel.rounds <> None);
  for v = 0 to n - 1 do
    checki (Printf.sprintf "node %d holds all" v) k (rum.Kernel.rum_count ~v);
    for j = 0 to k - 1 do
      checkb (Printf.sprintf "node %d holds rumor %d" v j) true (rum.Kernel.rum_holds ~v ~r:j)
    done
  done

let test_rumor_args_validated () =
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:3 ~bridge_latency:1 in
  (match Kernel.k_rumor_push_pull ~k:0 ~budget:1 csr with
  | _ -> Alcotest.fail "k = 0 accepted"
  | exception Invalid_argument _ -> ());
  (match Kernel.rumor_rotation ~k:(Csr.n csr + 1) ~budget:1 csr with
  | _ -> Alcotest.fail "k > n accepted"
  | exception Invalid_argument _ -> ());
  (match Kernel.k_rumor_push_pull ~k:2 ~budget:0 csr with
  | _ -> Alcotest.fail "budget = 0 accepted"
  | exception Invalid_argument _ -> ());
  (* A coefficient vector for k = 40 needs two 30-bit words. *)
  match Kernel.algebraic ~k:9 ~budget:1 (Csr.ring_of_cliques ~cliques:5 ~size:2 ~bridge_latency:1) with
  | exception Invalid_argument _ -> Alcotest.fail "sufficient budget rejected"
  | _ -> (
      match
        Kernel.algebraic ~k:40 ~budget:1
          (Csr.ring_of_cliques ~cliques:20 ~size:2 ~bridge_latency:1)
      with
      | _ -> Alcotest.fail "budget below ceil(k/30) accepted"
      | exception Invalid_argument _ -> ())

(* Satellite: a kernel declaring a message width beyond what the
   int32 mailbox columns can address must be refused up front with
   the typed overflow, not fail deep inside a shard drain. *)
let test_msg_words_ceiling () =
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:3 ~bridge_latency:1 in
  let kernel = { (Kernel.push_pull csr) with Kernel.msg_words = Shard.Buf.max_capacity + 1 } in
  match Wheel.create_kernel (Rng.of_int 0) csr ~kernel ~source:0 with
  | _ -> Alcotest.fail "oversized msg_words accepted"
  | exception Shard.Buf_overflow { need; limit } ->
      checki "need is the declared width" (Shard.Buf.max_capacity + 1) need;
      checki "limit is the mailbox ceiling" Shard.Buf.max_capacity limit

(* ------------------------------------------------------------------ *)
(* Boxed-twin parity: the flat bit-packed kernels against the
   Bitset-based reference twins in Gossip_core.Rumor, replaying
   identical operation sequences on both sides. *)

(* Read a packed id list back out of a payload buffer: nonzero words
   are rumor ids + 1, in emission order. *)
let ids_of_buf buf budget =
  let out = ref [] in
  for w = budget - 1 downto 0 do
    let x = I32.get buf w in
    if x > 0 then out := (x - 1) :: !out
  done;
  !out

let prop_rotation_twin =
  QCheck.Test.make ~name:"rotation kernel = boxed Kset twin (operation replay)" ~count:40
    QCheck.(quad (int_range 2 12) (int_range 1 6) (int_range 0 100_000) (int_range 10 60))
    (fun (k, budget, seed, steps) ->
      let n = max 6 (k + (seed mod 5)) in
      let csr = Csr.of_graph (gen_graph n seed 4) in
      let rum = Kernel.rumor_rotation ~k ~budget csr in
      let kern = rum.Kernel.rum_kernel in
      let req_pay, on_push =
        match kern.Kernel.exchange with
        | Kernel.Words { req_pay; on_push; _ } -> (req_pay, on_push)
        | Kernel.Rumor _ -> Alcotest.fail "a multi-word kernel must be a Words kernel"
      in
      let twin = Rumor.Kset.create ~n ~k in
      let pos = Array.make n 0 in
      (* Mirrored streams: the kernel's random neighbor draw replayed
         twin-side, same as the k-rumor property below. *)
      let rngs_k = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let rngs_t = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let rng = Rng.of_int (seed + 17) in
      let ok = ref true in
      for _ = 1 to steps do
        let u = Rng.int rng n and v = Rng.int rng n in
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let i = kern.Kernel.on_initiate ~rngs:rngs_k ~round:0 ~u ~deg:3 ~informed:true in
            if i <> Rng.int rngs_t.(u) 3 then ok := false;
            pos.(u) <- (pos.(u) + budget) mod k
        | 3 ->
            Rumor_store.forget (Kernel.store kern) u;
            Rumor.Kset.reset twin ~v:u
        | _ ->
            let buf = I32.make budget 0 in
            req_pay ~u ~informed:true ~buf ~off:0;
            let expect = Rumor.Kset.emit_window twin ~v:u ~pos:pos.(u) ~budget in
            if ids_of_buf buf budget <> expect then ok := false;
            let dk = on_push ~v ~buf ~off:0 in
            let dt = Rumor.Kset.absorb twin ~v expect in
            if dk <> dt then ok := false
      done;
      for v = 0 to n - 1 do
        if rum.Kernel.rum_count ~v <> Rumor.Kset.count twin ~v then ok := false;
        for r = 0 to k - 1 do
          if rum.Kernel.rum_holds ~v ~r <> Rumor.Kset.holds twin ~v ~r then ok := false
        done
      done;
      !ok)

let prop_k_rumor_twin =
  QCheck.Test.make ~name:"k-rumor kernel = boxed Kset twin (mirrored RNG replay)" ~count:40
    QCheck.(quad (int_range 2 12) (int_range 1 6) (int_range 0 100_000) (int_range 10 60))
    (fun (k, budget, seed, steps) ->
      let n = max 6 (k + (seed mod 5)) in
      let csr = Csr.of_graph (gen_graph n seed 4) in
      let rum = Kernel.k_rumor_push_pull ~k ~budget csr in
      let kern = rum.Kernel.rum_kernel in
      let req_pay, on_push =
        match kern.Kernel.exchange with
        | Kernel.Words { req_pay; on_push; _ } -> (req_pay, on_push)
        | Kernel.Rumor _ -> Alcotest.fail "a multi-word kernel must be a Words kernel"
      in
      let twin = Rumor.Kset.create ~n ~k in
      (* Two identical stream arrays: the kernel consumes one, the twin
         replays the draws from the other. *)
      let rngs_k = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let rngs_t = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let sel = Array.make n 0 in
      let rng = Rng.of_int (seed + 17) in
      let ok = ref true in
      for _ = 1 to steps do
        let u = Rng.int rng n and v = Rng.int rng n in
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let i = kern.Kernel.on_initiate ~rngs:rngs_k ~round:0 ~u ~deg:3 ~informed:true in
            if i <> Rng.int rngs_t.(u) 3 then ok := false;
            sel.(u) <- Rng.int rngs_t.(u) k
        | 3 ->
            Rumor_store.forget (Kernel.store kern) u;
            Rumor.Kset.reset twin ~v:u
        | _ ->
            let buf = I32.make budget 0 in
            req_pay ~u ~informed:true ~buf ~off:0;
            let expect = Rumor.Kset.emit_scan twin ~v:u ~start:sel.(u) ~budget in
            if ids_of_buf buf budget <> expect then ok := false;
            let dk = on_push ~v ~buf ~off:0 in
            let dt = Rumor.Kset.absorb twin ~v expect in
            if dk <> dt then ok := false
      done;
      for v = 0 to n - 1 do
        if rum.Kernel.rum_count ~v <> Rumor.Kset.count twin ~v then ok := false;
        for r = 0 to k - 1 do
          if rum.Kernel.rum_holds ~v ~r <> Rumor.Kset.holds twin ~v ~r then ok := false
        done
      done;
      !ok)

let coeff_bits = 30

let prop_algebraic_twin =
  QCheck.Test.make ~name:"algebraic kernel = boxed Gf2 twin (mirrored RNG replay)" ~count:40
    QCheck.(triple (int_range 2 64) (int_range 0 100_000) (int_range 10 60))
    (fun (k, seed, steps) ->
      let n = max 6 (k + (seed mod 5)) in
      let cw = (k + coeff_bits - 1) / coeff_bits in
      let csr = Csr.of_graph (gen_graph n seed 4) in
      let alg = Kernel.algebraic ~k ~budget:cw csr in
      let kern = alg.Kernel.alg_kernel in
      let req_pay, on_push =
        match kern.Kernel.exchange with
        | Kernel.Words { req_pay; on_push; _ } -> (req_pay, on_push)
        | Kernel.Rumor _ -> Alcotest.fail "a multi-word kernel must be a Words kernel"
      in
      let twin = Rumor.Gf2.create ~n ~k in
      let rngs_k = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let rngs_t = Array.init n (fun i -> Rng.of_int (seed + (31 * i))) in
      let coins = Array.init n (fun _ -> Bitset.create k) in
      let rng = Rng.of_int (seed + 17) in
      let ok = ref true in
      let packed_eq buf vec =
        let same = ref true in
        for p = 0 to k - 1 do
          let bit = I32.get buf (p / coeff_bits) land (1 lsl (p mod coeff_bits)) <> 0 in
          if bit <> Bitset.mem vec p then same := false
        done;
        !same
      in
      for _ = 1 to steps do
        let u = Rng.int rng n and v = Rng.int rng n in
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let i = kern.Kernel.on_initiate ~rngs:rngs_k ~round:0 ~u ~deg:3 ~informed:true in
            if i <> Rng.int rngs_t.(u) 3 then ok := false;
            let c = Bitset.create k in
            for w = 0 to cw - 1 do
              let word = Rng.int rngs_t.(u) (1 lsl coeff_bits) in
              for b = 0 to coeff_bits - 1 do
                let p = (w * coeff_bits) + b in
                if p < k && word land (1 lsl b) <> 0 then Bitset.add c p
              done
            done;
            coins.(u) <- c
        | 3 ->
            Rumor_store.forget (Kernel.store kern) u;
            Rumor.Gf2.reset twin ~v:u
        | _ ->
            let buf = I32.make cw 0 in
            req_pay ~u ~informed:true ~buf ~off:0;
            let vec = Rumor.Gf2.emit twin ~v:u ~coins:coins.(u) in
            if not (packed_eq buf vec) then ok := false;
            let dk = on_push ~v ~buf ~off:0 in
            let dt = Rumor.Gf2.absorb twin ~v vec in
            if dk <> dt then ok := false;
            if alg.Kernel.alg_rank ~v <> Rumor.Gf2.rank twin ~v then ok := false
      done;
      (* The canonical bases themselves coincide row for row. *)
      for v = 0 to n - 1 do
        let packed_rows = alg.Kernel.alg_rows ~v in
        let twin_rows = Array.of_list (Rumor.Gf2.rows twin ~v) in
        if Array.length packed_rows <> Array.length twin_rows then ok := false
        else
          Array.iteri
            (fun i row ->
              for p = 0 to k - 1 do
                let bit = row.(p / coeff_bits) land (1 lsl (p mod coeff_bits)) <> 0 in
                if bit <> Bitset.mem twin_rows.(i) p then ok := false
              done)
            packed_rows
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Sharded-vs-one-domain parity for the new kernels *)

(* Same CI matrix convention as test_scale: GOSSIP_PARITY_DOMAINS
   selects the shard counts to sweep. *)
let parity_domains =
  match Sys.getenv_opt "GOSSIP_PARITY_DOMAINS" with
  | None -> [ 1; 2; 3; 4 ]
  | Some s ->
      let ds = String.split_on_char ',' s |> List.filter_map int_of_string_opt in
      if ds = [] then [ 1; 2; 3; 4 ] else ds

let parity_fault_plans =
  [
    ("none", Engine.no_faults, 0);
    ( "drop",
      {
        Engine.no_faults with
        Engine.drop =
          (fun ~initiator ~responder ~round -> (initiator + (3 * responder) + round) mod 5 = 0);
      },
      0 );
    ( "crash",
      { Engine.no_faults with Engine.alive = (fun ~node ~round -> node mod 7 <> 3 || round < 2) },
      0 );
    ( "jitter",
      {
        Engine.no_faults with
        Engine.jitter = (fun ~latency ~round -> latency + ((latency + round) mod 3));
      },
      2 );
  ]

(* A plan reaches the wheel as an environment, with a wheel that holds
   ℓ_max plus the plan's jitter (the third field). *)
let plan_env csr pick =
  let _, faults, jitter = List.nth parity_fault_plans pick in
  (Wheel.env_of_faults faults, Csr.max_latency csr + jitter)

let test_sharded_kernel_fixed () =
  let csr = Csr.ring_of_cliques ~cliques:6 ~size:7 ~bridge_latency:9 in
  let s = Spanner.build (Rng.of_int 4) (Csr.to_graph csr) ~k:3 () in
  let oriented = Csr.of_oriented_spanner s.Spanner.out_edges in
  List.iter
    (fun (name, mk) ->
      let run d =
        Wheel.broadcast_kernel ~domains:d (Rng.of_int 13) csr ~kernel:(mk ()) ~source:5
          ~max_rounds:3_000
      in
      let base = run 1 in
      List.iter
        (fun d -> check_same_run (Printf.sprintf "%s domains=%d" name d) base (run d))
        parity_domains)
    [
      ( "rr-spanner",
        fun () -> Kernel.rr_broadcast ~k:(Csr.oriented_max_latency oriented) oriented );
      ("dtg:1", fun () -> Kernel.dtg_local ~ell:1 csr);
      ("dtg:9", fun () -> Kernel.dtg_local ~ell:9 csr);
    ]

let prop_sharded_kernel_parity =
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (spanner/dtg kernels x faults)"
    ~count:25
    QCheck.(triple (int_range 6 70) (int_range 0 100_000) (int_range 0 7))
    (fun (n, seed, pick) ->
      let g = gen_graph n seed 6 in
      let csr = Csr.of_graph g in
      let source = seed mod n in
      let mk =
        if pick mod 2 = 0 then (
          let s = Spanner.build (Rng.of_int (seed + 3)) g ~k:2 () in
          let o = Csr.of_oriented_spanner s.Spanner.out_edges in
          fun () -> Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o)
        else fun () -> Kernel.dtg_local ~ell:(1 + (pick / 2)) csr
      in
      let env, wheel_latency = plan_env csr (pick / 2) in
      let run d =
        Wheel.broadcast_kernel ~env ~wheel_latency ~domains:d
          (Rng.of_int (seed + 1))
          csr ~kernel:(mk ()) ~source ~max_rounds:400
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed)
        parity_domains)

(* Dynamic scenarios compiled by lib/dyn — latency drift, churn, and
   the spanner-targeting adversary — obey the same parity contract on
   the kernel path as static fault plans. *)
let prop_sharded_kernel_parity_scenario =
  let module Scenario = Gossip_dyn.Scenario in
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (kernels x dynamic scenarios)"
    ~count:15
    QCheck.(triple (int_range 8 60) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = gen_graph n seed 6 in
      let csr = Csr.of_graph g in
      let source = seed mod n in
      let s = Spanner.build (Rng.of_int (seed + 3)) g ~k:2 () in
      let o = Csr.of_oriented_spanner s.Spanner.out_edges in
      let mk () =
        if pick mod 2 = 0 then Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o
        else Kernel.dtg_local ~ell:3 csr
      in
      let scen =
        {
          Scenario.static with
          Scenario.seed;
          rules =
            [
              {
                Scenario.schedule = Scenario.Linear { rate = 0.2; cap = 2.0 };
                filter = Scenario.All;
              };
            ];
          churn =
            (if pick >= 2 then
               [ Scenario.Random_churn { fraction = 0.15; leave = 3; down = 4; period = 2 } ]
             else []);
          adversary = Some { Scenario.budget = 2 };
        }
      in
      let c = Scenario.compile ~oriented:o scen ~csr ~source in
      let run d =
        Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
          ~domains:d
          (Rng.of_int (seed + 1))
          csr ~kernel:(mk ()) ~source ~max_rounds:400
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed)
        parity_domains)

(* The acceptance property for the rumor-state layer: multi-rumor
   all-to-all runs are bit-identical across shard counts — completion
   trajectory, metrics, final completion bytes, and the words-on-wire
   counter — under every static fault plan.  The algebraic kernel is
   the hard case: its absorb is a full GF(2) reduction, not a
   monotone OR, and only the canonical-RREF discipline makes it
   insertion-order-independent. *)
let prop_rumor_sharded_parity =
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (rumor kernels x faults)" ~count:20
    QCheck.(
      quad (int_range 6 50) (int_range 0 100_000) (int_range 0 2) (int_range 0 3))
    (fun (n, seed, which, pick) ->
      let g = gen_graph n seed 5 in
      let csr = Csr.of_graph g in
      let k = 1 + (seed mod min n 8) in
      let budget = 1 + (seed mod 3) in
      (* k <= 8, so algebraic's ⌈k/30⌉ coefficient words are 1 *)
      let mk, cname =
        match which with
        | 0 ->
            ((fun () -> (Kernel.k_rumor_push_pull ~k ~budget csr).Kernel.rum_kernel), "k-rumor")
        | 1 -> ((fun () -> (Kernel.rumor_rotation ~k ~budget csr).Kernel.rum_kernel), "rotation")
        | _ -> ((fun () -> (Kernel.algebraic ~k ~budget:1 csr).Kernel.alg_kernel), "algebraic")
      in
      let env, wheel_latency = plan_env csr pick in
      let run d =
        let reg = Registry.create () in
        let r =
          Wheel.broadcast_kernel ~env ~wheel_latency ~telemetry:reg ~domains:d
            (Rng.of_int (seed + 1))
            csr ~kernel:(mk ()) ~source:(seed mod n) ~max_rounds:400
        in
        ( r,
          Registry.counter_value
            (Registry.counter reg ("wheel.kernel." ^ cname ^ ".words_on_wire")) )
      in
      let base, base_w = run 1 in
      List.for_all
        (fun d ->
          let r, w = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed
          && w = base_w)
        parity_domains)

(* Churn is the rumor-specific hazard: a rejoining node must drop to
   its own rumor (partial subsets, partial spans) on every runtime the
   same way.  Dynamic scenarios with Random_churn drive exactly that
   path. *)
let prop_rumor_sharded_parity_churn =
  let module Scenario = Gossip_dyn.Scenario in
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (rumor kernels x churn scenarios)"
    ~count:10
    QCheck.(triple (int_range 8 40) (int_range 0 100_000) (int_range 0 2))
    (fun (n, seed, which) ->
      let g = gen_graph n seed 5 in
      let csr = Csr.of_graph g in
      let k = 1 + (seed mod min n 6) in
      (* k <= 6, so algebraic's ⌈k/30⌉ coefficient words are 1 *)
      let mk () =
        match which with
        | 0 -> (Kernel.k_rumor_push_pull ~k ~budget:2 csr).Kernel.rum_kernel
        | 1 -> (Kernel.rumor_rotation ~k ~budget:2 csr).Kernel.rum_kernel
        | _ -> (Kernel.algebraic ~k ~budget:1 csr).Kernel.alg_kernel
      in
      let scen =
        {
          Scenario.static with
          Scenario.seed;
          churn = [ Scenario.Random_churn { fraction = 0.2; leave = 3; down = 4; period = 2 } ];
        }
      in
      let c = Scenario.compile scen ~csr ~source:0 in
      let run d =
        Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
          ~domains:d (Rng.of_int (seed + 1)) csr ~kernel:(mk ()) ~source:0 ~max_rounds:300
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Wheel.rounds = base.Wheel.rounds
          && r.Wheel.history = base.Wheel.history
          && r.Wheel.metrics = base.Wheel.metrics
          && Bytes.equal r.Wheel.informed base.Wheel.informed)
        parity_domains)

(* ------------------------------------------------------------------ *)
(* The inline one-bit exchange and the By_class latency memo against
   their reference forms *)

module Scenario = Gossip_dyn.Scenario

let same_result (a : Wheel.result) (b : Wheel.result) =
  a.Wheel.rounds = b.Wheel.rounds
  && a.Wheel.history = b.Wheel.history
  && a.Wheel.metrics = b.Wheel.metrics
  && Bytes.equal a.Wheel.informed b.Wheel.informed

(* One of four graph families with uniform 1..lmax latencies. *)
let family_graph family n seed =
  let rng = Rng.of_int seed in
  let lat c = Csr.with_latencies (Rng.of_int (seed + 7)) (Gen.Uniform (1, 6)) c in
  match family with
  | 0 -> lat (Csr.barabasi_albert rng ~n ~attach:3)
  | 1 -> lat (Csr.watts_strogatz rng ~n ~k:4 ~beta:0.1)
  | 2 -> Csr.of_graph (gen_graph n seed 6)
  | _ -> Csr.braided_ring ~cliques:(max 3 (n / 8)) ~size:8 ~bridges:3 ~bridge_latency:6

(* Drift on the slow edges plus random churn; [edge] adds an
   endpoint-filtered step, which makes the compiled map per-edge. *)
let drift_churn ~seed ~edge =
  {
    Scenario.static with
    Scenario.seed;
    rules =
      ({ Scenario.schedule = Scenario.Linear { rate = 0.2; cap = 2.5 }; filter = Scenario.Lat_ge 4 }
      ::
      (if edge then
         [
           {
             Scenario.schedule = Scenario.Step { at = 4; factor = 1.5 };
             filter = Scenario.Endpoint_mod { modulus = 3; residue = 1 };
           };
         ]
       else []));
    churn = [ Scenario.Random_churn { fraction = 0.1; leave = 3; down = 6; period = 5 } ];
  }

(* The five classic kernels, by name, over [csr]. *)
let classic_kernels csr seed =
  let oriented =
    lazy
      (Csr.of_oriented_spanner
         (Spanner.build (Rng.of_int (seed + 3)) (Csr.to_graph csr) ~k:2 ()).Spanner.out_edges)
  in
  [
    ("push-pull", fun () -> Kernel.push_pull csr);
    ("flood", fun () -> Kernel.flood csr);
    ("random-contact", fun () -> Kernel.random_contact csr);
    ( "rr-spanner",
      fun () ->
        let o = Lazy.force oriented in
        Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o );
    ("dtg", fun () -> Kernel.dtg_local ~ell:3 csr);
  ]

let prop_rumor_words_twin =
  QCheck.Test.make
    ~name:"inline one-bit exchange = Words twin (classic kernels x families x drift+churn)"
    ~count:20
    QCheck.(quad (int_range 0 3) (int_range 24 120) (int_range 0 100_000) bool)
    (fun (family, n, seed, edge) ->
      let csr = family_graph family n seed in
      let source = seed mod Csr.n csr in
      let c = Scenario.compile (drift_churn ~seed ~edge) ~csr ~source in
      List.for_all
        (fun (name, mk) ->
          let run d kernel =
            Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
              ~domains:d (Rng.of_int (seed + 1)) csr ~kernel ~source ~max_rounds:300
          in
          let base = run 1 (mk ()) in
          List.for_all
            (fun d ->
              let ok = same_result base (run d (Kernel_ref.words_twin (mk ()))) in
              if not ok then QCheck.Test.fail_reportf "%s diverges from its twin at domains=%d" name d;
              ok)
            (1 :: parity_domains))
        (classic_kernels csr seed))

(* A By_class map is asked once per base latency, round and shard; as
   a per-exchange By_edge map the same function must give the same run. *)
let prop_by_class_by_edge =
  QCheck.Test.make ~name:"By_class f runs as By_edge of f (memoized class = per exchange)"
    ~count:20
    QCheck.(quad (int_range 0 3) (int_range 24 120) (int_range 0 100_000) (int_range 0 2))
    (fun (family, n, seed, which) ->
      let csr = family_graph family n seed in
      let source = seed mod Csr.n csr in
      let f ~latency ~round =
        match which with
        | 0 -> latency + ((latency + round) mod 3)
        | 1 -> if round mod 7 < 3 then 2 * latency else latency - 1
        | _ -> latency * (1 + (round / 5 mod 2))
      in
      let wheel_latency = (2 * Csr.max_latency csr) + 2 in
      let churn = Presence.absences [| (2, (source + 1) mod Csr.n csr, 9) |] in
      let run latency d kernel =
        Wheel.broadcast_kernel
          ~env:{ Wheel.presence = churn; drop = None; latency = Some latency }
          ~wheel_latency ~domains:d (Rng.of_int (seed + 1)) csr ~kernel ~source ~max_rounds:300
      in
      List.for_all
        (fun (_, mk) ->
          let base = run (Wheel.By_class f) 1 (mk ()) in
          List.for_all
            (fun d ->
              same_result base
                (run (Wheel.By_edge (fun ~u:_ ~v:_ ~latency ~round -> f ~latency ~round)) d (mk ())))
            (1 :: parity_domains))
        (classic_kernels csr seed))

(* Parity where each slot's chains span several exchange blocks and the
   block store grows mid-run: push-pull and rr-spanner on a 3,000-node
   Barabási–Albert graph under drift and churn. *)
let test_multi_block_parity () =
  let n = 3_000 in
  let csr = family_graph 0 n 41 in
  let c = Scenario.compile (drift_churn ~seed:41 ~edge:false) ~csr ~source:0 in
  let slots = c.Scenario.wheel_latency + 1 in
  List.iter
    (fun (name, mk) ->
      if name = "push-pull" || name = "rr-spanner" then begin
        let run d =
          let reg = Registry.create () in
          let r =
            Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
              ~telemetry:reg ~domains:d (Rng.of_int 42) csr ~kernel:(mk ()) ~source:0
              ~max_rounds:2_000
          in
          (r, Registry.gauge_value (Registry.gauge reg "wheel.inflight.max"))
        in
        let base, inflight = run 1 in
        checkb (name ^ " completes") true (base.Wheel.rounds <> None);
        (* More live exchanges than the first columns hold, and more per
           slot than one block: chains of several blocks, grown mid-run. *)
        if inflight <= n + Wheel.block_size || inflight <= 2 * slots * Wheel.block_size then
          Alcotest.failf "%s: %d live exchanges at most, too few to span blocks" name inflight;
        List.iter
          (fun d ->
            check_same_run (Printf.sprintf "%s domains=%d" name d) base (fst (run d)))
          parity_domains
      end)
    (classic_kernels csr 41)

(* ------------------------------------------------------------------ *)
(* Kernel-tagged telemetry *)

let test_kernel_tagged_telemetry () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:6 ~bridge_latency:2 in
  let s = Spanner.build (Rng.of_int 9) (Csr.to_graph csr) ~k:2 () in
  let o = Csr.of_oriented_spanner s.Spanner.out_edges in
  let reg = Registry.create () in
  let r =
    Wheel.broadcast_kernel ~telemetry:reg (Rng.of_int 2) csr
      ~kernel:(Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o)
      ~source:0 ~max_rounds:10_000
  in
  let c name = Registry.counter_value (Registry.counter reg name) in
  checki "tagged deliveries = metrics" r.Wheel.metrics.Engine.deliveries
    (c "wheel.kernel.rr-spanner.deliveries");
  checki "tagged initiations = metrics" r.Wheel.metrics.Engine.initiations
    (c "wheel.kernel.rr-spanner.initiations");
  (* The classic protocols are tagged by their kernel name too. *)
  let reg2 = Registry.create () in
  let f =
    Wheel.broadcast_kernel ~telemetry:reg2 (Rng.of_int 2) csr ~kernel:(Kernel.flood csr)
      ~source:0 ~max_rounds:10_000
  in
  checki "flood tagged deliveries" f.Wheel.metrics.Engine.deliveries
    (Registry.counter_value (Registry.counter reg2 "wheel.kernel.flood.deliveries"))

(* ------------------------------------------------------------------ *)
(* Termination-check kernel vs the boxed reference (Lemma 18) *)

module Check = Gossip_core.Termination_check

(* A seed-derived informed pattern with the source always set, so the
   check exercises flagged, mismatching, and clean nodes alike. *)
let informed_pattern n seed =
  Array.init n (fun v -> v = 0 || (v + (seed * 7)) mod 3 <> 0)

let check_check_parity label g seed informed =
  let n = Graph.n g in
  let csr = Csr.of_graph g in
  let k = Graph.max_latency g in
  let s = Spanner.build (Rng.of_int seed) g ~k:2 () in
  let oriented = Csr.of_oriented_spanner s.Spanner.out_edges in
  let core = Check.run_single ~base:g ~out_edges:s.Spanner.out_edges ~k ~informed in
  let bytes = Bytes.init n (fun v -> if informed.(v) then '\001' else '\000') in
  let scale =
    Check.run_scale (Wheel.session csr) (Rng.of_int (seed + 1)) csr ~oriented ~k ~informed:bytes
  in
  checki (label ^ " rounds") core.Check.rounds scale.Check.sc_rounds;
  checkb (label ^ " unanimous") core.Check.unanimous scale.Check.sc_unanimous;
  checkb (label ^ " any-failed") (Array.exists Fun.id core.Check.failed)
    scale.Check.sc_any_failed;
  for v = 0 to n - 1 do
    if core.Check.failed.(v) <> (Bytes.get scale.Check.sc_failed v <> '\000') then
      Alcotest.failf "%s: node %d verdict diverges from the reference" label v
  done

let test_check_parity_fixed () =
  let g = gen_graph 40 31 4 in
  let n = Graph.n g in
  (* Everyone informed: clean, unanimous verdict on both runtimes. *)
  check_check_parity "all-informed" g 31 (Array.make n true);
  (* One dark node: its neighbors flag, the verdict floods. *)
  let holey = Array.make n true in
  holey.(n / 2) <- false;
  check_check_parity "one-dark" g 31 holey

let prop_check_parity =
  QCheck.Test.make ~name:"scale termination-check kernel = boxed reference check" ~count:30
    QCheck.(pair (int_range 5 60) (int_range 0 100_000))
    (fun (n, seed) ->
      let g = gen_graph n seed 5 in
      check_check_parity
        (Printf.sprintf "er n=%d seed=%d" n seed)
        g (seed + 3)
        (informed_pattern n seed);
      true)

let prop_check_sharded_parity =
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (check kernel x faults)" ~count:20
    QCheck.(triple (int_range 6 60) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = gen_graph n seed 5 in
      let csr = Csr.of_graph g in
      let k = Graph.max_latency g in
      let s = Spanner.build (Rng.of_int (seed + 3)) g ~k:2 () in
      let oriented = Csr.of_oriented_spanner s.Spanner.out_edges in
      let informed = Bytes.init n (fun v -> if (v + seed) mod 4 = 0 then '\000' else '\001') in
      let env, wheel_latency = plan_env csr pick in
      let run d =
        let session = Wheel.session ~env ~wheel_latency ~domains:d csr in
        ( Check.run_scale session (Rng.of_int (seed + 1)) csr ~oriented ~k ~informed,
          Wheel.session_metrics session )
      in
      let base, base_metrics = run 1 in
      List.for_all
        (fun d ->
          let r, metrics = run d in
          r.Check.sc_rounds = base.Check.sc_rounds
          && metrics = base_metrics
          && Bytes.equal r.Check.sc_failed base.Check.sc_failed)
        parity_domains)

let prop_discovery_sharded_parity =
  let module Discovery = Gossip_core.Discovery in
  QCheck.Test.make ~name:"sharded wheel = sequential wheel (discovery kernel x faults)"
    ~count:20
    QCheck.(triple (int_range 6 60) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = gen_graph n seed 5 in
      let csr = Csr.of_graph g in
      let env, wheel_latency = plan_env csr pick in
      let run d =
        Discovery.probe_scale
          (Wheel.session ~env ~wheel_latency ~domains:d csr)
          (Rng.of_int (seed + 1))
          csr ~d_bound:3
      in
      let base = run 1 in
      List.for_all
        (fun d ->
          let r = run d in
          r.Discovery.s_rounds = base.Discovery.s_rounds
          && r.Discovery.s_lat = base.Discovery.s_lat
          && Csr.equal r.Discovery.s_discovered base.Discovery.s_discovered)
        parity_domains)

(* Theorem 20's chains under a dynamic scenario: drift on the slow
   bridges plus churn stretches the discovered graph's latencies past
   the input's ℓ_max, so every phase after discovery needs the scaled
   wheel; the chain's phases share one scenario clock, so a schedule
   fires once over the chain, not once per phase. *)
let test_chains_under_scenario () =
  let module Scenario = Gossip_dyn.Scenario in
  let module Dissemination = Gossip_core.Dissemination in
  let csr = Csr.braided_ring ~cliques:8 ~size:8 ~bridges:3 ~bridge_latency:5 in
  let n = Csr.n csr in
  let braid =
    Scenario.of_string
      {|{ "seed": 5,
          "schedules": [ { "kind": "linear", "rate": 0.25, "cap": 4,
                           "filter": { "kind": "lat-ge", "latency": 5 } } ],
          "churn": [ { "node": 9, "leave": 6, "rejoin": 14 },
                     { "kind": "random", "fraction": 0.05, "leave": 3, "down": 5,
                       "period": 4 } ] }|}
  in
  let eid ?scenario d =
    let c = Option.map (fun s -> Scenario.compile s ~csr ~source:0) scenario in
    Eid.run_unknown_scale
      ?env:(Option.map (fun c -> c.Scenario.env) c)
      ?wheel_latency:(Option.map (fun c -> c.Scenario.wheel_latency) c)
      ~domains:d (Rng.of_int 24) csr ~source:0 ()
  in
  let unified d =
    let c = Scenario.compile braid ~csr ~source:0 in
    Dissemination.broadcast_scale ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
      ~domains:d (Rng.of_int 24) csr ~source:0 ~max_rounds:100_000 ()
  in
  let base = eid ~scenario:braid 1 and base_u = unified 1 in
  checkb "unknown-eid completes under the scenario" true base.Eid.u_success;
  checki "unknown-eid informs everyone" n (count_informed base.Eid.u_informed);
  checkb "unified completes under the scenario" true base_u.Dissemination.b_success;
  checki "unified informs everyone" n (count_informed base_u.Dissemination.b_informed);
  List.iter
    (fun d ->
      let r = eid ~scenario:braid d and u = unified d in
      let label what = Printf.sprintf "%s domains=%d" what d in
      checki (label "unknown-eid rounds") base.Eid.u_rounds r.Eid.u_rounds;
      checkb (label "unknown-eid metrics") true (base.Eid.u_metrics = r.Eid.u_metrics);
      checkb (label "unknown-eid informed") true (Bytes.equal base.Eid.u_informed r.Eid.u_informed);
      checki (label "unified rounds") base_u.Dissemination.b_rounds u.Dissemination.b_rounds;
      checkb (label "unified metrics") true
        (base_u.Dissemination.b_metrics = u.Dissemination.b_metrics);
      checkb (label "unified informed") true
        (Bytes.equal base_u.Dissemination.b_informed u.Dissemination.b_informed))
    parity_domains;
  (* A ×3 step is seen by the phases that run after its round, and by
     no others. *)
  let static = eid 1 in
  let step at =
    Scenario.of_string
      (Printf.sprintf
         {|{ "schedules": [ { "kind": "step", "at": %d, "factor": 3 } ] }|} at)
  in
  let first_attempt =
    match static.Eid.u_attempts with
    | a :: _ ->
        a.Eid.ua_discovery_rounds + a.Eid.ua_schedule_rounds + a.Eid.ua_rr_rounds
        + a.Eid.ua_check_rounds
    | [] -> Alcotest.fail "no attempts recorded"
  in
  checkb "a step after the first attempt changes the chain" false
    ((eid ~scenario:(step (first_attempt + 1)) 1).Eid.u_metrics = static.Eid.u_metrics);
  checkb "a step past the end of the run changes nothing" true
    ((eid ~scenario:(step (static.Eid.u_rounds + 1)) 1).Eid.u_metrics = static.Eid.u_metrics)

(* ------------------------------------------------------------------ *)
(* EID on the scale engine *)

(* The full Theorem 20 chain with zero latency knowledge: discovery ->
   T(k) schedule -> spanner RR -> termination check, guess-and-double
   outer loop, bit-identical across shard counts. *)
let test_unknown_eid_scale () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:5 ~bridge_latency:2 in
  let r = Eid.run_unknown_scale (Rng.of_int 11) csr ~source:0 () in
  checkb "success with no a-priori latencies" true r.Eid.u_success;
  (* Early attempts with too-small k may split their verdicts (Lemma 18
     unanimity needs the flood to cover the graph); the accepting
     attempt is always unanimous — no node failed. *)
  (match List.rev r.Eid.u_attempts with
  | last :: _ ->
      checkb "accepting attempt unanimous" true last.Eid.ua_unanimous;
      checkb "accepting attempt clean" false last.Eid.ua_failed
  | [] -> Alcotest.fail "no attempts recorded");
  checki "everyone informed" (Csr.n csr) (count_informed r.Eid.u_informed);
  checkb "at least one attempt" true (r.Eid.u_attempts <> []);
  (* Guesses double: k = 1, 2, 4, ... *)
  List.iteri
    (fun i a -> checki (Printf.sprintf "attempt %d guess" i) (1 lsl i) a.Eid.ua_k)
    r.Eid.u_attempts;
  (* Rounds account for every phase of every attempt. *)
  let budget =
    List.fold_left
      (fun acc a ->
        acc + a.Eid.ua_discovery_rounds + a.Eid.ua_schedule_rounds + a.Eid.ua_rr_rounds
        + a.Eid.ua_check_rounds)
      0 r.Eid.u_attempts
  in
  checki "rounds = sum over attempts and phases" budget r.Eid.u_rounds;
  List.iter
    (fun d ->
      let rd = Eid.run_unknown_scale ~domains:d (Rng.of_int 11) csr ~source:0 () in
      checki (Printf.sprintf "rounds domains=%d" d) r.Eid.u_rounds rd.Eid.u_rounds;
      checki (Printf.sprintf "k_final domains=%d" d) r.Eid.u_k_final rd.Eid.u_k_final;
      checkb (Printf.sprintf "informed domains=%d" d) true
        (Bytes.equal r.Eid.u_informed rd.Eid.u_informed))
    parity_domains

(* Minor words per round over a whole unknown-latency chain, set-up
   included, on a 300-node Watts-Strogatz graph: each attempt builds a
   spanner of the discovered graph, so a set-up layer that allocates per
   node and per call (a hash table per node, say) shows here as a
   per-round figure over the engine's budget. *)
let test_unknown_eid_minor_words () =
  List.iter
    (fun seed ->
      let csr =
        Csr.with_latencies (Rng.of_int (seed + 7)) (Gen.Uniform (1, 8))
          (Csr.watts_strogatz (Rng.of_int seed) ~n:300 ~k:4 ~beta:0.1)
      in
      let before = Gc.minor_words () in
      let r = Eid.run_unknown_scale (Rng.of_int (seed + 17)) csr ~source:0 () in
      let per_round =
        Wheel.gauge_of_minor_words ~total:(Gc.minor_words () -. before) ~rounds:r.Eid.u_rounds
      in
      checkb (Printf.sprintf "seed %d completes" seed) true r.Eid.u_success;
      if per_round > Wheel.minor_words_budget then
        Alcotest.failf "seed %d: %d minor words per round over budget %d" seed per_round
          Wheel.minor_words_budget)
    [ 1021; 1022; 7 ]

let test_unified_scale () =
  let module Dissemination = Gossip_core.Dissemination in
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:6 ~bridge_latency:2 in
  let run d =
    Dissemination.broadcast_scale ?domains:d (Rng.of_int 5) csr ~source:0
      ~max_rounds:100_000 ()
  in
  let r = run None in
  checkb "unified succeeds" true r.Dissemination.b_success;
  checki "everyone informed" (Csr.n csr) (count_informed r.Dissemination.b_informed);
  (* The winner really is the cheaper branch. *)
  (match r.Dissemination.b_pushpull_rounds with
  | Some pp ->
      checki "min of the branches" (min pp r.Dissemination.b_spanner_rounds)
        r.Dissemination.b_rounds
  | None -> checki "spanner wins by default" r.Dissemination.b_spanner_rounds
              r.Dissemination.b_rounds);
  List.iter
    (fun d ->
      let rd = run (Some d) in
      checki (Printf.sprintf "rounds domains=%d" d) r.Dissemination.b_rounds
        rd.Dissemination.b_rounds;
      checkb (Printf.sprintf "winner domains=%d" d) true
        (r.Dissemination.b_winner = rd.Dissemination.b_winner);
      checkb (Printf.sprintf "informed domains=%d" d) true
        (Bytes.equal r.Dissemination.b_informed rd.Dissemination.b_informed))
    parity_domains

let () =
  Alcotest.run "gossip_kernel"
    [
      ( "rumor",
        [
          Alcotest.test_case "all-to-all completion + word accounting" `Quick
            test_rumor_all_to_all;
          Alcotest.test_case "holdings after a run" `Quick test_rumor_holdings_after_run;
          Alcotest.test_case "argument validation" `Quick test_rumor_args_validated;
          Alcotest.test_case "msg_words ceiling" `Quick test_msg_words_ceiling;
          qtest prop_rotation_twin;
          qtest prop_k_rumor_twin;
          qtest prop_algebraic_twin;
        ] );
      ( "spanner-oriented",
        [
          qtest prop_spanner_out_degree;
          qtest prop_oriented_roundtrip;
          Alcotest.test_case "out-degree bound enforced" `Quick test_out_degree_bound_enforced;
        ] );
      ( "rr-parity",
        [
          Alcotest.test_case "gadget families" `Quick test_rr_parity_gadgets;
          qtest prop_rr_parity;
        ] );
      ( "dtg",
        [
          Alcotest.test_case "dtg = flood at l_max" `Quick test_dtg_flood_coincides;
          Alcotest.test_case "confined to G_ell" `Quick test_dtg_confined_to_subgraph;
        ] );
      ("faults", [ Alcotest.test_case "crash + jitter smoke" `Quick test_kernel_fault_smoke ]);
      ( "sharded-kernels",
        [
          Alcotest.test_case "fixed cases" `Quick test_sharded_kernel_fixed;
          qtest prop_sharded_kernel_parity;
          qtest prop_sharded_kernel_parity_scenario;
          qtest prop_rumor_sharded_parity;
          qtest prop_rumor_sharded_parity_churn;
          qtest prop_check_sharded_parity;
          qtest prop_discovery_sharded_parity;
          Alcotest.test_case "chains under a scenario" `Quick test_chains_under_scenario;
          qtest prop_rumor_words_twin;
          qtest prop_by_class_by_edge;
          Alcotest.test_case "multi-block parity" `Quick test_multi_block_parity;
        ] );
      ( "check-parity",
        [
          Alcotest.test_case "fixed cases" `Quick test_check_parity_fixed;
          qtest prop_check_parity;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "kernel-tagged counters" `Quick test_kernel_tagged_telemetry ] );
      ( "eid-scale",
        [
          Alcotest.test_case "unknown-latency chain" `Quick test_unknown_eid_scale;
          Alcotest.test_case "unknown-latency chain allocation" `Quick
            test_unknown_eid_minor_words;
          Alcotest.test_case "unified race" `Quick test_unified_scale;
        ] );
    ]
