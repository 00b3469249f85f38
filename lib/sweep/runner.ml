module Csr = Gossip_scale.Csr
module Kernel = Gossip_scale.Kernel
module Wheel_engine = Gossip_scale.Wheel_engine
module Scenario = Gossip_dyn.Scenario
module Spanner = Gossip_core.Spanner
module Eid = Gossip_core.Eid
module Dissemination = Gossip_core.Dissemination
module Rng = Gossip_util.Rng

type spanner = {
  k : int;
  edges : int;
  max_out_degree : int;
  out_degree_bound : int;
  build_s : float;
}

type route =
  | Kernel_run
  | Spanner_run of spanner
  | Eid_chain of Eid.unknown_result
  | Unified_race of Dissemination.scale_result

type outcome = { name : string; result : Wheel_engine.result; route : route }

(* Baswana–Sen on its own stream, so the build never perturbs the
   engine's draws. *)
let build_spanner csr ~stretch_k ~seed =
  let t0 = Unix.gettimeofday () in
  let n = Csr.n csr in
  let k = if stretch_k > 0 then stretch_k else Spanner.ceil_log2 n in
  let sp = Spanner.build (Rng.of_int (seed + 29)) (Csr.to_graph csr) ~k ~n_hat:n () in
  let out_degree_bound = Spanner.out_degree_bound ~n ~k in
  let oriented = Csr.of_oriented_spanner ~out_degree_bound sp.Spanner.out_edges in
  ( oriented,
    {
      k;
      edges = Csr.oriented_edge_count oriented;
      max_out_degree = Csr.oriented_max_out_degree oriented;
      out_degree_bound;
      build_s = Unix.gettimeofday () -. t0;
    } )

let run ?scenario ?domains ?telemetry ?deadline ?on_round ?pool_capacity csr protocol ~seed
    ~source ~max_rounds =
  let rng = Rng.of_int (seed + 17) in
  let compile ?oriented () =
    Option.map (fun s -> Scenario.compile ?oriented s ~csr ~source) scenario
  in
  let env c = Option.map (fun c -> c.Scenario.env) c in
  let wheel c = Option.map (fun c -> c.Scenario.wheel_latency) c in
  let chain ~success ~rounds ~metrics ~informed =
    let rounds = if success then Some rounds else None in
    { Wheel_engine.rounds; metrics; history = []; informed }
  in
  match protocol with
  | Kernel.Unknown_eid ->
      let c = compile () in
      let r =
        Eid.run_unknown_scale ?env:(env c) ?wheel_latency:(wheel c) ?deadline ?on_round
          ?telemetry ?domains rng csr ~source ()
      in
      {
        name = "unknown-eid";
        result =
          chain ~success:r.Eid.u_success ~rounds:r.Eid.u_rounds ~metrics:r.Eid.u_metrics
            ~informed:r.Eid.u_informed;
        route = Eid_chain r;
      }
  | Kernel.Unified ->
      let c = compile () in
      let r =
        Dissemination.broadcast_scale ?env:(env c) ?wheel_latency:(wheel c) ?deadline
          ?on_round ?telemetry ?domains rng csr ~source ~max_rounds ()
      in
      {
        name = "unified";
        result =
          chain ~success:r.Dissemination.b_success ~rounds:r.Dissemination.b_rounds
            ~metrics:r.Dissemination.b_metrics ~informed:r.Dissemination.b_informed;
        route = Unified_race r;
      }
  | p ->
      let kernel, oriented, route =
        match p with
        | Kernel.Rr_spanner { stretch_k } ->
            let oriented, sp = build_spanner csr ~stretch_k ~seed in
            ( Kernel.rr_broadcast ~k:(Csr.oriented_max_latency oriented) oriented,
              Some oriented,
              Spanner_run sp )
        | p -> (Kernel.of_protocol csr p, None, Kernel_run)
      in
      let c = compile ?oriented () in
      let on_round =
        match (telemetry, c) with
        | Some reg, Some c -> (
            let observe = Scenario.observer c ~csr ~telemetry:reg in
            match on_round with
            | None -> Some observe
            | Some f ->
                Some
                  (fun ~round ~informed ->
                    observe ~round ~informed;
                    f ~round ~informed))
        | _ -> on_round
      in
      let result =
        Wheel_engine.broadcast_kernel ?env:(env c) ?wheel_latency:(wheel c) ?deadline ?on_round
          ?telemetry ?pool_capacity ?domains rng csr ~kernel ~source ~max_rounds
      in
      { name = Kernel.name kernel; result; route }
