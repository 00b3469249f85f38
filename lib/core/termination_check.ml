module Bitset = Gossip_util.Bitset
module Graph = Gossip_graph.Graph
module Engine = Gossip_sim.Engine

type result = { failed : bool array; rounds : int; unanimous : bool }

type gather = { frozen : Bitset.t; flag : bool; mismatch : bool }

let rr_rounds_of ~delta_out ~k = (k * delta_out) + k

let rr_rounds ~usable ~k =
  let delta_out = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 usable in
  rr_rounds_of ~delta_out ~k

(* One round-robin flood with payload ['p]: each node cycles over its
   latency-<= k out-edges; [absorb u p] folds a received payload into
   node [u]'s state and [emit u] builds the next payload. *)
let flood ~base ~usable ~iterations ~k ~absorb ~emit =
  let handlers u =
    let cursor = ref 0 in
    {
      Engine.on_round =
        (fun ~round ->
          if round >= iterations || Array.length usable.(u) = 0 then None
          else begin
            let peer, _ = usable.(u).(!cursor mod Array.length usable.(u)) in
            incr cursor;
            Some (peer, emit u)
          end);
      on_request = (fun ~peer:_ ~round:_ _payload -> emit u);
      on_push = (fun ~peer:_ ~round:_ payload -> absorb u payload);
      on_response = (fun ~peer:_ ~round:_ payload -> absorb u payload);
    }
  in
  let engine = Engine.create base ~handlers in
  for _ = 1 to iterations + k do
    Engine.step engine
  done;
  Engine.current_round engine

let run ~base ~out_edges ~k ~sets =
  let n = Graph.n base in
  if Array.length sets <> n then invalid_arg "Termination_check.run: sets size mismatch";
  let usable =
    Array.map
      (fun l -> Array.of_list (List.filter (fun (_, lat) -> lat <= k) (Array.to_list l)))
      out_edges
  in
  let iterations = rr_rounds ~usable ~k in
  (* Local flags: a neighbor missing from the rumor set. *)
  let frozen = Array.map Bitset.copy sets in
  let flag = Array.init n (fun u ->
      Array.exists (fun (v, _) -> not (Bitset.mem frozen.(u) v)) (Graph.neighbors base u))
  in
  let mismatch = Array.make n false in
  (* Pass 1: gather rumor-set fingerprints and flags. *)
  let rounds1 =
    flood ~base ~usable ~iterations ~k
      ~absorb:(fun u p ->
        if p.flag then flag.(u) <- true;
        if p.mismatch || not (Bitset.equal frozen.(u) p.frozen) then mismatch.(u) <- true)
      ~emit:(fun u -> { frozen = frozen.(u); flag = flag.(u); mismatch = mismatch.(u) })
  in
  (* Pass 2: flood the failed verdict. *)
  let failed = Array.init n (fun u -> flag.(u) || mismatch.(u)) in
  let rounds2 =
    flood ~base ~usable ~iterations ~k
      ~absorb:(fun u p -> if p then failed.(u) <- true)
      ~emit:(fun u -> failed.(u))
  in
  let unanimous =
    Array.for_all (fun f -> f = failed.(0)) failed
  in
  { failed; rounds = rounds1 + rounds2; unanimous }

(* Single-rumor check, reference engine: the frozen "rumor set" is one
   bit (did u hear the rumor?) and a node starts flagged iff it is
   uninformed — a unanimously clean verdict is exactly "everyone heard
   it".  This is the semantics the scale kernel bit-packs, kept here
   in boxed form so the two runtimes can be qcheck'd against each
   other. *)
let run_single ~base ~out_edges ~k ~informed =
  let n = Graph.n base in
  if Array.length informed <> n then
    invalid_arg "Termination_check.run_single: informed size mismatch";
  let usable =
    Array.map
      (fun l -> Array.of_list (List.filter (fun (_, lat) -> lat <= k) (Array.to_list l)))
      out_edges
  in
  let iterations = rr_rounds ~usable ~k in
  let frozen = Array.copy informed in
  let flag = Array.map not frozen in
  let mismatch = Array.make n false in
  let rounds1 =
    flood ~base ~usable ~iterations ~k
      ~absorb:(fun u (f, fl, mm) ->
        if fl then flag.(u) <- true;
        if mm || f <> frozen.(u) then mismatch.(u) <- true)
      ~emit:(fun u -> (frozen.(u), flag.(u), mismatch.(u)))
  in
  let failed = Array.init n (fun u -> flag.(u) || mismatch.(u)) in
  let rounds2 =
    flood ~base ~usable ~iterations ~k
      ~absorb:(fun u p -> if p then failed.(u) <- true)
      ~emit:(fun u -> failed.(u))
  in
  let unanimous = Array.for_all (fun f -> f = failed.(0)) failed in
  { failed; rounds = rounds1 + rounds2; unanimous }

(* ------------------------------------------------------------------ *)
(* The single-rumor check on the flat CSR scale engine: pass 1 is the
   {!Gossip_scale.Kernel.termination_check} gather kernel, pass 2 the
   verdict flood, each run for its Lemma 15 window (iterations + k
   rounds — the engine's round cap IS the schedule; the kernels are
   inert for the rumor machinery, so the engine never exits early). *)

module Scale_csr = Gossip_scale.Csr
module Scale_kernel = Gossip_scale.Kernel
module Scale_wheel = Gossip_scale.Wheel_engine

type scale_result = {
  sc_failed : Bytes.t;
  sc_rounds : int;
  sc_unanimous : bool;
  sc_any_failed : bool;
}

let run_scale session rng csr ~oriented ~k ~informed =
  let n = Scale_csr.n csr in
  if Bytes.length informed <> n then
    invalid_arg "Termination_check.run_scale: informed size mismatch";
  let usable = Scale_csr.oriented_filter_le oriented k in
  let delta_out = Scale_csr.oriented_max_out_degree usable in
  let iterations = rr_rounds_of ~delta_out ~k in
  let window = iterations + k in
  let check = Scale_kernel.termination_check ~iterations ~informed usable in
  (* Never pass ?informed here: when every node already holds the
     rumor the engine would observe a complete informed set before the
     first round and skip the run — which is exactly the case the
     check must confirm by actually talking. *)
  let res1 =
    Scale_wheel.phase session rng csr ~kernel:check.Scale_kernel.check_kernel ~source:0
      ~max_rounds:window
  in
  let failed = Bytes.make n '\000' in
  for u = 0 to n - 1 do
    if
      Bytes.get check.Scale_kernel.check_flag u <> '\000'
      || Bytes.get check.Scale_kernel.check_mismatch u <> '\000'
    then Bytes.set failed u '\001'
  done;
  let verdict = Scale_kernel.verdict_flood ~iterations ~failed usable in
  let res2 = Scale_wheel.phase session rng csr ~kernel:verdict ~source:0 ~max_rounds:window in
  let first = Bytes.get failed 0 in
  let unanimous = ref true and any = ref false in
  Bytes.iter
    (fun c ->
      if c <> first then unanimous := false;
      if c <> '\000' then any := true)
    failed;
  let rounds (r : Scale_wheel.result) = r.metrics.Gossip_sim.Engine.rounds in
  {
    sc_failed = failed;
    sc_rounds = rounds res1 + rounds res2;
    sc_unanimous = !unanimous;
    sc_any_failed = !any;
  }
