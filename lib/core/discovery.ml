module Graph = Gossip_graph.Graph
module Engine = Gossip_sim.Engine

let probe_rounds ~delta ~d_bound = delta + d_bound

type result = {
  rounds : int;
  known : (Graph.node * int) list array;
  complete : bool;
  metrics : Engine.metrics;
}

let probe g ~d_bound =
  if d_bound < 1 then invalid_arg "Discovery.probe: need d_bound >= 1";
  let n = Graph.n g in
  let known = Array.make n [] in
  let pending : (int, int) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 8) in
  let handlers u =
    let nbrs = Graph.neighbors g u in
    let cursor = ref 0 in
    {
      Engine.on_round =
        (fun ~round ->
          if !cursor >= Array.length nbrs then None
          else begin
            let peer, _ = nbrs.(!cursor) in
            incr cursor;
            Hashtbl.replace pending.(u) peer round;
            Some (peer, ())
          end);
      on_request = (fun ~peer:_ ~round:_ () -> ());
      on_push = (fun ~peer:_ ~round:_ () -> ());
      on_response =
        (fun ~peer ~round () ->
          match Hashtbl.find_opt pending.(u) peer with
          | Some start ->
              Hashtbl.remove pending.(u) peer;
              let latency = round - start in
              if latency <= d_bound then known.(u) <- (peer, latency) :: known.(u)
          | None -> ());
    }
  in
  let engine = Engine.create g ~handlers in
  (* Probe for Delta rounds, then wait d_bound for late responses. *)
  for _ = 1 to probe_rounds ~delta:(Graph.max_degree g) ~d_bound do
    Engine.step engine
  done;
  let complete =
    let ok = ref true in
    Graph.iter_edges
      (fun { Graph.u; v; latency } ->
        if latency <= d_bound then begin
          let have side peer = List.mem_assoc peer known.(side) in
          if not (have u v && have v u) then ok := false
        end)
      g;
    !ok
  in
  { rounds = Engine.current_round engine; known; complete; metrics = Engine.metrics engine }

let probe_doubling g ~target =
  if target < 1 then invalid_arg "Discovery.probe_doubling: need target >= 1";
  let rec go d acc_rounds =
    let r = probe g ~d_bound:d in
    let acc_rounds = acc_rounds + r.rounds in
    if d >= target then { r with rounds = acc_rounds } else go (2 * d) acc_rounds
  in
  go 1 0

(* ------------------------------------------------------------------ *)
(* Discovery on the flat CSR scale engine: the same probe schedule —
   one neighbor per round per node, cursor order, a d_bound wait for
   stragglers — but run through the Wheel_engine discovery kernel,
   which times each exchange's measured round trip and records it at
   the probed slot.  The discovered profile is then packed back into a
   CSR graph (an edge counts once both directions are measured, at the
   worse of the two measurements), which is what the unknown-latency
   EID chain builds its spanner from. *)

module Scale_csr = Gossip_scale.Csr
module Scale_kernel = Gossip_scale.Kernel
module Scale_wheel = Gossip_scale.Wheel_engine

type scale_result = {
  s_rounds : int;
  s_discovered : Scale_csr.t;
  s_edges_known : int;
  s_complete : bool;
  s_lat : int array;
}

(* Index of [target] in [o]'s (sorted, symmetric) row of [u]; the
   reverse direction of an edge found by a forward row walk, so it is
   always present. *)
let slot_of o u target =
  let module I32 = Gossip_scale.I32 in
  let lo = ref (I32.get o.Scale_csr.o_row_ptr u)
  and hi = ref (I32.get o.Scale_csr.o_row_ptr (u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = I32.get o.Scale_csr.o_col mid in
    if c = target then found := mid else if c < target then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then invalid_arg "Discovery.probe_scale: asymmetric CSR row";
  !found

let probe_scale session rng csr ~d_bound =
  if d_bound < 1 then invalid_arg "Discovery.probe_scale: need d_bound >= 1";
  let n = Scale_csr.n csr in
  let disc = Scale_kernel.discovery ~d_bound csr in
  let rounds = probe_rounds ~delta:(Scale_csr.max_degree csr) ~d_bound in
  (* The kernel is inert for the rumor machinery (nobody beyond the
     source is ever informed), so the engine runs exactly [rounds]
     rounds: the cap is the schedule. *)
  let res =
    Scale_wheel.phase session rng csr ~kernel:disc.Scale_kernel.disc_kernel ~source:0
      ~max_rounds:rounds
  in
  let o = Scale_csr.oriented_of_csr csr in
  let lat = disc.Scale_kernel.disc_lat in
  let m = Scale_csr.m csr in
  let eu = Array.make (max 1 m) 0
  and ev = Array.make (max 1 m) 0
  and el = Array.make (max 1 m) 0 in
  let count = ref 0 in
  let complete = ref true in
  let module I32 = Gossip_scale.I32 in
  for u = 0 to n - 1 do
    for i = I32.get o.Scale_csr.o_row_ptr u to I32.get o.Scale_csr.o_row_ptr (u + 1) - 1 do
      if I32.get o.Scale_csr.o_lat i <= d_bound && lat.(i) < 0 then complete := false;
      let v = I32.get o.Scale_csr.o_col i in
      if v > u && lat.(i) >= 0 then begin
        let j = slot_of o v u in
        if lat.(j) >= 0 then begin
          eu.(!count) <- u;
          ev.(!count) <- v;
          el.(!count) <- max lat.(i) lat.(j);
          incr count
        end
      end
    done
  done;
  {
    s_rounds = res.Scale_wheel.metrics.Gossip_sim.Engine.rounds;
    s_discovered = Scale_csr.of_undirected_arrays ~n eu ev el ~count:!count;
    s_edges_known = !count;
    s_complete = !complete;
    s_lat = lat;
  }
