module Rng = Gossip_util.Rng
module Bitset = Gossip_util.Bitset
module Graph = Gossip_graph.Graph
module Engine = Gossip_sim.Engine

type result = {
  rounds : int option;
  metrics : Engine.metrics;
  history : (int * int) list;
}

(* Single-rumor broadcast uses boolean payloads: "do I know the rumor".
   This keeps messages O(1) — push-pull's small-message property that
   Section 6 highlights. *)
let broadcast rng g ~source ~max_rounds =
  let n = Graph.n g in
  let informed = Array.make n false in
  informed.(source) <- true;
  let count = ref 1 in
  let mark v =
    if not informed.(v) then begin
      informed.(v) <- true;
      incr count
    end
  in
  let handlers u =
    let node_rng = Rng.split rng in
    let nbrs = Graph.neighbors g u in
    {
      Engine.on_round =
        (fun ~round:_ ->
          if Array.length nbrs = 0 then None
          else begin
            let peer, _ = Rng.pick node_rng nbrs in
            Some (peer, informed.(u))
          end);
      on_request = (fun ~peer:_ ~round:_ _payload -> informed.(u));
      on_push = (fun ~peer:_ ~round:_ payload -> if payload then mark u);
      on_response = (fun ~peer:_ ~round:_ payload -> if payload then mark u);
    }
  in
  let engine = Engine.create g ~handlers in
  let history = ref [ (0, !count) ] in
  let rec go () =
    if !count = n then Some (Engine.current_round engine)
    else if Engine.current_round engine >= max_rounds then None
    else begin
      Engine.step engine;
      let _, last = List.hd !history in
      if !count <> last then history := (Engine.current_round engine, !count) :: !history;
      go ()
    end
  in
  let rounds = go () in
  { rounds; metrics = Engine.metrics engine; history = List.rev !history }

let run_with_sets rng g ~max_rounds ~done_ ~progress =
  let sets = Rumor.initial g in
  let handlers u =
    let node_rng = Rng.split rng in
    let nbrs = Graph.neighbors g u in
    {
      Engine.on_round =
        (fun ~round:_ ->
          if Array.length nbrs = 0 then None
          else begin
            let peer, _ = Rng.pick node_rng nbrs in
            Some (peer, Bitset.copy sets.(u))
          end);
      on_request = (fun ~peer:_ ~round:_ _payload -> Bitset.copy sets.(u));
      on_push =
        (fun ~peer:_ ~round:_ payload ->
          let (_ : bool) = Bitset.union_into ~into:sets.(u) payload in
          ());
      on_response =
        (fun ~peer:_ ~round:_ payload ->
          let (_ : bool) = Bitset.union_into ~into:sets.(u) payload in
          ());
    }
  in
  let engine = Engine.create ~payload_size:Bitset.cardinal g ~handlers in
  let history = ref [ (0, progress sets) ] in
  let rec go () =
    if done_ sets then Some (Engine.current_round engine)
    else if Engine.current_round engine >= max_rounds then None
    else begin
      Engine.step engine;
      let p = progress sets in
      let _, last = List.hd !history in
      if p <> last then history := (Engine.current_round engine, p) :: !history;
      go ()
    end
  in
  let rounds = go () in
  { rounds; metrics = Engine.metrics engine; history = List.rev !history }

let count_full sets =
  Array.fold_left (fun acc s -> if Bitset.is_full s then acc + 1 else acc) 0 sets

let all_to_all rng g ~max_rounds =
  run_with_sets rng g ~max_rounds ~done_:Rumor.all_to_all_done ~progress:count_full

let local_broadcast rng g ~max_rounds =
  run_with_sets rng g ~max_rounds
    ~done_:(fun sets -> Rumor.local_broadcast_done g sets)
    ~progress:count_full
