(* The set-up builds that lib/ replaced, kept as reference twins: the
   Baswana–Sen spanner over one [Stdlib.Hashtbl] per node and
   [Graph.of_edges] over a tuple-keyed table.  test_spanner and
   test_graph check the flat builds against them bit for bit, the
   spanner's out-edge row order included. *)

module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Spanner = Gossip_core.Spanner

(* [of_edges ~n edges] is [Graph.of_edges]'s adjacency (rows sorted by
   neighbor) and edge count. *)
let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let buckets = Array.make n [] in
  let count = ref 0 in
  let seen = Hashtbl.create (List.length edge_list) in
  List.iter
    (fun (u, v, latency) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if latency < 1 then invalid_arg "Graph.of_edges: latency must be >= 1";
      let key = if u < v then (u, v) else (v, u) in
      if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: parallel edge";
      Hashtbl.add seen key ();
      buckets.(u) <- (v, latency) :: buckets.(u);
      buckets.(v) <- (u, latency) :: buckets.(v);
      incr count)
    edge_list;
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort (fun (x, _) (y, _) -> compare x y) a;
        a)
      buckets
  in
  (adj, !count)

(* Distinct weights: compare latency first, then the unordered endpoint
   pair — the paper's tie-break by node ids. *)
let edge_key u v lat = (lat, min u v, max u v)

(* [spanner_build] is [Spanner.build], alive-neighbor sets and
   per-call cluster tables as unrandomized [Hashtbl]s. *)
let spanner_build rng g ~k ?n_hat () : Spanner.t =
  if k < 1 then invalid_arg "Spanner.build: need k >= 1";
  let n = Graph.n g in
  let n_hat = match n_hat with Some h -> max h n | None -> n in
  let p_keep = float_of_int n_hat ** (-1.0 /. float_of_int k) in
  let alive = Array.init n (fun _ -> Hashtbl.create 8) in
  Graph.iter_edges
    (fun { Graph.u; v; latency } ->
      Hashtbl.replace alive.(u) v latency;
      Hashtbl.replace alive.(v) u latency)
    g;
  let discard u v =
    Hashtbl.remove alive.(u) v;
    Hashtbl.remove alive.(v) u
  in
  let out = Array.make n [] in
  let add_oriented v (x, lat) =
    out.(v) <- (x, lat) :: out.(v);
    discard v x
  in
  (* cluster.(v) is the center of v's cluster in C_{i-1}; -1 once v has
     fallen out of Phase 1 (Rule 1). *)
  let cluster = Array.init n (fun v -> v) in
  (* Least-weight alive edge from v into each adjacent cluster. *)
  let adjacent_clusters v =
    let best = Hashtbl.create 8 in
    Hashtbl.iter
      (fun x lat ->
        let c = cluster.(x) in
        if c >= 0 && c <> cluster.(v) then begin
          match Hashtbl.find_opt best c with
          | Some (x', lat') when edge_key v x' lat' <= edge_key v x lat -> ()
          | _ -> Hashtbl.replace best c (x, lat)
        end)
      alive.(v);
    best
  in
  let discard_all_into v c =
    let to_remove =
      Hashtbl.fold (fun x _ acc -> if cluster.(x) = c then x :: acc else acc) alive.(v) []
    in
    List.iter (discard v) to_remove
  in
  (* Phase 1: k-1 sampling iterations. *)
  for _i = 1 to k - 1 do
    let sampled = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        if c >= 0 && not (Hashtbl.mem sampled c) then
          Hashtbl.replace sampled c (Rng.bernoulli rng p_keep))
      cluster;
    let is_sampled c = c >= 0 && Hashtbl.find sampled c in
    let new_cluster = Array.map (fun c -> if is_sampled c then c else -1) cluster in
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not (is_sampled cluster.(v)) then begin
        let best = adjacent_clusters v in
        let sampled_best =
          Hashtbl.fold
            (fun c (x, lat) acc ->
              if is_sampled c then
                match acc with
                | Some (_, (x', lat')) when edge_key v x' lat' <= edge_key v x lat -> acc
                | _ -> Some (c, (x, lat))
              else acc)
            best None
        in
        match sampled_best with
        | None ->
            (* Rule 1: no sampled neighbor cluster — connect once to
               every adjacent cluster and leave Phase 1. *)
            Hashtbl.iter
              (fun c e ->
                add_oriented v e;
                discard_all_into v c)
              best
        | Some (c_join, ((_, e_lat) as e)) ->
            (* Rule 2: join the nearest sampled cluster, plus one edge
               to every strictly closer cluster. *)
            let ex, _ = e in
            new_cluster.(v) <- c_join;
            add_oriented v e;
            discard_all_into v c_join;
            Hashtbl.iter
              (fun c ((x', lat') as e') ->
                if c <> c_join && edge_key v x' lat' < edge_key v ex e_lat then begin
                  add_oriented v e';
                  discard_all_into v c
                end)
              best
      end
    done;
    Array.blit new_cluster 0 cluster 0 n;
    (* Intra-cluster edges are never needed again. *)
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 then begin
        let same =
          Hashtbl.fold
            (fun x _ acc -> if cluster.(x) = cluster.(v) then x :: acc else acc)
            alive.(v) []
        in
        List.iter (discard v) same
      end
    done
  done;
  (* Phase 2: every vertex connects once to each adjacent surviving
     cluster. *)
  for v = 0 to n - 1 do
    let best = adjacent_clusters v in
    Hashtbl.iter (fun _c e -> add_oriented v e) best
  done;
  let out_edges = Array.map Array.of_list out in
  let spanner_edges =
    let acc = ref [] in
    Array.iteri (fun v l -> Array.iter (fun (x, lat) -> acc := (v, x, lat) :: !acc) l) out_edges;
    !acc
  in
  { Spanner.base = g; spanner = Graph.of_edges ~n spanner_edges; out_edges; k }

