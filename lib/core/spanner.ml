module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph

type t = {
  base : Graph.t;
  spanner : Graph.t;
  out_edges : (Graph.node * int) array array;
  k : int;
}

(* The build keeps no hash table, but it chooses edges in the order
   unrandomized [Stdlib.Hashtbl]s keyed by neighbor and by cluster
   iterate them, which recorded RR trajectories depend on (see the
   .mli).  An unrandomized [Hashtbl.create 8] starts at 16 buckets and
   doubles whenever its size passes twice the bucket count; it never
   shrinks, and iteration walks the buckets in index order
   ([Hashtbl.hash key land (buckets - 1)]), newest key first within a
   bucket.  Removals, resizes and [replace] of a present key keep the
   relative order of the rest. *)
let rec buckets_from b size = if size > 2 * b then buckets_from (2 * b) size else b

(* [iteration_order ~hash ~count keys len perm] writes to [perm] the
   indices [0, len) of [keys] in the order such a table iterates them
   when [keys.(0)], [keys.(1)], ... were added in turn and never more:
   a counting sort by bucket, latest first within a bucket.  [hash] is
   [Hashtbl.hash] by key; [count] is scratch of at least
   [buckets_from 16 len] cells. *)
let iteration_order ~hash ~count keys len perm =
  if len = 1 then perm.(0) <- 0
  else if len > 1 then begin
    let mask = buckets_from 16 len - 1 in
    Array.fill count 0 (mask + 1) 0;
    for i = 0 to len - 1 do
      let b = hash.(keys.(i)) land mask in
      count.(b) <- count.(b) + 1
    done;
    let next = ref 0 in
    for b = 0 to mask do
      let c = count.(b) in
      count.(b) <- !next;
      next := !next + c
    done;
    for i = len - 1 downto 0 do
      let b = hash.(keys.(i)) land mask in
      perm.(count.(b)) <- i;
      count.(b) <- count.(b) + 1
    done
  end

let build rng g ~k ?n_hat () =
  if k < 1 then invalid_arg "Spanner.build: need k >= 1";
  let n = Graph.n g in
  let n_hat = match n_hat with Some h -> max h n | None -> n in
  let p_keep = float_of_int n_hat ** (-1.0 /. float_of_int k) in
  let hash = Array.init n Hashtbl.hash in
  let max_deg = Graph.max_degree g in
  let count = Array.make (buckets_from 16 max_deg) 0 in
  (* [keys] and [perm] are [iteration_order]'s input and output. *)
  let keys = Array.make max_deg 0 and perm = Array.make max_deg 0 in
  (* Slot rows: slots row.(v) .. row.(v+1)-1 hold v's edges in the
     order a table of v's neighbors, filled in ascending id, iterates
     them.  A slot has the neighbor, the latency, an alive flag and a
     twin: the same edge's slot in the neighbor's row. *)
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + Graph.degree g v
  done;
  let slots = row.(n) in
  let nbr = Array.make slots 0 and lat = Array.make slots 0 in
  (* pos.(row.(v) + i) is the slot of v's i-th neighbor in ascending id. *)
  let pos = Array.make slots 0 in
  for v = 0 to n - 1 do
    let a = Graph.neighbors g v in
    let d = Array.length a in
    for i = 0 to d - 1 do
      keys.(i) <- fst a.(i)
    done;
    iteration_order ~hash ~count keys d perm;
    for j = 0 to d - 1 do
      let i = perm.(j) and s = row.(v) + j in
      let x, l = a.(i) in
      pos.(row.(v) + i) <- s;
      nbr.(s) <- x;
      lat.(s) <- l
    done
  done;
  (* Walking u in ascending id meets each row's neighbors in ascending
     id, so one cursor per row finds the twins. *)
  let twin = Array.make slots 0 in
  let cursor = Array.sub row 0 n in
  for u = 0 to n - 1 do
    let a = Graph.neighbors g u in
    for i = 0 to Array.length a - 1 do
      let x = fst a.(i) in
      twin.(pos.(row.(u) + i)) <- pos.(cursor.(x));
      cursor.(x) <- cursor.(x) + 1
    done
  done;
  let alive = Bytes.make slots '\001' in
  let is_alive s = Bytes.get alive s <> '\000' in
  let discard s =
    Bytes.set alive s '\000';
    Bytes.set alive twin.(s) '\000'
  in
  (* Distinct weights: latency first, then the unordered endpoint pair —
     the paper's tie-break by node ids.  For two edges of one endpoint
     that pair orders as the other endpoints do. *)
  let lighter s s' = lat.(s) < lat.(s') || (lat.(s) = lat.(s') && nbr.(s) < nbr.(s')) in
  (* Oriented edges in selection order, each as its slot in the row of
     the vertex that added it; each edge is added at most once. *)
  let chosen = Array.make (slots / 2) 0 and n_chosen = ref 0 in
  let add_oriented s =
    chosen.(!n_chosen) <- s;
    incr n_chosen;
    discard s
  in
  (* cluster.(v) is the center of v's cluster in C_{i-1}; -1 once v has
     fallen out of Phase 1 (Rule 1). *)
  let cluster = Array.init n (fun v -> v) in
  (* Per-cluster stamps, one stamp per [adjacent_clusters] call:
     [seen.(c)] marks c as adjacent, its least edge at [best_slot.(c)];
     [doomed.(c)] marks v's edges into c for [discard_doomed]. *)
  let stamp = ref 0 in
  let seen = Array.make n 0 and doomed = Array.make n 0 and best_slot = Array.make n 0 in
  (* Least-weight alive edge from v into each adjacent cluster: returns
     the number of clusters, leaving them in first-encounter order in
     [keys] and in [perm] the order a table keyed by cluster, filled in
     that order, iterates them. *)
  let adjacent_clusters v =
    incr stamp;
    let st = !stamp and cv = cluster.(v) and cnt = ref 0 in
    for s = row.(v) to row.(v + 1) - 1 do
      if is_alive s then begin
        let c = cluster.(nbr.(s)) in
        if c >= 0 && c <> cv then
          if seen.(c) <> st then begin
            seen.(c) <- st;
            best_slot.(c) <- s;
            keys.(!cnt) <- c;
            incr cnt
          end
          else if lighter s best_slot.(c) then best_slot.(c) <- s
      end
    done;
    iteration_order ~hash ~count keys !cnt perm;
    !cnt
  in
  let cluster_at r = keys.(perm.(r)) in
  let doom c = doomed.(c) <- !stamp in
  let discard_doomed v =
    for s = row.(v) to row.(v + 1) - 1 do
      if is_alive s then begin
        let c = cluster.(nbr.(s)) in
        if c >= 0 && doomed.(c) = !stamp then discard s
      end
    done
  in
  (* Phase 1: k-1 sampling iterations. *)
  let sampled = Array.make n false and drawn = Array.make n 0 in
  let new_cluster = Array.make n (-1) in
  for i = 1 to k - 1 do
    (* One draw per cluster, in order of first appearance in [cluster]. *)
    Array.iter
      (fun c ->
        if c >= 0 && drawn.(c) <> i then begin
          drawn.(c) <- i;
          sampled.(c) <- Rng.bernoulli rng p_keep
        end)
      cluster;
    let is_sampled c = c >= 0 && sampled.(c) in
    Array.iteri (fun v c -> new_cluster.(v) <- (if is_sampled c then c else -1)) cluster;
    for v = 0 to n - 1 do
      if cluster.(v) >= 0 && not (is_sampled cluster.(v)) then begin
        let cnt = adjacent_clusters v in
        let join = ref (-1) in
        for r = 0 to cnt - 1 do
          let c = cluster_at r in
          if sampled.(c) && (!join < 0 || lighter best_slot.(c) best_slot.(!join)) then join := c
        done;
        if !join < 0 then
          (* Rule 1: no sampled neighbor cluster — connect once to
             every adjacent cluster and leave Phase 1. *)
          for r = 0 to cnt - 1 do
            let c = cluster_at r in
            add_oriented best_slot.(c);
            doom c
          done
        else begin
          (* Rule 2: join the nearest sampled cluster, plus one edge
             to every strictly closer cluster. *)
          let c_join = !join in
          let s_join = best_slot.(c_join) in
          new_cluster.(v) <- c_join;
          add_oriented s_join;
          doom c_join;
          for r = 0 to cnt - 1 do
            let c = cluster_at r in
            if c <> c_join && lighter best_slot.(c) s_join then begin
              add_oriented best_slot.(c);
              doom c
            end
          done
        end;
        discard_doomed v
      end
    done;
    Array.blit new_cluster 0 cluster 0 n;
    (* Intra-cluster edges are never needed again. *)
    for v = 0 to n - 1 do
      let cv = cluster.(v) in
      if cv >= 0 then
        for s = row.(v) to row.(v + 1) - 1 do
          if is_alive s && cluster.(nbr.(s)) = cv then discard s
        done
    done
  done;
  (* Phase 2: every vertex connects once to each adjacent surviving
     cluster. *)
  for v = 0 to n - 1 do
    for r = 0 to adjacent_clusters v - 1 do
      add_oriented best_slot.(cluster_at r)
    done
  done;
  (* out_edges.(v) lists v's edges latest first; the vertex that added
     slot s's edge is the neighbor of its twin. *)
  let owner s = nbr.(twin.(s)) in
  let fill = Array.make n 0 in
  for i = 0 to !n_chosen - 1 do
    let v = owner chosen.(i) in
    fill.(v) <- fill.(v) + 1
  done;
  let out_edges = Array.map (fun d -> Array.make d (0, 0)) fill in
  let spanner_edges = ref [] in
  for i = 0 to !n_chosen - 1 do
    let s = chosen.(i) in
    let v = owner s in
    fill.(v) <- fill.(v) - 1;
    out_edges.(v).(fill.(v)) <- (nbr.(s), lat.(s));
    spanner_edges := (v, nbr.(s), lat.(s)) :: !spanner_edges
  done;
  { base = g; spanner = Graph.of_edges ~n !spanner_edges; out_edges; k }

let ceil_log2 x =
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  max 1 (go 0 1)

let out_degree_bound ~n ~k =
  let nf = float_of_int (max 2 n) in
  int_of_float (ceil (8.0 *. (nf ** (1.0 /. float_of_int k)) *. log nf))

let max_out_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.out_edges

let edge_count t = Graph.m t.spanner

let stretch t = Gossip_graph.Paths.stretch ~of_:t.spanner ~wrt:t.base
