type node = int

type edge = { u : node; v : node; latency : int }

type t = {
  n : int;
  adj : (node * int) array array; (* adj.(u) sorted by neighbor id *)
  m : int;
}

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let deg = Array.make n 0 in
  let m = ref 0 in
  List.iter
    (fun (u, v, latency) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if latency < 1 then invalid_arg "Graph.of_edges: latency must be >= 1";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr m)
    edge_list;
  (* Node u's entries, in list order, fill cells [start.(u), start.(u + 1))
     of the flat [nbr]/[lat] store; [deg] is reused as the fill cursor. *)
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u) + deg.(u)
  done;
  let nbr = Array.make (2 * !m) 0 and lat = Array.make (2 * !m) 0 in
  Array.fill deg 0 n 0;
  let put u v latency =
    let s = start.(u) + deg.(u) in
    nbr.(s) <- v;
    lat.(s) <- latency;
    deg.(u) <- deg.(u) + 1
  in
  List.iter
    (fun (u, v, latency) ->
      put u v latency;
      put v u latency)
    edge_list;
  (* Dealing x's entries out as x for x = 0, 1, ... fills every row in
     ascending neighbor order (a counting sort, O(n + m)), and a
     parallel edge arrives as x twice in a row. *)
  let adj = Array.map (fun d -> Array.make d (0, 0)) deg in
  Array.fill deg 0 n 0;
  for x = 0 to n - 1 do
    for s = start.(x) to start.(x + 1) - 1 do
      let y = nbr.(s) in
      let row = adj.(y) and c = deg.(y) in
      if c > 0 && fst row.(c - 1) = x then invalid_arg "Graph.of_edges: parallel edge";
      row.(c) <- (x, lat.(s));
      deg.(y) <- c + 1
    done
  done;
  { n; adj; m = !m }

(* Rows arrive sorted; symmetry is checked in one pass: visiting u in
   ascending order, the entries below v of row v are met exactly in
   ascending order, so [matched.(v)] walks row v's prefix. *)
let of_rows (adj : (node * int) array array) =
  let n = Array.length adj in
  let matched = Array.make n 0 in
  let m = ref 0 in
  for u = 0 to n - 1 do
    let row = adj.(u) in
    let below = ref 0 in
    Array.iteri
      (fun i (v, latency) ->
        if v < 0 || v >= n then invalid_arg "Graph.of_rows: endpoint out of range";
        if v = u then invalid_arg "Graph.of_rows: self-loop";
        if latency < 1 then invalid_arg "Graph.of_rows: latency must be >= 1";
        if i > 0 && fst row.(i - 1) >= v then
          invalid_arg "Graph.of_rows: row not strictly ascending";
        if v < u then incr below
        else begin
          let j = matched.(v) and back = adj.(v) in
          if j >= Array.length back then invalid_arg "Graph.of_rows: rows not symmetric";
          let w, l = back.(j) in
          if w <> u || l <> latency then invalid_arg "Graph.of_rows: rows not symmetric";
          matched.(v) <- j + 1;
          incr m
        end)
      row;
    if matched.(u) <> !below then invalid_arg "Graph.of_rows: rows not symmetric"
  done;
  { n; adj; m = !m }

let n g = g.n

let m g = g.m

let neighbors g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbors: node out of range";
  g.adj.(u)

let degree g u = Array.length (neighbors g u)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let latency g u v =
  let a = neighbors g u in
  (* Binary search on the sorted neighbor array. *)
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let w, lat = a.(mid) in
      if w = v then Some lat else if w < v then go (mid + 1) hi else go lo (mid - 1)
    end
  in
  go 0 (Array.length a - 1)

let mem_edge g u v = latency g u v <> None

let iter_edges f g =
  for u = 0 to g.n - 1 do
    Array.iter (fun (v, latency) -> if u < v then f { u; v; latency }) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun e -> acc := e :: !acc) g;
  List.rev !acc

let max_latency g =
  let best = ref 1 in
  iter_edges (fun e -> if e.latency > !best then best := e.latency) g;
  !best

let distinct_latencies g =
  let tbl = Hashtbl.create 16 in
  iter_edges (fun e -> Hashtbl.replace tbl e.latency ()) g;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let map_latencies f g =
  let acc = ref [] in
  iter_edges (fun e -> acc := (e.u, e.v, f e.u e.v e.latency) :: !acc) g;
  of_edges ~n:g.n !acc

let subgraph_le g l =
  let acc = ref [] in
  iter_edges (fun e -> if e.latency <= l then acc := (e.u, e.v, e.latency) :: !acc) g;
  of_edges ~n:g.n !acc

let is_connected g =
  if g.n <= 1 then true
  else begin
    let seen = Array.make g.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visited = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          Array.iter
            (fun (v, _) ->
              if not seen.(v) then begin
                seen.(v) <- true;
                incr visited;
                stack := v :: !stack
              end)
            g.adj.(u);
          loop ()
    in
    loop ();
    !visited = g.n
  end

let volume g nodes = List.fold_left (fun acc u -> acc + degree g u) 0 nodes

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, Δ=%d, ℓmax=%d)" g.n g.m (max_degree g) (max_latency g)
