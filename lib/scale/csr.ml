module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph
module Gen = Gossip_graph.Gen

type t = { n : int; row_ptr : I32.t; col : I32.t; lat : I32.t }

(* Every constructor funnels its scalars through these checks, so an
   out-of-range node count, latency, or row_ptr entry raises the typed
   [I32.Overflow] instead of wrapping inside an int32 cell. *)
let check_n n = I32.check "node count" n

let check_len len = I32.check "row_ptr entry" len

let check_lat l = I32.check "latency" l

let n t = t.n

let m t = I32.length t.col / 2

let degree t u = I32.get t.row_ptr (u + 1) - I32.get t.row_ptr u

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    if degree t u > !best then best := degree t u
  done;
  !best

let max_latency t =
  let best = ref 1 in
  for i = 0 to I32.length t.lat - 1 do
    let l = I32.get t.lat i in
    if l > !best then best := l
  done;
  !best

let latency t u v =
  if u < 0 || u >= t.n then invalid_arg "Csr.latency: node out of range";
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let w = I32.get t.col mid in
      if w = v then Some (I32.get t.lat mid)
      else if w < v then go (mid + 1) hi
      else go lo (mid - 1)
    end
  in
  go (I32.get t.row_ptr u) (I32.get t.row_ptr (u + 1) - 1)

let iter_neighbors t u f =
  if u < 0 || u >= t.n then invalid_arg "Csr.iter_neighbors: node out of range";
  for i = I32.get t.row_ptr u to I32.get t.row_ptr (u + 1) - 1 do
    f (I32.get t.col i) (I32.get t.lat i)
  done

let is_connected t =
  if t.n <= 1 then true
  else begin
    let seen = Bytes.make t.n '\000' in
    let queue = Array.make t.n 0 in
    Bytes.set seen 0 '\001';
    queue.(0) <- 0;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = I32.get t.row_ptr u to I32.get t.row_ptr (u + 1) - 1 do
        let v = I32.get t.col i in
        if Bytes.get seen v = '\000' then begin
          Bytes.set seen v '\001';
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail = t.n
  end

let equal a b =
  a.n = b.n && I32.equal a.row_ptr b.row_ptr && I32.equal a.col b.col
  && I32.equal a.lat b.lat

(* One int32 Bigarray costs its 4-byte payload plus a header the size
   of roughly three words (custom block + dimension); the record adds
   its own header and fields. *)
let ba_words a = 3 + ((I32.memory_bytes a + 7) / 8)

let memory_words t = 5 + ba_words t.row_ptr + ba_words t.col + ba_words t.lat

(* The same structure in the pre-int32 boxed layout (three [int
   array]s at a full word per element): the honest baseline bench e18
   compares resident bytes-per-edge against. *)
let boxed_memory_words t =
  4 + I32.length t.row_ptr + I32.length t.col + I32.length t.lat + 3

(* Build row_ptr from an int prefix sum, rejecting entries beyond the
   int32 range before anything is packed. *)
let pack_row_ptr row_ptr =
  check_len row_ptr.(Array.length row_ptr - 1);
  I32.of_int_array ~what:"row_ptr entry" row_ptr

let of_graph g =
  let n = Graph.n g in
  check_n n;
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u) + Graph.degree g u
  done;
  let len = row_ptr.(n) in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  for u = 0 to n - 1 do
    let base = I32.get row_ptr u in
    Array.iteri
      (fun i (v, l) ->
        check_lat l;
        I32.set col (base + i) v;
        I32.set lat (base + i) l)
      (Graph.neighbors g u)
  done;
  { n; row_ptr; col; lat }

(* CSR rows are already sorted and symmetric: copy them row for row. *)
let to_graph t =
  Graph.of_rows
    (Array.init t.n (fun u ->
         let lo = I32.get t.row_ptr u in
         Array.init
           (I32.get t.row_ptr (u + 1) - lo)
           (fun i -> (I32.get t.col (lo + i), I32.get t.lat (lo + i)))))

(* Insertion sort of one CSR row segment [lo, hi) by neighbor id.  The
   generators below emit rows that are sorted except for a couple of
   trailing entries (bridges, rewired edges), so this is effectively
   linear. *)
let sort_row col lat lo hi =
  for i = lo + 1 to hi - 1 do
    let c = I32.get col i and l = I32.get lat i in
    let j = ref (i - 1) in
    while !j >= lo && I32.get col !j > c do
      I32.set col (!j + 1) (I32.get col !j);
      I32.set lat (!j + 1) (I32.get lat !j);
      decr j
    done;
    I32.set col (!j + 1) c;
    I32.set lat (!j + 1) l
  done

(* Pack [count] undirected edges held in parallel arrays into CSR:
   count degrees, prefix-sum, scatter both directions, sort rows. *)
let of_undirected_arrays ~n eu ev el ~count =
  check_n n;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to count - 1 do
    row_ptr.(eu.(i) + 1) <- row_ptr.(eu.(i) + 1) + 1;
    row_ptr.(ev.(i) + 1) <- row_ptr.(ev.(i) + 1) + 1
  done;
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u + 1) + row_ptr.(u)
  done;
  let len = row_ptr.(n) in
  let cursor = Array.copy row_ptr in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  for i = 0 to count - 1 do
    let u = eu.(i) and v = ev.(i) and l = el.(i) in
    check_lat l;
    I32.set col cursor.(u) v;
    I32.set lat cursor.(u) l;
    cursor.(u) <- cursor.(u) + 1;
    I32.set col cursor.(v) u;
    I32.set lat cursor.(v) l;
    cursor.(v) <- cursor.(v) + 1
  done;
  for u = 0 to n - 1 do
    sort_row col lat (I32.get row_ptr u) (I32.get row_ptr (u + 1))
  done;
  { n; row_ptr; col; lat }

let ring_of_cliques ~cliques ~size ~bridge_latency =
  if cliques < 3 then invalid_arg "Csr.ring_of_cliques: need >= 3 cliques";
  if size < 1 then invalid_arg "Csr.ring_of_cliques: need size >= 1";
  if bridge_latency < 1 then invalid_arg "Csr.ring_of_cliques: bad bridge latency";
  let n = cliques * size in
  check_n n;
  check_lat bridge_latency;
  let id c i = (c * size) + i in
  let deg i = size - 1 + (if i = 0 then 1 else 0) + if i = size - 1 then 1 else 0 in
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u) + deg (u mod size)
  done;
  let len = row_ptr.(n) in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  for c = 0 to cliques - 1 do
    for i = 0 to size - 1 do
      let u = id c i in
      let p = ref (I32.get row_ptr u) in
      let push v l =
        I32.set col !p v;
        I32.set lat !p l;
        incr p
      in
      for j = 0 to size - 1 do
        if j <> i then push (id c j) 1
      done;
      if i = 0 then push (id ((c - 1 + cliques) mod cliques) (size - 1)) bridge_latency;
      if i = size - 1 then push (id ((c + 1) mod cliques) 0) bridge_latency;
      sort_row col lat (I32.get row_ptr u) (I32.get row_ptr (u + 1))
    done
  done;
  { n; row_ptr; col; lat }

let braided_ring ~cliques ~size ~bridges ~bridge_latency =
  if cliques < 3 then invalid_arg "Csr.braided_ring: need >= 3 cliques";
  if size < 1 then invalid_arg "Csr.braided_ring: need size >= 1";
  if bridges < 1 || bridges > size then
    invalid_arg "Csr.braided_ring: need 1 <= bridges <= size";
  if bridge_latency < 2 then
    invalid_arg "Csr.braided_ring: need bridge_latency >= 2 (bridge 0 runs at bridge_latency - 1)";
  let n = cliques * size in
  check_n n;
  check_lat bridge_latency;
  let id c i = (c * size) + i in
  let deg i = size - 1 + if i < bridges then 2 else 0 in
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ptr.(u + 1) <- row_ptr.(u) + deg (u mod size)
  done;
  let len = row_ptr.(n) in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  for c = 0 to cliques - 1 do
    for i = 0 to size - 1 do
      let u = id c i in
      let p = ref (I32.get row_ptr u) in
      let push v l =
        I32.set col !p v;
        I32.set lat !p l;
        incr p
      in
      for j = 0 to size - 1 do
        if j <> i then push (id c j) 1
      done;
      if i < bridges then begin
        (* Bridge 0 is the fast backbone; its siblings run one round
           slower, so a latency filter at [bridge_latency] touches the
           braid but never the backbone. *)
        let l = if i = 0 then bridge_latency - 1 else bridge_latency in
        push (id ((c - 1 + cliques) mod cliques) i) l;
        push (id ((c + 1) mod cliques) i) l
      end;
      sort_row col lat (I32.get row_ptr u) (I32.get row_ptr (u + 1))
    done
  done;
  { n; row_ptr; col; lat }

let barabasi_albert rng ~n ~attach =
  if attach < 1 || n <= attach then invalid_arg "Csr.barabasi_albert: need n > attach >= 1";
  check_n n;
  let seed_size = attach + 1 in
  let count = (attach * seed_size / 2) + ((n - seed_size) * attach) in
  let eu = Array.make count 0 and ev = Array.make count 0 in
  let el = Array.make count 1 in
  (* Degree-proportional sampling via the repeated-endpoints array:
     every edge contributes both endpoints, so a uniform index draw is
     a degree-weighted node draw. *)
  let endpoints = Array.make (2 * count) 0 in
  let ecount = ref 0 and ne = ref 0 in
  let add_edge u v =
    eu.(!ecount) <- u;
    ev.(!ecount) <- v;
    incr ecount;
    endpoints.(!ne) <- u;
    endpoints.(!ne + 1) <- v;
    ne := !ne + 2
  in
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      add_edge u v
    done
  done;
  let chosen = Array.make attach (-1) in
  for u = seed_size to n - 1 do
    let picked = ref 0 in
    while !picked < attach do
      let v = endpoints.(Rng.int rng !ne) in
      let dup = ref (v = u) in
      for i = 0 to !picked - 1 do
        if chosen.(i) = v then dup := true
      done;
      if not !dup then begin
        chosen.(!picked) <- v;
        incr picked
      end
    done;
    for i = 0 to attach - 1 do
      add_edge u chosen.(i)
    done
  done;
  assert (!ecount = count);
  of_undirected_arrays ~n eu ev el ~count

let watts_strogatz rng ~n ~k ~beta =
  if k < 1 || n <= 2 * k then invalid_arg "Csr.watts_strogatz: need n > 2k >= 2";
  if not (beta >= 0.0 && beta <= 1.0) then invalid_arg "Csr.watts_strogatz: beta out of [0,1]";
  check_n n;
  (* Same rewiring process as [Gen.watts_strogatz], with edges dedup'd
     in a hash table keyed by the packed int [u * n + v], u < v. *)
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let have = Hashtbl.create (n * k) in
  for u = 0 to n - 1 do
    for j = 1 to k do
      Hashtbl.replace have (key u ((u + j) mod n)) ()
    done
  done;
  for u = 0 to n - 1 do
    for j = 1 to k do
      if Rng.bernoulli rng beta then begin
        let v = (u + j) mod n in
        let rec rewire tries =
          if tries > 0 then begin
            let w = Rng.int rng n in
            if w <> u && w <> v && not (Hashtbl.mem have (key u w)) then begin
              Hashtbl.remove have (key u v);
              Hashtbl.replace have (key u w) ()
            end
            else rewire (tries - 1)
          end
        in
        if Hashtbl.mem have (key u v) then rewire 32
      end
    done
  done;
  let count = Hashtbl.length have in
  let eu = Array.make count 0 and ev = Array.make count 0 in
  let el = Array.make count 1 in
  let i = ref 0 in
  Hashtbl.iter
    (fun packed () ->
      eu.(!i) <- packed / n;
      ev.(!i) <- packed mod n;
      incr i)
    have;
  of_undirected_arrays ~n eu ev el ~count

let copy_i32 a =
  let b = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (I32.length a) in
  Bigarray.Array1.blit a b;
  b

let with_latencies rng spec t =
  let col = copy_i32 t.col and lat = copy_i32 t.lat in
  let result = { n = t.n; row_ptr = copy_i32 t.row_ptr; col; lat } in
  for u = 0 to t.n - 1 do
    for i = I32.get t.row_ptr u to I32.get t.row_ptr (u + 1) - 1 do
      let v = I32.get t.col i in
      if u < v then begin
        let l = Gen.draw_latency rng spec in
        check_lat l;
        I32.set lat i l;
        (* Mirror into the (v, u) entry, found by binary search. *)
        let rec go lo hi =
          if lo > hi then invalid_arg "Csr.with_latencies: asymmetric adjacency"
          else begin
            let mid = (lo + hi) / 2 in
            if I32.get col mid = u then I32.set lat mid l
            else if I32.get col mid < u then go (mid + 1) hi
            else go lo (mid - 1)
          end
        in
        go (I32.get t.row_ptr v) (I32.get t.row_ptr (v + 1) - 1)
      end
    done
  done;
  result

let pp ppf t =
  Format.fprintf ppf "csr(n=%d, m=%d, Δ=%d, ℓmax=%d)" t.n (m t) (max_degree t) (max_latency t)

(* ------------------------------------------------------------------ *)
(* Oriented (directed) contact structures *)

type oriented = {
  o_n : int;
  o_row_ptr : I32.t;
  o_col : I32.t;
  o_lat : I32.t;
}

let oriented_of_csr t = { o_n = t.n; o_row_ptr = t.row_ptr; o_col = t.col; o_lat = t.lat }

let oriented_n o = o.o_n

let oriented_out_degree o u = I32.get o.o_row_ptr (u + 1) - I32.get o.o_row_ptr u

let oriented_max_out_degree o =
  let best = ref 0 in
  for u = 0 to o.o_n - 1 do
    let d = oriented_out_degree o u in
    if d > !best then best := d
  done;
  !best

let oriented_edge_count o = I32.length o.o_col

let oriented_max_latency o =
  let best = ref 1 in
  for i = 0 to I32.length o.o_lat - 1 do
    let l = I32.get o.o_lat i in
    if l > !best then best := l
  done;
  !best

let oriented_iter_out o u f =
  if u < 0 || u >= o.o_n then invalid_arg "Csr.oriented_iter_out: node out of range";
  for i = I32.get o.o_row_ptr u to I32.get o.o_row_ptr (u + 1) - 1 do
    f (I32.get o.o_col i) (I32.get o.o_lat i)
  done

(* Keep only the out-edges of latency <= ell, preserving each row's
   edge order (RR Broadcast's cursor discipline depends on it). *)
let oriented_filter_le o ell =
  let n = o.o_n in
  let row_ptr = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let kept = ref 0 in
    for i = I32.get o.o_row_ptr u to I32.get o.o_row_ptr (u + 1) - 1 do
      if I32.get o.o_lat i <= ell then incr kept
    done;
    row_ptr.(u + 1) <- row_ptr.(u) + !kept
  done;
  let len = row_ptr.(n) in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  let p = ref 0 in
  for u = 0 to n - 1 do
    for i = I32.get o.o_row_ptr u to I32.get o.o_row_ptr (u + 1) - 1 do
      if I32.get o.o_lat i <= ell then begin
        I32.set col !p (I32.get o.o_col i);
        I32.set lat !p (I32.get o.o_lat i);
        incr p
      end
    done
  done;
  { o_n = n; o_row_ptr = row_ptr; o_col = col; o_lat = lat }

let of_oriented_spanner ?out_degree_bound out_edges =
  let n = Array.length out_edges in
  check_n n;
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let d = Array.length out_edges.(v) in
    (match out_degree_bound with
    | Some b when d > b ->
        invalid_arg
          (Printf.sprintf
             "Csr.of_oriented_spanner: out-degree %d of node %d exceeds the declared \
              Lemma 15 bound %d"
             d v b)
    | _ -> ());
    row_ptr.(v + 1) <- row_ptr.(v) + d
  done;
  let len = row_ptr.(n) in
  let row_ptr = pack_row_ptr row_ptr in
  let col = I32.make len 0 and lat = I32.make len 0 in
  for v = 0 to n - 1 do
    let base = I32.get row_ptr v in
    Array.iteri
      (fun i (peer, l) ->
        (* int32-range violations raise the typed error before the
           graph-shape checks see the value; negatives keep the
           existing [Invalid_argument] diagnostics below. *)
        if peer > I32.max_value then raise (I32.Overflow { what = "node id"; value = peer });
        if l > I32.max_value then raise (I32.Overflow { what = "latency"; value = l });
        if peer < 0 || peer >= n || peer = v then
          invalid_arg "Csr.of_oriented_spanner: out-edge peer out of range";
        if l < 1 then invalid_arg "Csr.of_oriented_spanner: latency must be >= 1";
        I32.set col (base + i) peer;
        I32.set lat (base + i) l)
      out_edges.(v)
  done;
  { o_n = n; o_row_ptr = row_ptr; o_col = col; o_lat = lat }
