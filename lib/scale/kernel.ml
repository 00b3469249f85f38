module Rng = Gossip_util.Rng

(* ------------------------------------------------------------------ *)
(* The kernel interface *)

type exchange =
  | Rumor of { request_always : bool }
  | Words of {
      req_pay : u:int -> informed:bool -> buf:I32.t -> off:int -> unit;
      on_deliver : v:int -> informed:bool -> buf:I32.t -> off:int -> unit;
      on_push : v:int -> buf:I32.t -> off:int -> bool;
      on_response : u:int -> slot:int -> rtt:int -> buf:I32.t -> off:int -> bool;
    }

type t = {
  name : string;
  contact : Csr.oriented;
  uses_rng : bool;
  msg_words : int;
  store : Rumor_store.t;
  on_initiate : rngs:Rng.t array -> round:int -> u:int -> deg:int -> informed:bool -> int;
  exchange : exchange;
}

let name t = t.name

let contact t = t.contact

let store t = t.store

let completed t v = Rumor_store.completed t.store v

let completed_count t = Rumor_store.count t.store

(* The round-robin step over a contact row: [cursor.(u)] wraps at
   [deg], which is fixed per row, so an initiation costs a compare
   instead of a division. *)
let[@inline] round_robin cursor u deg =
  let i = cursor.(u) in
  cursor.(u) <- (if i + 1 = deg then 0 else i + 1);
  i

let push_pull csr =
  {
    name = "push-pull";
    contact = Csr.oriented_of_csr csr;
    uses_rng = true;
    msg_words = 1;
    store = Rumor_store.create (Csr.n csr);
    on_initiate =
      (fun ~rngs ~round:_ ~u ~deg ~informed:_ -> if deg = 0 then -1 else Rng.int rngs.(u) deg);
    exchange = Rumor { request_always = false };
  }

let flood csr =
  let cursor = Array.make (Csr.n csr) 0 in
  {
    name = "flood";
    contact = Csr.oriented_of_csr csr;
    uses_rng = false;
    msg_words = 1;
    store = Rumor_store.create (Csr.n csr);
    on_initiate =
      (fun ~rngs:_ ~round:_ ~u ~deg ~informed ->
        if deg = 0 || not informed then -1
        else round_robin cursor u deg);
    exchange = Rumor { request_always = true };
  }

let random_contact csr =
  {
    name = "random-contact";
    contact = Csr.oriented_of_csr csr;
    uses_rng = true;
    msg_words = 1;
    store = Rumor_store.create (Csr.n csr);
    on_initiate =
      (fun ~rngs ~round:_ ~u ~deg ~informed ->
        if deg = 0 || not informed then -1 else Rng.int rngs.(u) deg);
    exchange = Rumor { request_always = true };
  }

let rr_broadcast ?iterations ~k oriented =
  if k < 1 then invalid_arg "Kernel.rr_broadcast: need k >= 1";
  let usable = Csr.oriented_filter_le oriented k in
  let iterations =
    match iterations with
    | Some i ->
        if i < 0 then invalid_arg "Kernel.rr_broadcast: iterations must be >= 0";
        i
    | None -> max_int
  in
  let cursor = Array.make (Csr.oriented_n usable) 0 in
  {
    name = "rr-spanner";
    contact = usable;
    uses_rng = false;
    msg_words = 1;
    store = Rumor_store.create (Csr.oriented_n usable);
    on_initiate =
      (fun ~rngs:_ ~round ~u ~deg ~informed:_ ->
        if round >= iterations || deg = 0 then -1
        else round_robin cursor u deg);
    exchange = Rumor { request_always = false };
  }

let dtg_local ~ell csr =
  if ell < 1 then invalid_arg "Kernel.dtg_local: need ell >= 1";
  let contact = Csr.oriented_filter_le (Csr.oriented_of_csr csr) ell in
  let cursor = Array.make (Csr.n csr) 0 in
  {
    name = "dtg";
    contact;
    uses_rng = false;
    msg_words = 1;
    store = Rumor_store.create (Csr.n csr);
    on_initiate =
      (fun ~rngs:_ ~round:_ ~u ~deg ~informed ->
        if deg = 0 || not informed then -1
        else round_robin cursor u deg);
    exchange = Rumor { request_always = true };
  }

(* ------------------------------------------------------------------ *)
(* The k-rumor family (ROADMAP item 2): k rumors seeded one per node
   (all-to-all when k = n), per-node rumor state owned by the kernel,
   completion = "holds all k".  Two subset kernels share the flat
   rumor-set state below; the GF(2) network-coding kernel follows.

   Emission (req_pay / on_deliver) reads only round-start-stable state:
   the held-rumor bits of the emitting node (no absorb into it happens
   before its 1a/phase-2 hooks in either runtime) plus a selector
   cursor advanced only in on_initiate.  Absorption (on_push /
   on_response) is an idempotent monotone OR into the receiving node's
   own bits, so drain order cannot change end-of-round state — the
   shard-parity discipline the classic informed bytes follow. *)

type rumor_set = { rs_k : int; rs_bpr : int; rs_has : Bytes.t; rs_cnt : int array }

let rs_make ~k n =
  let bpr = (k + 7) / 8 in
  { rs_k = k; rs_bpr = bpr; rs_has = Bytes.make (n * bpr) '\000'; rs_cnt = Array.make n 0 }

let rs_holds rs v r =
  Char.code (Bytes.unsafe_get rs.rs_has ((v * rs.rs_bpr) + (r lsr 3))) land (1 lsl (r land 7))
  <> 0

let rs_learn rs v r =
  let i = (v * rs.rs_bpr) + (r lsr 3) in
  let b = Char.code (Bytes.unsafe_get rs.rs_has i) in
  let m = 1 lsl (r land 7) in
  if b land m = 0 then begin
    Bytes.unsafe_set rs.rs_has i (Char.unsafe_chr (b lor m));
    rs.rs_cnt.(v) <- rs.rs_cnt.(v) + 1
  end

(* Churn amnesia: a rejoining node keeps only its own rumor. *)
let rs_reset rs v =
  Bytes.fill rs.rs_has (v * rs.rs_bpr) rs.rs_bpr '\000';
  rs.rs_cnt.(v) <- 0;
  if v < rs.rs_k then rs_learn rs v v

let rs_absorb rs ~budget v buf off =
  for w = 0 to budget - 1 do
    let word = I32.get buf (off + w) in
    if word > 0 then rs_learn rs v (word - 1)
  done;
  rs.rs_cnt.(v) = rs.rs_k

(* Seed rumor j at node j and build the kernel-owned store around the
   "holds all k" completion predicate. *)
let rs_seeded_store rs n =
  let store =
    Rumor_store.create n
      ~on_seed:(fun v -> rs.rs_cnt.(v) = rs.rs_k)
      ~on_forget:(fun v -> rs_reset rs v)
  in
  for j = 0 to rs.rs_k - 1 do
    rs_learn rs j j;
    if rs.rs_cnt.(j) = rs.rs_k then Rumor_store.mark store j
  done;
  store

let check_rumor_args ~fn ~k ~budget n =
  if k < 1 || k > n then
    invalid_arg (Printf.sprintf "Kernel.%s: need 1 <= k <= n (k = %d, n = %d)" fn k n);
  if budget < 1 then invalid_arg (Printf.sprintf "Kernel.%s: need budget >= 1" fn)

type rumor = { rum_kernel : t; rum_holds : v:int -> r:int -> bool; rum_count : v:int -> int }

let k_rumor_push_pull ~k ~budget csr =
  let n = Csr.n csr in
  check_rumor_args ~fn:"k_rumor_push_pull" ~k ~budget n;
  let rs = rs_make ~k n in
  let store = rs_seeded_store rs n in
  (* sel.(u) is the cyclic scan start for u's next emissions, redrawn
     every round in on_initiate — a random rumor subset within budget,
     stable across the round for both the request and response sides. *)
  let sel = Array.make n 0 in
  let emit u buf off =
    let w = ref 0 and p = ref sel.(u) and scanned = ref 0 in
    while !w < budget && !scanned < k do
      if rs_holds rs u !p then begin
        I32.set buf (off + !w) (!p + 1);
        incr w
      end;
      p := if !p + 1 = k then 0 else !p + 1;
      incr scanned
    done
  in
  let absorb v buf off = rs_absorb rs ~budget v buf off in
  let rum_kernel =
    {
      name = "k-rumor";
      contact = Csr.oriented_of_csr csr;
      uses_rng = true;
      msg_words = budget;
      store;
      on_initiate =
        (fun ~rngs ~round:_ ~u ~deg ~informed:_ ->
          let i = if deg = 0 then -1 else Rng.int rngs.(u) deg in
          sel.(u) <- Rng.int rngs.(u) k;
          i);
      exchange =
        Words
          {
            req_pay = (fun ~u ~informed:_ ~buf ~off -> emit u buf off);
            on_deliver = (fun ~v ~informed:_ ~buf ~off -> emit v buf off);
            on_push = (fun ~v ~buf ~off -> absorb v buf off);
            on_response = (fun ~u ~slot:_ ~rtt:_ ~buf ~off -> absorb u buf off);
          };
    }
  in
  {
    rum_kernel;
    rum_holds = (fun ~v ~r -> rs_holds rs v r);
    rum_count = (fun ~v -> rs.rs_cnt.(v));
  }

let rumor_rotation ~k ~budget csr =
  let n = Csr.n csr in
  check_rumor_args ~fn:"rumor_rotation" ~k ~budget n;
  let rs = rs_make ~k n in
  let store = rs_seeded_store rs n in
  (* Dufoulon-style rotation: the emission window slides by budget
     positions per round, so every held rumor is on the wire within
     ceil(k/budget) rounds.  The window schedule is deterministic but
     the contact is a uniform random neighbor — a deterministic
     neighbor cursor would alias with the rotation period (both cycles
     advance once per round), freezing each rumor onto the fixed
     neighbor subset {c + t*gcd(ceil(k/budget), deg)} and disconnecting
     the per-rumor contact graph whenever the gcd exceeds 1. *)
  let pos = Array.make n 0 in
  let window = min budget k in
  let emit u buf off =
    let w = ref 0 in
    for j = 0 to window - 1 do
      let p = (pos.(u) + j) mod k in
      if rs_holds rs u p then begin
        I32.set buf (off + !w) (p + 1);
        incr w
      end
    done
  in
  let absorb v buf off = rs_absorb rs ~budget v buf off in
  let rum_kernel =
    {
      name = "rotation";
      contact = Csr.oriented_of_csr csr;
      uses_rng = true;
      msg_words = budget;
      store;
      on_initiate =
        (fun ~rngs ~round:_ ~u ~deg ~informed:_ ->
          pos.(u) <- (pos.(u) + budget) mod k;
          if deg = 0 then -1 else Rng.int rngs.(u) deg);
      exchange =
        Words
          {
            req_pay = (fun ~u ~informed:_ ~buf ~off -> emit u buf off);
            on_deliver = (fun ~v ~informed:_ ~buf ~off -> emit v buf off);
            on_push = (fun ~v ~buf ~off -> absorb v buf off);
            on_response = (fun ~u ~slot:_ ~rtt:_ ~buf ~off -> absorb u buf off);
          };
    }
  in
  {
    rum_kernel;
    rum_holds = (fun ~v ~r -> rs_holds rs v r);
    rum_count = (fun ~v -> rs.rs_cnt.(v));
  }

(* ------------------------------------------------------------------ *)
(* Algebraic gossip (Avin et al.): messages are uniform random GF(2)
   linear combinations of the sender's decoded span, packed 30
   coefficient bits per int32 payload word; each node keeps its basis
   in canonical reduced row echelon form (pivot = lowest set bit, full
   back-substitution), and completion is rank k.  Canonical RREF is
   what makes absorption order-independent — any insertion order over
   the same received vectors yields the same basis, rank, and rows —
   so the kernel satisfies the shard-parity discipline even though an
   absorb is much more than a monotone OR.  The incoming vector is
   reduced in place in the message buffer: the engine retires those
   payload words right after the hook, and mutating them avoids any
   per-delivery scratch allocation (the round loop stays inside
   minor_words_budget). *)

let coeff_bits = 30

type algebraic = { alg_kernel : t; alg_rank : v:int -> int; alg_rows : v:int -> int array array }

let algebraic ~k ~budget csr =
  let n = Csr.n csr in
  let cw = (k + coeff_bits - 1) / coeff_bits in
  check_rumor_args ~fn:"algebraic" ~k ~budget:(max budget 1) n;
  if budget < cw then
    invalid_arg
      (Printf.sprintf
         "Kernel.algebraic: budget %d words cannot carry k = %d coefficients (need >= %d \
          words at %d bits per word)"
         budget k cw coeff_bits);
  let basis = Array.make (n * k * cw) 0 in
  let present = Bytes.make (n * k) '\000' in
  let rank = Array.make n 0 in
  let coins = Array.make (n * cw) 0 in
  let row_base v p = ((v * k) + p) * cw in
  let has_row v p = Bytes.unsafe_get present ((v * k) + p) <> '\000' in
  (* Only ever called on an empty basis (construction / post-amnesia),
     where the unit vector is trivially canonical. *)
  let insert_unit v p =
    basis.(row_base v p + (p / coeff_bits)) <- 1 lsl (p mod coeff_bits);
    Bytes.set present ((v * k) + p) '\001';
    rank.(v) <- rank.(v) + 1
  in
  let reset v =
    Bytes.fill present (v * k) k '\000';
    Array.fill basis (v * k * cw) (k * cw) 0;
    rank.(v) <- 0;
    if v < k then insert_unit v v
  in
  let store = Rumor_store.create n ~on_seed:(fun v -> rank.(v) = k) ~on_forget:reset in
  for j = 0 to k - 1 do
    insert_unit j j;
    if rank.(j) = k then Rumor_store.mark store j
  done;
  let emit v buf off =
    for p = 0 to k - 1 do
      if
        has_row v p
        && coins.((v * cw) + (p / coeff_bits)) land (1 lsl (p mod coeff_bits)) <> 0
      then begin
        let b = row_base v p in
        for w = 0 to cw - 1 do
          I32.set buf (off + w) (I32.get buf (off + w) lxor basis.(b + w))
        done
      end
    done
  in
  let absorb v buf off =
    (* forward-reduce against the present pivots, ascending — a row
       XOR only sets bits above its pivot, so one pass suffices *)
    for p = 0 to k - 1 do
      if
        I32.get buf (off + (p / coeff_bits)) land (1 lsl (p mod coeff_bits)) <> 0
        && has_row v p
      then begin
        let b = row_base v p in
        for w = 0 to cw - 1 do
          I32.set buf (off + w) (I32.get buf (off + w) lxor basis.(b + w))
        done
      end
    done;
    (* lowest surviving bit is the new pivot; zero vector = redundant *)
    let piv = ref (-1) in
    (try
       for w = 0 to cw - 1 do
         let x = I32.get buf (off + w) in
         if x <> 0 then begin
           let b = ref 0 in
           while x land (1 lsl !b) = 0 do
             incr b
           done;
           piv := (w * coeff_bits) + !b;
           raise Exit
         end
       done
     with Exit -> ());
    if !piv >= 0 then begin
      let p = !piv in
      (* back-substitute the new pivot out of the existing rows, then
         install — keeps the basis canonical *)
      for q = 0 to k - 1 do
        if
          has_row v q
          && basis.(row_base v q + (p / coeff_bits)) land (1 lsl (p mod coeff_bits)) <> 0
        then begin
          let bq = row_base v q in
          for w = 0 to cw - 1 do
            basis.(bq + w) <- basis.(bq + w) lxor I32.get buf (off + w)
          done
        end
      done;
      let bp = row_base v p in
      for w = 0 to cw - 1 do
        basis.(bp + w) <- I32.get buf (off + w)
      done;
      Bytes.set present ((v * k) + p) '\001';
      rank.(v) <- rank.(v) + 1
    end;
    rank.(v) = k
  in
  let alg_kernel =
    {
      name = "algebraic";
      contact = Csr.oriented_of_csr csr;
      uses_rng = true;
      msg_words = budget;
      store;
      on_initiate =
        (fun ~rngs ~round:_ ~u ~deg ~informed:_ ->
          let i = if deg = 0 then -1 else Rng.int rngs.(u) deg in
          for w = 0 to cw - 1 do
            coins.((u * cw) + w) <- Rng.int rngs.(u) (1 lsl coeff_bits)
          done;
          i);
      exchange =
        Words
          {
            req_pay = (fun ~u ~informed:_ ~buf ~off -> emit u buf off);
            on_deliver = (fun ~v ~informed:_ ~buf ~off -> emit v buf off);
            on_push = (fun ~v ~buf ~off -> absorb v buf off);
            on_response = (fun ~u ~slot:_ ~rtt:_ ~buf ~off -> absorb u buf off);
          };
    }
  in
  {
    alg_kernel;
    alg_rank = (fun ~v -> rank.(v));
    alg_rows =
      (fun ~v ->
        let rows = ref [] in
        for p = k - 1 downto 0 do
          if has_row v p then rows := Array.init cw (fun w -> basis.(row_base v p + w)) :: !rows
        done;
        Array.of_list !rows);
  }

(* ------------------------------------------------------------------ *)
(* Latency discovery (Section 4.2).  Each node walks a cursor over its
   full contact row, probing one neighbor per round; the response's
   round-trip time IS the edge's effective latency, measured by the
   engine itself (rtt = response round - initiation round), so the
   kernel needs no pending table — the engine's exchange pool plays
   that role.  Discovered latencies land in [disc_lat] at the probed
   slot's index, which makes every write order-independent (each
   (node, slot) pair is probed at most once per run): bit-identical
   under any domain count.  The rumor machinery is inert — probes
   carry payload 0 and never mark anyone. *)

type discovery = { disc_kernel : t; disc_lat : int array; disc_d_bound : int }

let discovery ~d_bound csr =
  if d_bound < 1 then invalid_arg "Kernel.discovery: need d_bound >= 1";
  let contact = Csr.oriented_of_csr csr in
  let row_ptr = contact.Csr.o_row_ptr in
  let n = Csr.n csr in
  let cursor = Array.make n 0 in
  let disc_lat = Array.make (Csr.oriented_edge_count contact) (-1) in
  let disc_kernel =
    {
      name = "discovery";
      contact;
      uses_rng = false;
      msg_words = 1;
      store = Rumor_store.create n;
      on_initiate =
        (fun ~rngs:_ ~round:_ ~u ~deg ~informed:_ ->
          if cursor.(u) >= deg then -1
          else begin
            let i = cursor.(u) in
            cursor.(u) <- i + 1;
            i
          end);
      exchange =
        Words
          {
            req_pay = (fun ~u:_ ~informed:_ ~buf:_ ~off:_ -> ());
            on_deliver = (fun ~v:_ ~informed:_ ~buf:_ ~off:_ -> ());
            on_push = (fun ~v:_ ~buf:_ ~off:_ -> false);
            on_response =
              (fun ~u ~slot ~rtt ~buf:_ ~off:_ ->
                if rtt <= d_bound then disc_lat.(I32.get row_ptr u + slot) <- rtt;
                false);
          };
    }
  in
  { disc_kernel; disc_lat; disc_d_bound = d_bound }

(* ------------------------------------------------------------------ *)
(* Termination check (Section 5.3, Lemma 15 voting), single-rumor
   adaptation: where Algorithm 1 compares accumulated rumor {e sets},
   a broadcast needs only the frozen informed {e bit} — a node flags
   itself when uninformed, so "unanimously clean" is equivalent to
   "every node heard the rumor".  Payloads bit-pack (frozen, flag,
   mismatch); absorbs are boolean ORs into kernel-owned byte arrays
   (idempotent and commutative, hence shard-parity-safe), and the
   engine's informed set is never touched.  The verdict flood is the
   check's second pass: failed bits spread by OR until everyone agrees
   (or provably cannot). *)

type check = { check_kernel : t; check_flag : Bytes.t; check_mismatch : Bytes.t }

let check_emit frozen flag mismatch w =
  (if Bytes.get frozen w <> '\000' then 1 else 0)
  lor (if Bytes.get flag w <> '\000' then 2 else 0)
  lor if Bytes.get mismatch w <> '\000' then 4 else 0

let check_absorb frozen flag mismatch w pay =
  if pay land 2 <> 0 then Bytes.set flag w '\001';
  if pay land 4 <> 0 || pay land 1 <> 0 <> (Bytes.get frozen w <> '\000') then
    Bytes.set mismatch w '\001'

(* Round-robin initiation over the whole contact row while the
   iteration window is open — the RR Broadcast schedule with a state
   payload instead of the rumor bit. *)
let rr_cursor ~(iterations : int) n =
  let cursor = Array.make n 0 in
  fun ~rngs:_ ~(round : int) ~u ~deg ~informed:_ ->
    if round >= iterations || deg = 0 then -1
    else round_robin cursor u deg

let termination_check ~iterations ~informed oriented =
  if iterations < 0 then invalid_arg "Kernel.termination_check: iterations must be >= 0";
  let n = Csr.oriented_n oriented in
  if Bytes.length informed <> n then
    invalid_arg "Kernel.termination_check: informed length differs from the node count";
  let frozen = Bytes.make n '\000' in
  let flag = Bytes.make n '\000' in
  let mismatch = Bytes.make n '\000' in
  for v = 0 to n - 1 do
    if Bytes.get informed v <> '\000' then Bytes.set frozen v '\001'
    else (* an uninformed node is its own counterexample *)
      Bytes.set flag v '\001'
  done;
  let check_kernel =
    {
      name = "check";
      contact = oriented;
      uses_rng = false;
      msg_words = 1;
      store = Rumor_store.create n;
      on_initiate = rr_cursor ~iterations n;
      exchange =
        Words
          {
            req_pay =
              (fun ~u ~informed:_ ~buf ~off -> I32.set buf off (check_emit frozen flag mismatch u));
            on_deliver =
              (fun ~v ~informed:_ ~buf ~off -> I32.set buf off (check_emit frozen flag mismatch v));
            on_push =
              (fun ~v ~buf ~off ->
                check_absorb frozen flag mismatch v (I32.get buf off);
                false);
            on_response =
              (fun ~u ~slot:_ ~rtt:_ ~buf ~off ->
                check_absorb frozen flag mismatch u (I32.get buf off);
                false);
          };
    }
  in
  { check_kernel; check_flag = flag; check_mismatch = mismatch }

let verdict_flood ~iterations ~failed oriented =
  if iterations < 0 then invalid_arg "Kernel.verdict_flood: iterations must be >= 0";
  let n = Csr.oriented_n oriented in
  if Bytes.length failed <> n then
    invalid_arg "Kernel.verdict_flood: failed length differs from the node count";
  let absorb w pay = if pay = 1 then Bytes.set failed w '\001' in
  {
    name = "check";
    contact = oriented;
    uses_rng = false;
    msg_words = 1;
    store = Rumor_store.create n;
    on_initiate = rr_cursor ~iterations n;
    exchange =
      Words
        {
          req_pay =
            (fun ~u ~informed:_ ~buf ~off -> if Bytes.get failed u <> '\000' then I32.set buf off 1);
          on_deliver =
            (fun ~v ~informed:_ ~buf ~off -> if Bytes.get failed v <> '\000' then I32.set buf off 1);
          on_push =
            (fun ~v ~buf ~off ->
              absorb v (I32.get buf off);
              false);
          on_response =
            (fun ~u ~slot:_ ~rtt:_ ~buf ~off ->
              absorb u (I32.get buf off);
              false);
        };
  }
