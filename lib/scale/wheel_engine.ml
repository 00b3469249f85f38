module Rng = Gossip_util.Rng
module Engine = Gossip_sim.Engine

type metrics = Engine.metrics

(* The dynamic-network environment: a time-indexed generalization of
   [Engine.faults] that the round reads as data.  Presence (churn,
   crashes) is a {!Presence.t} the round folds into one per-node
   column; the drop rule and the latency map are optional hooks — a
   [None] hook costs the round one branch.  A latency map that ignores
   the edge's endpoints says so ([By_class]), and phase 2 then asks it
   once per base latency and round instead of once per exchange. *)
type latency =
  | By_class of (latency:int -> round:int -> int)
  | By_edge of (u:int -> v:int -> latency:int -> round:int -> int)

type env = {
  presence : Presence.t;
  drop : (initiator:int -> responder:int -> round:int -> bool) option;
  latency : latency option;
}

(* A static fault plan is the trivial environment: presence over an
   interval collapses to liveness at the evaluation round, nobody
   rejoins.  Every check below then computes exactly what the
   pre-environment engine computed, which is what keeps static runs
   bit-identical.  The jitter ignores the endpoints, yet stays a
   per-exchange map: plans such as [Robustness.jitter_up_to] draw from
   a shared stream on every call, and asking them once per class would
   change their runs. *)
let env_of_faults (f : Engine.faults) =
  {
    presence = Presence.Alive_at f.Engine.alive;
    drop = Some f.Engine.drop;
    latency = Some (By_edge (fun ~u:_ ~v:_ ~latency ~round -> f.Engine.jitter ~latency ~round));
  }

(* The effective latency: the map's value clamped to >= 1 with an int
   compare (polymorphic [max] is a C call). *)
let[@inline] clamp_latency l = if l < 1 then 1 else l

let alive e ~node ~round = Presence.alive e.presence ~node ~round

let present_since e ~node ~since ~round = Presence.present_since e.presence ~node ~since ~round

let latency e ~u ~v ~latency ~round =
  match e.latency with
  | None -> latency
  | Some (By_class f) -> clamp_latency (f ~latency ~round)
  | Some (By_edge f) -> clamp_latency (f ~u ~v ~latency ~round)

exception Jitter_overflow of { latency : int; bound : int; round : int }

exception Deadline_exceeded of { round : int; elapsed_s : float }

exception Pool_exhausted of { used : int; round : int }

let () =
  Printexc.register_printer (function
    | Pool_exhausted { used; round } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Pool_exhausted: exchange pool exhausted at %d live exchanges in \
              round %d (raise ?pool_capacity or let the pool grow unbounded)"
             used round)
    | Jitter_overflow { latency; bound; round } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Jitter_overflow: jittered latency %d exceeds the wheel bound %d \
              at round %d (size the wheel for the environment via ?wheel_latency)"
             latency bound round)
    | Deadline_exceeded { round; elapsed_s } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Deadline_exceeded: wall-clock budget spent after %.3fs at round %d"
             elapsed_s round)
    | _ -> None)

(* The asserted ceiling for [wheel.minor_words_per_round], with or
   without a compiled scenario environment: the round loop and the
   scenario's queries are allocation-free by construction (no
   per-round closures, refs that escape, or boxed ints), and the only
   amortized allocations left — pool growth, history doubling — stay
   far below this once a run is more than a handful of rounds long.
   Tests, bench e18, and the CI smoke hard-fail against it. *)
let minor_words_budget = 64

(* Round to nearest, not truncate: the same bug class PR 3 fixed in
   [busy_us] and PR 8 in [crash_fraction] — [int_of_float] alone maps
   a 7.9-words/round loop to gauge 7. *)
let gauge_of_minor_words ~total ~rounds =
  int_of_float (Float.round (total /. float_of_int rounds))

(* Telemetry handles, resolved once at creation (see Engine.tel).  The
   kernel-tagged counters carry the kernel name in the metric name
   itself, so a JSONL report shows which kernel produced the run's
   traffic — and, since the rumor-state layer, how many payload words
   it put on the wire against its declared per-message bit budget. *)
type tel = {
  tel_ring : Gossip_obs.Ring.t option;
  h_deliveries : Gossip_obs.Registry.histogram;
  h_initiations : Gossip_obs.Registry.histogram;
  h_inflight : Gossip_obs.Registry.histogram;
  g_inflight : Gossip_obs.Registry.gauge;
  g_minor_words : Gossip_obs.Registry.gauge;
  c_kernel_deliveries : Gossip_obs.Registry.counter;
  c_kernel_initiations : Gossip_obs.Registry.counter;
  c_kernel_words : Gossip_obs.Registry.counter;
}

(* Run validation: the wheel must hold every latency the run can see —
   at least the graph's ℓ_max, and whatever the environment stretches
   latencies to, which only the caller's [wheel_latency] can know. *)
let wheel_bound ?wheel_latency csr =
  match wheel_latency with
  | None -> Csr.max_latency csr
  | Some b ->
      if b < Csr.max_latency csr then
        invalid_arg "Wheel_engine.create: wheel_latency below the graph's ℓ_max";
      b

(* [?pool_capacity] bounds the live exchanges of a shard; without it
   only memory does. *)
let pool_limit_of = function
  | None -> max_int
  | Some c ->
      if c < 1 then invalid_arg "Wheel_engine.create: pool_capacity must be >= 1";
      c

(* Per-node RNG streams are split in node order — the one and only
   split sequence, shared by every kernel and every shard count, so a
   fixed caller seed reproduces a trajectory across all of them.
   Rng-free kernels (flood, rr-spanner, dtg) get no streams at all,
   keeping their runs byte-identical to the pre-kernel engine. *)
let make_rngs ~uses_rng rng n =
  if uses_rng then Array.init n (fun _ -> Rng.split rng) else [||]

let resolve_tel ~kernel_name ~msg_words telemetry =
  Option.map
    (fun reg ->
      (* The bit budget is declared state, not traffic: a gauge set
         once at resolution (32 payload bits per int32 word). *)
      Gossip_obs.Registry.set
        (Gossip_obs.Registry.gauge reg
           (Printf.sprintf "wheel.kernel.%s.bits_budget" kernel_name))
        (32 * msg_words);
      {
        tel_ring = Gossip_obs.Registry.ring reg;
        h_deliveries = Gossip_obs.Registry.histogram reg "wheel.round.deliveries";
        h_initiations = Gossip_obs.Registry.histogram reg "wheel.round.initiations";
        h_inflight = Gossip_obs.Registry.histogram reg "wheel.inflight";
        g_inflight = Gossip_obs.Registry.gauge reg "wheel.inflight.max";
        g_minor_words = Gossip_obs.Registry.gauge reg "wheel.minor_words_per_round";
        c_kernel_deliveries =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.deliveries" kernel_name);
        c_kernel_initiations =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.initiations" kernel_name);
        c_kernel_words =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.words_on_wire" kernel_name);
      })
    telemetry

(* The kernel's contact rows must fit the wheel; for kernels derived
   from [csr] this is automatic (their latencies are a subset), so the
   check only bites on caller-supplied orientations. *)
let check_contact ~bound kernel csr =
  let contact = kernel.Kernel.contact in
  if Csr.oriented_n contact <> Csr.n csr then
    invalid_arg "Wheel_engine.create: kernel contact node count differs from the graph";
  if Csr.oriented_edge_count contact > 0 && Csr.oriented_max_latency contact > bound then
    invalid_arg
      (Printf.sprintf "Wheel_engine.create: kernel contact latency %d exceeds the wheel bound %d"
         (Csr.oriented_max_latency contact) bound)

(* Kernel-side validation: the store must cover the graph, and the
   declared payload budget must be positive and fit a mailbox
   reservation (the int32-safe ceiling — a kernel whose per-message
   word count could not even be reserved in a cross-shard column
   raises the same typed overflow the reservation itself would). *)
let check_kernel_shape ~n kernel =
  if Rumor_store.capacity kernel.Kernel.store <> n then
    invalid_arg "Wheel_engine.create: kernel store capacity differs from the node count";
  let mw = kernel.Kernel.msg_words in
  if mw < 1 then invalid_arg "Wheel_engine.create: kernel msg_words must be >= 1";
  if mw > Shard.Buf.max_capacity then
    raise (Shard.Buf_overflow { need = mw; limit = Shard.Buf.max_capacity });
  (match kernel.Kernel.exchange with
  | Kernel.Rumor _ when mw <> 1 ->
      invalid_arg "Wheel_engine.create: a Rumor kernel must declare msg_words = 1"
  | _ -> ());
  mw

(* Seed the kernel's store: an optional initial informed set (EID
   chains phases by handing one kernel's result bytes to the next —
   the bytes are read, never shared) plus the broadcast source.  For
   classic kernels seeding marks (single-rumor semantics); multi-rumor
   kernels seed their rumor state at construction and their on_seed
   hook decides whether a node is already completed. *)
let seed_store ?informed ~n ~source store =
  (match informed with
  | None -> ()
  | Some src ->
      if Bytes.length src <> n then
        invalid_arg "Wheel_engine.create: ?informed length differs from the node count";
      for v = 0 to n - 1 do
        if Bytes.get src v <> '\000' then Rumor_store.seed store v
      done);
  Rumor_store.seed store source

type result = {
  rounds : int option;
  metrics : metrics;
  history : (int * int) list;
  informed : Bytes.t;
}

(* The informed-count history, accumulated into growable int arrays
   during the measured loop (a cons per change would charge two-plus
   words per round to the allocation gauge) and converted to the
   result's association list only after the gauge is read. *)
type hist = {
  mutable h_round : int array;
  mutable h_count : int array;
  mutable h_len : int;
}

let hist_create round count =
  let h = { h_round = Array.make 64 0; h_count = Array.make 64 0; h_len = 1 } in
  h.h_round.(0) <- round;
  h.h_count.(0) <- count;
  h

let hist_push h round count =
  if h.h_len = Array.length h.h_round then begin
    let cap = 2 * h.h_len in
    let nr = Array.make cap 0 and nc = Array.make cap 0 in
    Array.blit h.h_round 0 nr 0 h.h_len;
    Array.blit h.h_count 0 nc 0 h.h_len;
    h.h_round <- nr;
    h.h_count <- nc
  end;
  h.h_round.(h.h_len) <- round;
  h.h_count.(h.h_len) <- count;
  h.h_len <- h.h_len + 1

let hist_to_list h = List.init h.h_len (fun i -> (h.h_round.(i), h.h_count.(i)))

(* ------------------------------------------------------------------ *)
(* The round, on [k] contiguous shards (Shard.bounds).  Each shard    *)
(* owns its exchange blocks, arrival/response chains, informed-byte   *)
(* slice, and RNG streams; a round is two stages and two barriers:    *)
(*                                                                    *)
(*   stage 1 (responder side): churn rejoins, the initiation mail     *)
(*     addressed to this shard in ascending source-shard order, then  *)
(*     phases 1a/1b; responses for a foreign initiator are mailed.    *)
(*   -- barrier --                                                    *)
(*   stage 2 (initiator side): the response mail, phase 1c, then      *)
(*     phase 2; initiations toward a foreign responder are mailed,    *)
(*     to be drained at the next round's stage 1.                     *)
(*   -- barrier + serial merge --                                     *)
(*                                                                    *)
(* [k = 1] is one shard whose exchanges are all local, whose mail     *)
(* stays empty, and whose one-party barriers run the merge inline.    *)
(* Every within-phase effect is order-independent (idempotent marks,  *)
(* commutative counters, responses fixed in 1a from round-start       *)
(* state) and touches only the owner's nodes and RNG streams, so for  *)
(* a pure fault plan every [k] gives the same trajectory — and the    *)
(* order in which a slot's exchanges are walked does not matter.      *)
(*                                                                    *)
(* In-flight exchanges live in parallel int32 columns cut into blocks *)
(* of [block] entries.  Each wheel slot owns two chains of blocks, an *)
(* arrival chain (chain [slot]) and a response chain (chain           *)
(* [wheel + slot]); a chain is appended at its tail and walked from   *)
(* its head, so a slot's exchanges run first-in first-out over       *)
(* contiguous memory.  A walked chain returns its blocks to the       *)
(* shard's free-block list; the columns grow by doubling only when    *)
(* that list is empty.                                                *)
(* ------------------------------------------------------------------ *)

(* Entries per exchange block.  Measured on push-pull over a 10^5-node
   Barabási–Albert graph and on rr-braid-churn (64, 256 and 1024
   tried): smaller blocks cost more chain hops, larger ones more
   partially filled tails (two per slot). *)
let block = 256

let block_size = block

type shard = {
  s_id : int;
  s_lo : int;
  s_hi : int;  (* owns nodes [s_lo, s_hi) *)
  s_head : int array;  (* first block of each chain, [-1] when empty *)
  s_tail : int array;  (* last block of each chain *)
  mutable s_blk_next : int array;  (* per block: next block of its chain, or of the free list *)
  mutable s_blk_len : int array;  (* per block: entries in use *)
  mutable s_blocks : int;  (* blocks carved from the columns so far *)
  mutable s_free : int;  (* free-block list, [-1] when empty *)
  mutable s_initiator : I32.t;
  mutable s_responder : I32.t;
  mutable s_req_pay : I32.t;  (* mw words per entry, at e * mw *)
  mutable s_resp_pay : I32.t;  (* mw words per entry, at e * mw *)
  s_scratch : I32.t;  (* mw words: req_pay staging for remote initiations *)
  mutable s_due : I32.t;
  mutable s_init : I32.t;
  mutable s_slot : I32.t;
  s_lat_memo : int array;  (* a [By_class] map's values, by base latency ... *)
  s_lat_stamp : int array;  (* ... valid for the round stamped here *)
  mutable s_in_flight : int;
  mutable s_count : int;  (* informed nodes owned by this shard *)
  mutable s_absent : int;  (* cursor into the absence schedule *)
  mutable s_rejoin : int;  (* cursor into the rejoin schedule *)
  (* run-cumulative counters, summed by the merge *)
  mutable s_deliveries : int;
  mutable s_initiations : int;
  mutable s_dropped : int;
  mutable s_payload : int;
  (* first failure this round: (stage rank, node, exn); the merge
     picks the lexicographic minimum so the surfaced exception is the
     first failure in phase order, whatever the shard count *)
  mutable s_fail : (int * int * exn) option;
  mutable s_at : int;  (* node the shard is currently processing *)
  mutable s_remote_inits : int;  (* cross-shard traffic, summed into telemetry *)
  mutable s_remote_resps : int;
}

(* Cross-shard mailboxes are structure-of-arrays: one int32 column
   ({!Shard.Buf}) per record field.  Record [i] of a mailbox is cell
   [i] of each scalar column — except the payload column, which
   carries [msg_words] cells per record (record [i]'s words start at
   [i * msg_words]), so multi-word kernels cross shard boundaries
   without any per-message boxing. *)
let init_cols = 7 (* initiator responder req_pay due arr_slot init_round slot *)

let resp_cols = 5 (* initiator resp_pay due init_round slot *)

type shared = {
  sh_csr : Csr.t;
  sh_kernel : Kernel.t;  (* one instance, owner-only per-node state access *)
  sh_env : env;
  sh_away : I32.t option;  (* the presence column; [None]: everyone, always *)
  sh_rejoins : (int * int) array;  (* the amnesia points of the absences *)
  sh_wheel : int;
  sh_mw : int;  (* kernel msg_words: payload words per message *)
  sh_informed : Bytes.t;  (* the store's bytes; disjoint per-shard slices *)
  sh_rngs : Rng.t array;
  sh_k : int;
  sh_pool_limit : int;
  (* per-(src shard, dst shard) mailboxes at [src * k + dst]; written
     in one stage, drained after a barrier, so no locking is needed *)
  sh_init_mail : Shard.Buf.t array array;
  sh_resp_mail : Shard.Buf.t array array;
}

let make_shard ctx id lo hi =
  let n_own = hi - lo in
  (* The columns start at about one entry per owned node (at least
     1024), in whole blocks. *)
  let blocks = (min (max 1024 n_own) ctx.sh_pool_limit + block - 1) / block in
  let cap = blocks * block in
  let count = ref 0 in
  for v = lo to hi - 1 do
    if Bytes.get ctx.sh_informed v <> '\000' then incr count
  done;
  let memo = Csr.oriented_max_latency ctx.sh_kernel.Kernel.contact + 1 in
  {
    s_id = id;
    s_lo = lo;
    s_hi = hi;
    s_head = Array.make (2 * ctx.sh_wheel) (-1);
    s_tail = Array.make (2 * ctx.sh_wheel) (-1);
    s_blk_next = Array.make blocks (-1);
    s_blk_len = Array.make blocks 0;
    s_blocks = 0;
    s_free = -1;
    s_initiator = I32.make cap 0;
    s_responder = I32.make cap 0;
    s_req_pay = I32.make (cap * ctx.sh_mw) 0;
    s_resp_pay = I32.make (cap * ctx.sh_mw) 0;
    s_scratch = I32.make ctx.sh_mw 0;
    s_due = I32.make cap 0;
    s_init = I32.make cap 0;
    s_slot = I32.make cap 0;
    s_lat_memo = Array.make memo 0;
    s_lat_stamp = Array.make memo (-1);
    s_in_flight = 0;
    s_count = !count;
    s_absent = 0;
    s_rejoin = 0;
    s_deliveries = 0;
    s_initiations = 0;
    s_dropped = 0;
    s_payload = 0;
    s_fail = None;
    s_at = lo;
    s_remote_inits = 0;
    s_remote_resps = 0;
  }

(* Double the block store: every column and the per-block arrays.
   Entries keep their indices, so chains stay valid. *)
let s_grow ctx sh =
  let old = Array.length sh.s_blk_next in
  let blocks = 2 * old in
  let extend w a =
    let b = I32.make (blocks * block * w) 0 in
    I32.blit ~src:a ~dst:b (old * block * w);
    b
  in
  sh.s_initiator <- extend 1 sh.s_initiator;
  sh.s_responder <- extend 1 sh.s_responder;
  sh.s_req_pay <- extend ctx.sh_mw sh.s_req_pay;
  sh.s_resp_pay <- extend ctx.sh_mw sh.s_resp_pay;
  sh.s_due <- extend 1 sh.s_due;
  sh.s_init <- extend 1 sh.s_init;
  sh.s_slot <- extend 1 sh.s_slot;
  let grow a =
    let b = Array.make blocks 0 in
    Array.blit a 0 b 0 old;
    b
  in
  sh.s_blk_next <- grow sh.s_blk_next;
  sh.s_blk_len <- grow sh.s_blk_len

let s_new_block ctx sh =
  if sh.s_free >= 0 then begin
    let b = sh.s_free in
    sh.s_free <- sh.s_blk_next.(b);
    b
  end
  else begin
    if sh.s_blocks = Array.length sh.s_blk_next then s_grow ctx sh;
    let b = sh.s_blocks in
    sh.s_blocks <- b + 1;
    b
  end

(* A fresh entry at the tail of chain [c]; its index is valid until
   the chain is released. *)
let[@inline] s_append ctx sh c =
  let t = sh.s_tail.(c) in
  if t >= 0 && sh.s_blk_len.(t) < block then begin
    let l = sh.s_blk_len.(t) in
    sh.s_blk_len.(t) <- l + 1;
    (t * block) + l
  end
  else begin
    let b = s_new_block ctx sh in
    sh.s_blk_next.(b) <- -1;
    sh.s_blk_len.(b) <- 1;
    if t >= 0 then sh.s_blk_next.(t) <- b else sh.s_head.(c) <- b;
    sh.s_tail.(c) <- b;
    b * block
  end

(* Hand a walked chain's blocks to the free list in one splice. *)
let s_release sh c =
  let h = sh.s_head.(c) in
  if h >= 0 then begin
    sh.s_blk_next.(sh.s_tail.(c)) <- sh.s_free;
    sh.s_free <- h;
    sh.s_head.(c) <- -1;
    sh.s_tail.(c) <- -1
  end

(* A new live exchange.  Hitting the ceiling is a failed run, not a
   harness crash: the typed exception (with a registered printer) lets
   [Sweep.run_ft] checkpoint the job as [Failed] with a useful
   message. *)
let[@inline] s_admit ctx sh round =
  if sh.s_in_flight >= ctx.sh_pool_limit then
    raise (Pool_exhausted { used = sh.s_in_flight; round });
  sh.s_in_flight <- sh.s_in_flight + 1

(* "Informed" in the engine's vocabulary means "completed the kernel's
   dissemination goal": the store's byte, which for classic kernels
   is the informed bit. *)
let[@inline] s_mark ctx sh v =
  if Bytes.get ctx.sh_informed v = '\000' then begin
    Bytes.set ctx.sh_informed v '\001';
    sh.s_count <- sh.s_count + 1
  end

(* [slot + d] on the wheel, for an offset [0 <= d < wheel]: one
   conditional subtraction instead of a division per exchange. *)
let[@inline] wrap ~wheel slot d =
  let s = slot + d in
  if s >= wheel then s - wheel else s

(* Is [v] present since round [since]?  Without a presence column
   everyone is; with one it is a load and a compare. *)
let[@inline] present away v ~since =
  match away with None -> true | Some a -> Presence.present a v ~since

(* Stage 1: presence, rejoins, mailbox drain + phases 1a/1b on the
   responder's shard.  The round loop is allocation-free: kernel hooks
   are called directly, presence is a column read, loop cursors are
   non-escaping refs (unboxed by the compiler), and every entry access
   goes through the int32 columns, whose reads compile without boxing.
   [minor_words_budget] is the enforced witness.  Entry indices come
   only from [s_append], below the columns' capacity, so the stages
   read and write entries without bounds checks. *)
let stage1 ctx sh round =
  sh.s_at <- sh.s_lo;
  let k = ctx.sh_k in
  let wheel = ctx.sh_wheel in
  let mw = ctx.sh_mw in
  let exchange = ctx.sh_kernel.Kernel.exchange in
  let slot = round mod wheel in
  (* Phase 0 (presence): this round's view of who is here, for the
     shard's own nodes — the only nodes whose presence it reads. *)
  let away = ctx.sh_away in
  (match away with
  | None -> ()
  | Some a ->
      sh.s_absent <-
        Presence.advance ctx.sh_env.presence a ~cursor:sh.s_absent ~lo:sh.s_lo ~hi:sh.s_hi
          ~round);
  (* Phase 0 (churn): nodes scheduled to rejoin this round come back
     with amnesia — the kernel's forget hook resets their rumor state
     and the completed bit is cleared before any of this round's
     deliveries, so stale in-flight traffic (already doomed by the
     presence-interval checks below) cannot re-complete them and the
     informed count stays an honest census of current incarnations.
     The forget hook runs for every rejoiner — a multi-rumor node can
     hold partial state without being completed — and each shard acts
     only on its own nodes, so this is race-free and the merge's count
     sum stays exact. *)
  let rejoins = ctx.sh_rejoins in
  while sh.s_rejoin < Array.length rejoins && fst rejoins.(sh.s_rejoin) <= round do
    let r, v = rejoins.(sh.s_rejoin) in
    if r = round && v >= sh.s_lo && v < sh.s_hi then begin
      Rumor_store.forget ctx.sh_kernel.Kernel.store v;
      if Bytes.get ctx.sh_informed v <> '\000' then begin
        Bytes.set ctx.sh_informed v '\000';
        sh.s_count <- sh.s_count - 1
      end
    end;
    sh.s_rejoin <- sh.s_rejoin + 1
  done;
  for src = 0 to k - 1 do
    let m = ctx.sh_init_mail.((src * k) + sh.s_id) in
    let c_initiator = m.(0)
    and c_responder = m.(1)
    and c_req_pay = m.(2)
    and c_due = m.(3)
    and c_arr_slot = m.(4)
    and c_init_round = m.(5)
    and c_slot = m.(6) in
    let len = Shard.Buf.length c_initiator in
    for i = 0 to len - 1 do
      s_admit ctx sh round;
      let ex = s_append ctx sh (Shard.Buf.unsafe_get c_arr_slot i) in
      I32.unsafe_set sh.s_initiator ex (Shard.Buf.unsafe_get c_initiator i);
      I32.unsafe_set sh.s_responder ex (Shard.Buf.unsafe_get c_responder i);
      let pb = ex * mw and mb = i * mw in
      for w = 0 to mw - 1 do
        I32.unsafe_set sh.s_req_pay (pb + w) (Shard.Buf.unsafe_get c_req_pay (mb + w))
      done;
      I32.unsafe_set sh.s_due ex (Shard.Buf.unsafe_get c_due i);
      I32.unsafe_set sh.s_init ex (Shard.Buf.unsafe_get c_init_round i);
      I32.unsafe_set sh.s_slot ex (Shard.Buf.unsafe_get c_slot i)
    done;
    for c = 0 to init_cols - 1 do
      Shard.Buf.clear m.(c)
    done
  done;
  (* 1a: every response due to be generated this round reads the
     informed set as of the start of the round — before any of this
     round's push merges, matching Engine.step's sub-phase ordering.
     An exchange is delivered only while both endpoints remain in the
     incarnation that initiated it; for a static environment that is
     plain liveness at [round], so requests whose responder is crashed
     are lost here, answer and all.  Nothing is appended during 1a, so
     the columns can be held in locals. *)
  let responder_col = sh.s_responder
  and init_col = sh.s_init
  and resp_pay = sh.s_resp_pay in
  let b = ref sh.s_head.(slot) in
  while !b >= 0 do
    let blk = !b in
    let base = blk * block in
    for ex = base to base + sh.s_blk_len.(blk) - 1 do
      let responder = I32.unsafe_get responder_col ex in
      if present away responder ~since:(I32.unsafe_get init_col ex) then begin
        let informed = Bytes.get ctx.sh_informed responder <> '\000' in
        match exchange with
        | Kernel.Rumor _ -> I32.unsafe_set resp_pay ex (if informed then 1 else 0)
        | Kernel.Words w ->
            let pb = ex * mw in
            for i = 0 to mw - 1 do
              I32.unsafe_set resp_pay (pb + i) 0
            done;
            w.on_deliver ~v:responder ~informed ~buf:resp_pay ~off:pb
      end
    done;
    b := sh.s_blk_next.(blk)
  done;
  (* 1b: merge pushed bits; copy the response into its due slot's
     response chain (for latency-1 edges that is this very slot,
     delivered in 1c), or ship it to the initiator's shard.  The owner
     division runs only on the remote branch: a shard's own range
     decides locality.  Appends may grow the columns, so every column
     is read through [sh]. *)
  let b = ref sh.s_head.(slot) in
  while !b >= 0 do
    let blk = !b in
    let base = blk * block in
    for ex = base to base + sh.s_blk_len.(blk) - 1 do
      let responder = I32.unsafe_get sh.s_responder ex in
      if present away responder ~since:(I32.unsafe_get sh.s_init ex) then begin
        sh.s_deliveries <- sh.s_deliveries + 1;
        sh.s_payload <- sh.s_payload + mw;
        if
          match exchange with
          | Kernel.Rumor _ -> I32.unsafe_get sh.s_req_pay ex = 1
          | Kernel.Words w -> w.on_push ~v:responder ~buf:sh.s_req_pay ~off:(ex * mw)
        then s_mark ctx sh responder;
        let initiator = I32.unsafe_get sh.s_initiator ex in
        let due = I32.unsafe_get sh.s_due ex in
        if initiator >= sh.s_lo && initiator < sh.s_hi then begin
          let r = s_append ctx sh (wheel + wrap ~wheel slot (due - round)) in
          I32.unsafe_set sh.s_initiator r initiator;
          let pb = ex * mw and rb = r * mw in
          for w = 0 to mw - 1 do
            I32.unsafe_set sh.s_resp_pay (rb + w) (I32.unsafe_get sh.s_resp_pay (pb + w))
          done;
          I32.unsafe_set sh.s_due r due;
          I32.unsafe_set sh.s_init r (I32.unsafe_get sh.s_init ex);
          I32.unsafe_set sh.s_slot r (I32.unsafe_get sh.s_slot ex)
        end
        else begin
          let dst = Shard.owner ~n:(Csr.n ctx.sh_csr) ~k initiator in
          let m = ctx.sh_resp_mail.((sh.s_id * k) + dst) in
          Shard.Buf.push m.(0) initiator;
          let bm = Shard.Buf.reserve m.(1) mw in
          for w = 0 to mw - 1 do
            Shard.Buf.set m.(1) (bm + w) (I32.unsafe_get sh.s_resp_pay ((ex * mw) + w))
          done;
          Shard.Buf.push m.(2) due;
          Shard.Buf.push m.(3) (I32.unsafe_get sh.s_init ex);
          Shard.Buf.push m.(4) (I32.unsafe_get sh.s_slot ex);
          sh.s_in_flight <- sh.s_in_flight - 1;
          sh.s_remote_resps <- sh.s_remote_resps + 1
        end
      end
      else begin
        sh.s_dropped <- sh.s_dropped + 1;
        sh.s_in_flight <- sh.s_in_flight - 1
      end
    done;
    (* A walked block is free at once, so the responses copied out of
       the rest of the chain can reuse it. *)
    let next = sh.s_blk_next.(blk) in
    sh.s_blk_next.(blk) <- sh.s_free;
    sh.s_free <- blk;
    b := next
  done;
  sh.s_head.(slot) <- -1;
  sh.s_tail.(slot) <- -1

(* Stage 2, first half: response-mailbox drain + phase 1c on the
   initiator's shard; an absent initiator cannot receive. *)
let stage2_deliver ctx sh round =
  sh.s_at <- sh.s_lo;
  let k = ctx.sh_k in
  let wheel = ctx.sh_wheel in
  let mw = ctx.sh_mw in
  let slot = round mod wheel in
  for src = 0 to k - 1 do
    let m = ctx.sh_resp_mail.((src * k) + sh.s_id) in
    let c_initiator = m.(0)
    and c_resp_pay = m.(1)
    and c_due = m.(2)
    and c_init_round = m.(3)
    and c_slot = m.(4) in
    let len = Shard.Buf.length c_initiator in
    for i = 0 to len - 1 do
      s_admit ctx sh round;
      let due = Shard.Buf.unsafe_get c_due i in
      let ex = s_append ctx sh (wheel + wrap ~wheel slot (due - round)) in
      I32.unsafe_set sh.s_initiator ex (Shard.Buf.unsafe_get c_initiator i);
      let pb = ex * mw and mb = i * mw in
      for w = 0 to mw - 1 do
        I32.unsafe_set sh.s_resp_pay (pb + w) (Shard.Buf.unsafe_get c_resp_pay (mb + w))
      done;
      I32.unsafe_set sh.s_due ex due;
      I32.unsafe_set sh.s_init ex (Shard.Buf.unsafe_get c_init_round i);
      I32.unsafe_set sh.s_slot ex (Shard.Buf.unsafe_get c_slot i)
    done;
    for c = 0 to resp_cols - 1 do
      Shard.Buf.clear m.(c)
    done
  done;
  let away = ctx.sh_away in
  let exchange = ctx.sh_kernel.Kernel.exchange in
  let initiator_col = sh.s_initiator
  and init_col = sh.s_init
  and resp_pay = sh.s_resp_pay in
  let c = wheel + slot in
  let b = ref sh.s_head.(c) in
  while !b >= 0 do
    let blk = !b in
    let base = blk * block in
    for ex = base to base + sh.s_blk_len.(blk) - 1 do
      let initiator = I32.unsafe_get initiator_col ex in
      let init = I32.unsafe_get init_col ex in
      if present away initiator ~since:init then begin
        sh.s_deliveries <- sh.s_deliveries + 1;
        sh.s_payload <- sh.s_payload + mw;
        if
          match exchange with
          | Kernel.Rumor _ -> I32.unsafe_get resp_pay ex = 1
          | Kernel.Words w ->
              w.on_response ~u:initiator ~slot:(I32.unsafe_get sh.s_slot ex)
                ~rtt:(I32.unsafe_get sh.s_due ex - init)
                ~buf:resp_pay ~off:(ex * mw)
        then s_mark ctx sh initiator
      end
      else sh.s_dropped <- sh.s_dropped + 1;
      sh.s_in_flight <- sh.s_in_flight - 1
    done;
    b := sh.s_blk_next.(blk)
  done;
  s_release sh c

(* The effective latency of [u]'s exchange over a contact edge of base
   latency [l].  A [By_class] map is asked once per base latency per
   round and shard: the memo is stamped with the round it holds. *)
let[@inline] phase2_latency ctx sh ~u ~v ~latency:l ~round =
  match ctx.sh_env.latency with
  | None -> l
  | Some (By_class f) ->
      if sh.s_lat_stamp.(l) = round then sh.s_lat_memo.(l)
      else begin
        let e = clamp_latency (f ~latency:l ~round) in
        sh.s_lat_memo.(l) <- e;
        sh.s_lat_stamp.(l) <- round;
        e
      end
  | Some (By_edge f) -> clamp_latency (f ~u ~v ~latency:l ~round)

(* Stage 2, second half: phase 2 initiations over the shard's own
   nodes, in ascending node order, over the kernel's directed contact
   rows.  [on_initiate] is the only point where a kernel may consume
   randomness or advance a cursor, so the RNG discipline the
   handler-based protocols established is preserved verbatim:
   push-pull draws one uniform neighbor index per node per round
   (whether informed or not), flooding advances a deterministic
   cursor, random-contact draws only when informed. *)
let stage2_initiate ctx sh round =
  let k = ctx.sh_k in
  let wheel = ctx.sh_wheel in
  let mw = ctx.sh_mw in
  (* Due dates [round + latency <= round + wheel - 1] must fit the
     entries' int32 cells; reject the run that could wrap rather than
     store a wrapped due round.  One compare per round. *)
  if round > I32.max_value - wheel then
    raise (I32.Overflow { what = "exchange due round"; value = round + wheel });
  let slot = round mod wheel in
  let away = ctx.sh_away in
  let exchange = ctx.sh_kernel.Kernel.exchange in
  let contact = ctx.sh_kernel.Kernel.contact in
  let row_ptr = contact.Csr.o_row_ptr
  and col = contact.Csr.o_col
  and lat = contact.Csr.o_lat in
  for u = sh.s_lo to sh.s_hi - 1 do
    sh.s_at <- u;
    if present away u ~since:round then begin
      let base = I32.get row_ptr u in
      let deg = I32.get row_ptr (u + 1) - base in
      let informed_u = Bytes.get ctx.sh_informed u <> '\000' in
      let idx =
        ctx.sh_kernel.Kernel.on_initiate ~rngs:ctx.sh_rngs ~round ~u ~deg
          ~informed:informed_u
      in
      if idx >= 0 then begin
        let peer = I32.get col (base + idx) in
        sh.s_initiations <- sh.s_initiations + 1;
        if
          match ctx.sh_env.drop with
          | None -> false
          | Some drop -> drop ~initiator:u ~responder:peer ~round
        then sh.s_dropped <- sh.s_dropped + 1
        else begin
          let latency =
            phase2_latency ctx sh ~u ~v:peer ~latency:(I32.get lat (base + idx)) ~round
          in
          if latency >= wheel then
            (* An undeclared jitter overrunning the wheel is a failed
               run, not a harness crash: the typed exception lets a
               sweep record this job as [Failed] and keep going. *)
            raise (Jitter_overflow { latency; bound = wheel - 1; round });
          let due = round + latency in
          let arr_slot = wrap ~wheel slot ((latency + 1) / 2) in
          if peer >= sh.s_lo && peer < sh.s_hi then begin
            s_admit ctx sh round;
            let ex = s_append ctx sh arr_slot in
            I32.unsafe_set sh.s_initiator ex u;
            I32.unsafe_set sh.s_responder ex peer;
            (match exchange with
            | Kernel.Rumor { request_always } ->
                I32.unsafe_set sh.s_req_pay ex (if request_always || informed_u then 1 else 0)
            | Kernel.Words w ->
                (* Payload words are zeroed before the emission hook
                   runs — the hook contract's "words arrive zeroed" —
                   covering block reuse. *)
                let pb = ex * mw in
                for i = 0 to mw - 1 do
                  I32.unsafe_set sh.s_req_pay (pb + i) 0
                done;
                w.req_pay ~u ~informed:informed_u ~buf:sh.s_req_pay ~off:pb);
            I32.unsafe_set sh.s_due ex due;
            I32.unsafe_set sh.s_init ex round;
            I32.unsafe_set sh.s_slot ex idx
          end
          else begin
            let dst = Shard.owner ~n:(Csr.n ctx.sh_csr) ~k peer in
            let m = ctx.sh_init_mail.((sh.s_id * k) + dst) in
            Shard.Buf.push m.(0) u;
            Shard.Buf.push m.(1) peer;
            (match exchange with
            | Kernel.Rumor { request_always } ->
                Shard.Buf.push m.(2) (if request_always || informed_u then 1 else 0)
            | Kernel.Words w ->
                (* The emission hook writes into the shard's scratch
                   run, then the words are copied into the mailbox
                   column — the hook never sees a Buf, only flat I32
                   words. *)
                for i = 0 to mw - 1 do
                  I32.set sh.s_scratch i 0
                done;
                w.req_pay ~u ~informed:informed_u ~buf:sh.s_scratch ~off:0;
                let b = Shard.Buf.reserve m.(2) mw in
                for i = 0 to mw - 1 do
                  Shard.Buf.set m.(2) (b + i) (I32.get sh.s_scratch i)
                done);
            Shard.Buf.push m.(3) due;
            Shard.Buf.push m.(4) arr_slot;
            Shard.Buf.push m.(5) round;
            Shard.Buf.push m.(6) idx;
            sh.s_remote_inits <- sh.s_remote_inits + 1
          end
        end
      end
    end
  done

(* The stage guard is a top-level five-argument function — passing the
   stage itself as a value keeps the worker loop free of the per-round
   [fun () -> stage ...] closures the boxed engine allocated. *)
let guard sh rank f ctx r =
  try f ctx sh r with e -> if sh.s_fail = None then sh.s_fail <- Some (rank, sh.s_at, e)

type control = {
  mutable c_round : int;  (* rounds fully executed *)
  mutable c_count : int;
  mutable c_stop : bool;
  mutable c_rounds : int option;
  mutable c_fail : exn option;
  c_hist : hist;
  mutable c_worst : (int * int * exn) option;  (* merge scratch *)
}

(* A run: the shared context, its shards, and the serial merge's
   control block and round-boundary hooks.  [create_kernel] builds one
   shard for round-at-a-time stepping; [broadcast_kernel] builds
   [min domains n] shards and runs them to the end. *)
type t = {
  ctx : shared;
  shards : shard array;
  ctl : control;
  metrics : metrics;
  tel : tel option;
  telemetry : Gossip_obs.Registry.t option;
  max_rounds : int;
  deadline : float option;
  on_round : (round:int -> informed:int -> unit) option;
  started : float;
  bar1 : Shard.Barrier.t;
  bar2 : Shard.Barrier.t;
}

(* Without [?env] the run makes no environment call at all. *)
let no_env = { presence = Presence.Always; drop = None; latency = None }

let prepare ~k ?(env = no_env) ?wheel_latency ?deadline ?on_round
    ?telemetry ?pool_capacity ?informed rng csr ~kernel ~source ~max_rounds =
  let n = Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Wheel_engine.create: source out of range";
  let bound = wheel_bound ?wheel_latency csr in
  check_contact ~bound kernel csr;
  let mw = check_kernel_shape ~n kernel in
  let pool_limit = pool_limit_of pool_capacity in
  Presence.check ~n env.presence;
  let store = kernel.Kernel.store in
  seed_store ?informed ~n ~source store;
  let informed = Rumor_store.bytes store in
  let count0 = Rumor_store.count store in
  let ctx =
    {
      sh_csr = csr;
      sh_kernel = kernel;
      sh_env = env;
      sh_away = Presence.column env.presence ~n;
      sh_rejoins = Presence.rejoins env.presence;
      sh_wheel = bound + 1;
      sh_mw = mw;
      sh_informed = informed;
      sh_rngs = make_rngs ~uses_rng:kernel.Kernel.uses_rng rng n;
      sh_k = k;
      sh_pool_limit = pool_limit;
      sh_init_mail =
        Array.init (k * k) (fun _ -> Array.init init_cols (fun _ -> Shard.Buf.create ()));
      sh_resp_mail =
        Array.init (k * k) (fun _ -> Array.init resp_cols (fun _ -> Shard.Buf.create ()));
    }
  in
  let bounds = Shard.bounds ~n ~k in
  let shards = Array.init k (fun i -> make_shard ctx i bounds.(i) bounds.(i + 1)) in
  let tel = resolve_tel ~kernel_name:kernel.Kernel.name ~msg_words:mw telemetry in
  (match telemetry with
  | Some reg when k > 1 ->
      Gossip_obs.Registry.set (Gossip_obs.Registry.gauge reg "wheel.shards") k
  | _ -> ());
  {
    ctx;
    shards;
    ctl =
      { c_round = 0; c_count = count0; c_stop = false; c_rounds = None; c_fail = None;
        c_hist = hist_create 0 count0; c_worst = None };
    metrics =
      { Engine.rounds = 0; initiations = 0; deliveries = 0; payload_words = 0; rejected = 0;
        dropped = 0 };
    tel;
    telemetry;
    max_rounds;
    deadline;
    on_round;
    started = (match deadline with None -> 0.0 | Some _ -> Unix.gettimeofday ());
    bar1 = Shard.Barrier.create k;
    bar2 = Shard.Barrier.create k;
  }

(* The serial merge, run by the last domain to reach the round's
   second barrier while every other domain is parked. *)
let merge t =
  let ctl = t.ctl and k = t.ctx.sh_k and metrics = t.metrics in
  let r = ctl.c_round in
  (* First failure in stage order.  [c_worst] reuses the shards' own
     [Some] blocks, so the scan allocates only when a round actually
     failed. *)
  ctl.c_worst <- None;
  for i = 0 to k - 1 do
    let sh = t.shards.(i) in
    match (sh.s_fail, ctl.c_worst) with
    | None, _ -> ()
    | Some _, None -> ctl.c_worst <- sh.s_fail
    | Some f, Some w -> if f < w then ctl.c_worst <- sh.s_fail
  done;
  match ctl.c_worst with
  | Some (_, _, e) ->
      ctl.c_fail <- Some e;
      ctl.c_stop <- true
  | None ->
      (* Sums of the shards' run-cumulative counters; the refs never
         escape, so they compile to registers and the merge allocates
         nothing. *)
      let d0 = metrics.Engine.deliveries
      and i0 = metrics.Engine.initiations
      and x0 = metrics.Engine.dropped
      and p0 = metrics.Engine.payload_words in
      let d = ref 0 and i = ref 0 and x = ref 0 and p = ref 0 in
      let count = ref 0 and in_flight = ref 0 in
      for s = 0 to k - 1 do
        let sh = t.shards.(s) in
        d := !d + sh.s_deliveries;
        i := !i + sh.s_initiations;
        x := !x + sh.s_dropped;
        p := !p + sh.s_payload;
        count := !count + sh.s_count;
        in_flight := !in_flight + sh.s_in_flight
      done;
      (* Cross-shard initiations parked in mailboxes are live exchanges
         a one-shard run would have allocated in phase 2 — count them
         so the in-flight telemetry matches. *)
      for m = 0 to (k * k) - 1 do
        in_flight := !in_flight + Shard.Buf.length t.ctx.sh_init_mail.(m).(0)
      done;
      metrics.Engine.deliveries <- !d;
      metrics.Engine.initiations <- !i;
      metrics.Engine.dropped <- !x;
      metrics.Engine.payload_words <- !p;
      metrics.Engine.rounds <- r + 1;
      ctl.c_round <- r + 1;
      if !count <> ctl.c_count then hist_push ctl.c_hist (r + 1) !count;
      ctl.c_count <- !count;
      (* During the round the shards count their own nodes; the store
         gets the merged total, so Kernel.completed_count agrees with
         the engine at every round boundary. *)
      Rumor_store.set_count t.ctx.sh_kernel.Kernel.store ctl.c_count;
      (match t.tel with
      | None -> ()
      | Some tel ->
          Gossip_obs.Registry.observe tel.h_deliveries (!d - d0);
          Gossip_obs.Registry.observe tel.h_initiations (!i - i0);
          Gossip_obs.Registry.add tel.c_kernel_deliveries (!d - d0);
          Gossip_obs.Registry.add tel.c_kernel_initiations (!i - i0);
          Gossip_obs.Registry.add tel.c_kernel_words (!p - p0);
          Gossip_obs.Registry.observe tel.h_inflight !in_flight;
          Gossip_obs.Registry.record_max tel.g_inflight !in_flight;
          (match tel.tel_ring with
          | None -> ()
          | Some ring ->
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_informed
                ~node:(-1) ~value:ctl.c_count;
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_deliveries
                ~node:(-1) ~value:(!d - d0);
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_initiations
                ~node:(-1) ~value:(!i - i0);
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_drops ~node:(-1)
                ~value:(!x - x0);
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_queue ~node:(-1)
                ~value:!in_flight));
      (* The observer runs inside the serial merge — one domain at a
         time, strictly between rounds, counts already committed — so
         it can never perturb RNG draws, delivery order, or trajectory
         parity.  A raising observer aborts the run the way an expired
         deadline does. *)
      (match t.on_round with
      | Some f -> (
          try f ~round:(r + 1) ~informed:ctl.c_count
          with e ->
            ctl.c_fail <- Some e;
            ctl.c_stop <- true)
      | None -> ());
      if ctl.c_stop then ()
      else if ctl.c_count = Csr.n t.ctx.sh_csr then begin
        ctl.c_rounds <- Some (r + 1);
        ctl.c_stop <- true
      end
      else if r + 1 >= t.max_rounds then begin
        ctl.c_rounds <- None;
        ctl.c_stop <- true
      end
      else
        (* The wall-clock budget is cooperative and checked only
           between rounds: it can abort a run but never alters RNG
           draws or delivery order. *)
        match t.deadline with
        | Some d ->
            let now = Unix.gettimeofday () in
            if now > d then begin
              ctl.c_fail <-
                Some (Deadline_exceeded { round = r + 1; elapsed_s = now -. t.started });
              ctl.c_stop <- true
            end
        | None -> ()

(* One round as seen by one shard.  A one-shard run meets no other
   party at either barrier, so its merge runs inline. *)
let play_round t merge sh =
  let r = t.ctl.c_round in
  guard sh 0 stage1 t.ctx r;
  Shard.Barrier.await t.bar1;
  guard sh 1 stage2_deliver t.ctx r;
  guard sh 2 stage2_initiate t.ctx r;
  Shard.Barrier.await_serial t.bar2 merge

let run t =
  let ctl = t.ctl and k = t.ctx.sh_k in
  if ctl.c_count = Csr.n t.ctx.sh_csr then ctl.c_rounds <- Some 0
  else if t.max_rounds > 0 then begin
    (match t.deadline with
    | Some d ->
        let now = Unix.gettimeofday () in
        if now > d then raise (Deadline_exceeded { round = 0; elapsed_s = now -. t.started })
    | None -> ());
    let merge () = merge t in
    let worker sh =
      while not ctl.c_stop do
        play_round t merge sh
      done
    in
    let minor0 = match t.tel with None -> 0.0 | Some _ -> Gc.minor_words () in
    let domains =
      Array.init (k - 1) (fun i -> Domain.spawn (fun () -> worker t.shards.(i + 1)))
    in
    worker t.shards.(0);
    Array.iter Domain.join domains;
    (* Per-round minor-allocation gauge: the watchdog for an
       allocation-free round loop, measured from the orchestrating
       domain's minor heap (shard 0 plus the serial merges). *)
    (match t.tel with
    | Some tel when t.metrics.Engine.rounds > 0 ->
        Gossip_obs.Registry.set tel.g_minor_words
          (gauge_of_minor_words
             ~total:(Gc.minor_words () -. minor0)
             ~rounds:t.metrics.Engine.rounds)
    | _ -> ());
    (* Cross-shard traffic totals reach the caller's registry once a
       sharded run is over. *)
    match t.telemetry with
    | Some reg when k > 1 ->
        let add name f =
          let c = Gossip_obs.Registry.counter reg name in
          Array.iter (fun sh -> Gossip_obs.Registry.add c (f sh)) t.shards
        in
        add "wheel.shard.remote.initiations" (fun sh -> sh.s_remote_inits);
        add "wheel.shard.remote.responses" (fun sh -> sh.s_remote_resps)
    | _ -> ()
  end;
  (match ctl.c_fail with Some e -> raise e | None -> ());
  {
    rounds = ctl.c_rounds;
    metrics = t.metrics;
    history = hist_to_list ctl.c_hist;
    informed = t.ctx.sh_informed;
  }

let create_kernel ?env ?wheel_latency ?telemetry ?pool_capacity ?informed rng csr ~kernel
    ~source =
  prepare ~k:1 ?env ?wheel_latency ?telemetry ?pool_capacity ?informed rng csr ~kernel ~source
    ~max_rounds:max_int

let step t =
  play_round t (fun () -> merge t) t.shards.(0);
  match t.ctl.c_fail with Some e -> raise e | None -> ()

let metrics t = t.metrics

let informed t u = Bytes.get t.ctx.sh_informed u <> '\000'

let broadcast_kernel ?env ?wheel_latency ?deadline ?on_round ?telemetry ?pool_capacity ?informed
    ?(domains = 1) rng csr ~kernel ~source ~max_rounds =
  if domains < 1 then invalid_arg "Wheel_engine.broadcast_kernel: domains must be >= 1";
  run
    (prepare
       ~k:(min domains (Csr.n csr))
       ?env ?wheel_latency ?deadline ?on_round ?telemetry ?pool_capacity ?informed rng csr ~kernel
       ~source ~max_rounds)

(* Kernel chains: one session per execution, its phases on one round
   clock (see the interface). *)

type session = {
  se_env : env option;
  se_wheel : int option;
  se_lmax : int;  (* the input graph's ℓ_max, the pinned wheel's reference *)
  se_deadline : float option;
  se_on_round : (round:int -> informed:int -> unit) option;
  se_telemetry : Gossip_obs.Registry.t option;
  se_domains : int option;
  se_metrics : metrics;  (* summed over the phases; [rounds] is the clock *)
}

let session ?env ?wheel_latency ?deadline ?on_round ?telemetry ?domains csr =
  {
    se_env = env;
    se_wheel = wheel_latency;
    se_lmax = Csr.max_latency csr;
    se_deadline = deadline;
    se_on_round = on_round;
    se_telemetry = telemetry;
    se_domains = domains;
    se_metrics = Engine.empty_metrics ();
  }

let session_rounds s = s.se_metrics.Engine.rounds

let session_metrics s = s.se_metrics

(* The environment as seen by a phase that starts at session round
   [clock]: presence is rebased by arithmetic, and the hooks a phase
   has read [round + clock]. *)
let env_from ~clock e =
  if clock = 0 then e
  else
    {
      presence = Presence.rebase ~clock e.presence;
      drop =
        Option.map
          (fun f ~initiator ~responder ~round -> f ~initiator ~responder ~round:(round + clock))
          e.drop;
      latency =
        Option.map
          (function
            | By_class f -> By_class (fun ~latency ~round -> f ~latency ~round:(round + clock))
            | By_edge f -> By_edge (fun ~u ~v ~latency ~round -> f ~u ~v ~latency ~round:(round + clock)))
          e.latency;
    }

(* A pinned wheel [w] for the input's ℓ_max [L] scales to a phase
   graph with a larger ℓ_max: ⌈w · ℓ_max(g) / L⌉. *)
let phase_wheel s g =
  match s.se_wheel with
  | Some w when Csr.max_latency g > s.se_lmax ->
      let scaled =
        if w > I32.max_value then w
        else ((w * Csr.max_latency g) + s.se_lmax - 1) / s.se_lmax
      in
      if scaled > I32.max_value then
        raise (I32.Overflow { what = "phase wheel bound"; value = scaled });
      Some scaled
  | w -> w

let phase s ?informed rng g ~kernel ~source ~max_rounds =
  let clock = session_rounds s in
  let on_round =
    Option.map (fun f ~round ~informed -> f ~round:(clock + round) ~informed) s.se_on_round
  in
  let res =
    broadcast_kernel
      ?env:(Option.map (env_from ~clock) s.se_env)
      ?wheel_latency:(phase_wheel s g) ?deadline:s.se_deadline ?on_round
      ?telemetry:s.se_telemetry ?informed ?domains:s.se_domains rng g ~kernel ~source
      ~max_rounds
  in
  Engine.add_metrics ~into:s.se_metrics res.metrics;
  res
