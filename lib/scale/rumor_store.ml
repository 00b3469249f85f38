(* The kernel-owned rumor store: completion state for the wheel engine.

   Before the rumor-state layer, [Wheel_engine] owned a single informed
   byte array and hard-coded "completion = everyone informed of the one
   rumor".  Multi-rumor kernels (k-rumor subsets, GF(2) rank tracking)
   need their own notion of per-node completion, so the store inverts
   the ownership: the kernel builds the store (optionally wiring in
   seeding/amnesia hooks over its private rumor state), and the engine
   consumes only the completion predicate — one byte per node, exactly
   the layout the informed array had, which is what keeps single-rumor
   runs bit-identical through the refactor.

   The byte array is also the shard-parity contract: under domain
   sharding each shard touches only its own nodes' bytes (idempotent
   monotone marks), and the per-shard completed counts are summed at
   the round barrier — the same discipline the informed bytes had. *)

type t = {
  n : int;
  completed : Bytes.t;
  mutable count : int;
  on_seed : int -> bool;
  on_forget : int -> unit;
}

let create ?(on_seed = fun _ -> true) ?(on_forget = fun _ -> ()) n =
  if n < 1 then invalid_arg "Rumor_store.create: need n >= 1";
  { n; completed = Bytes.make n '\000'; count = 0; on_seed; on_forget }

let capacity t = t.n

let bytes t = t.completed

let completed t v = Bytes.get t.completed v <> '\000'

let count t = t.count

(* The engine maintains per-shard counts during a round and installs
   the merged total at the round boundary. *)
let set_count t c = t.count <- c

let mark t v =
  if Bytes.get t.completed v = '\000' then begin
    Bytes.set t.completed v '\001';
    t.count <- t.count + 1
  end

let seed t v = if t.on_seed v then mark t v

let forget t v = t.on_forget v
