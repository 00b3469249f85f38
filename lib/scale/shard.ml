let bounds ~n ~k =
  if k <= 0 || k > n then invalid_arg "Shard.bounds: need 0 < k <= n";
  Array.init (k + 1) (fun i -> ((i * n) + k - 1) / k)

let owner ~n ~k v = v * k / n

exception Buf_overflow of { need : int; limit : int }

let () =
  Printexc.register_printer (function
    | Buf_overflow { need; limit } ->
        Some
          (Printf.sprintf
             "Gossip_scale.Shard.Buf_overflow: mailbox reservation of %d cells exceeds \
              the growth ceiling %d"
             need limit)
    | _ -> None)

module Buf = struct
  type t = { mutable data : I32.t; mutable len : int }

  (* Cells are int32 (the cross-shard records carry node ids, rounds,
     and payload bits, all covered by the CSR range contract), and the
     capacity is capped so the doubling loop can neither overflow to a
     negative request nor ask Bigarray for a bogus size. *)
  let max_capacity = min Sys.max_array_length I32.max_value

  (* A buffer allocates on its first reservation: a run builds k * k
     mailbox columns, and the diagonal ones — all of them at k = 1 —
     never carry a record. *)
  let empty = I32.make 0 0

  let create () = { data = empty; len = 0 }

  let length b = b.len

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Shard.Buf.get: index out of bounds";
    I32.unsafe_get b.data i

  let clear b = b.len <- 0

  let reserve b k =
    if k < 0 then invalid_arg "Shard.Buf.reserve: negative reservation";
    let need = b.len + k in
    (* [need < 0] is [len + k] overflowing max_int itself. *)
    if need < 0 || need > max_capacity then
      raise (Buf_overflow { need; limit = max_capacity });
    if need > I32.length b.data then begin
      let cap = ref (max 64 (I32.length b.data)) in
      while !cap < need do
        (* cap <= max_capacity < 2^62, so the doubling cannot wrap. *)
        cap := min (2 * !cap) max_capacity
      done;
      let data = I32.make !cap 0 in
      I32.blit ~src:b.data ~dst:data b.len;
      b.data <- data
    end;
    let base = b.len in
    b.len <- need;
    base

  let set b i v =
    if i < 0 || i >= b.len then invalid_arg "Shard.Buf.set: index out of bounds";
    I32.unsafe_set b.data i v

  let push b v =
    let i = reserve b 1 in
    I32.unsafe_set b.data i v

  (* Unchecked read for the engine's drain loops, whose indices come
     from [length] and are in bounds by construction. *)
  let unsafe_get b i = I32.unsafe_get b.data i
end

module Barrier = struct
  type t = {
    mu : Mutex.t;
    cv : Condition.t;
    parties : int;
    mutable arrived : int;
    mutable epoch : int;
  }

  let create parties =
    if parties <= 0 then invalid_arg "Shard.Barrier.create: parties must be > 0";
    { mu = Mutex.create (); cv = Condition.create (); parties; arrived = 0; epoch = 0 }

  (* [serial] is a plain (not optional) argument: wrapping it in
     [Some] at every call would put two words of allocation in each
     shard's round loop. *)
  let await_serial t serial =
    Mutex.lock t.mu;
    let epoch = t.epoch in
    t.arrived <- t.arrived + 1;
    if t.arrived = t.parties then begin
      (* Last arriver: every other domain is parked on [cv], so the
         serial action owns all shard state exclusively. *)
      serial ();
      t.arrived <- 0;
      t.epoch <- epoch + 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.mu
    end
    else begin
      while t.epoch = epoch do
        Condition.wait t.cv t.mu
      done;
      Mutex.unlock t.mu
    end

  let await t = await_serial t ignore
end
