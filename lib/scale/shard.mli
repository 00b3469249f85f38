(** Infrastructure for domain-sharded engine runs: a balanced
    contiguous node partition, growable flat-int32 mailboxes, and a
    reusable phase barrier with a serial merge hook.

    The module is deliberately engine-agnostic — it knows nothing about
    protocols or wheels — so the determinism argument of the sharded
    {!Wheel_engine} rests on three small, separately testable pieces:

    - {!bounds}/{!owner} define one fixed partition of [0..n-1] into
      [k] contiguous ranges, so "which shard owns node [v]" is a pure
      function of [(n, k, v)];
    - {!Buf} mailboxes are written by exactly one shard per phase and
      drained in fixed [(src, dst)] order after a barrier, so the
      receiver sees a deterministic sequence regardless of domain
      scheduling;
    - {!Barrier} separates the writing phase from the reading phase
      (its mutex gives the happens-before edge) and lets the last
      arriver run a serial action — the per-round merge — while every
      other domain is parked. *)

(** [bounds ~n ~k] is the [k+1] partition boundaries: shard [i] owns
    nodes [bounds.(i) .. bounds.(i+1) - 1].  Ranges are contiguous,
    cover [0..n-1], and differ in size by at most one.
    @raise Invalid_argument unless [0 < k <= n]. *)
val bounds : n:int -> k:int -> int array

(** [owner ~n ~k v] is the index of the shard owning node [v] under
    {!bounds} — computed in O(1), no search. *)
val owner : n:int -> k:int -> int -> int

(** Raised by {!Buf.reserve} when a reservation would exceed the
    buffer's growth ceiling (or overflow the length arithmetic
    itself) — a typed failure instead of the unguarded doubling loop
    that used to wrap negative and spin. *)
exception Buf_overflow of { need : int; limit : int }

(** Growable flat int32 buffer: the per-[(src_shard, dst_shard)]
    mailbox columns for cross-shard records (the engine keeps one
    [Buf] per record field — a structure of arrays — so each cell is
    4 bytes instead of a boxed word).  Values must respect the int32
    range contract of {!I32}; the engine's are covered by the {!Csr}
    constructor checks plus its round-bound guard.  Not thread-safe by
    itself — safety comes from the protocol: one writer per phase,
    drained after a barrier. *)
module Buf : sig
  type t

  (** Hard growth ceiling:
      [min Sys.max_array_length I32.max_value]. *)
  val max_capacity : int

  (** [create ()] is an empty buffer; storage is allocated by the
      first {!reserve}. *)
  val create : unit -> t

  (** Number of cells currently stored. *)
  val length : t -> int

  val get : t -> int -> int

  val clear : t -> unit

  (** [reserve b k] grows the buffer by [k] cells and returns the base
      index of the reserved run; fill it with {!set}.  The capacity
      doubles as needed, clamped to {!max_capacity}.
      @raise Buf_overflow when the needed length exceeds
        {!max_capacity} (or overflows [int]).
      @raise Invalid_argument on a negative [k]. *)
  val reserve : t -> int -> int

  val set : t -> int -> int -> unit

  (** [push b v] appends one cell ([reserve b 1] + write).
      @raise Buf_overflow as {!reserve}. *)
  val push : t -> int -> unit

  (** Unchecked read for drain loops whose indices are in bounds by
      construction. *)
  val unsafe_get : t -> int -> int
end

(** Cyclic sense-reversing barrier over [Mutex]/[Condition]. *)
module Barrier : sig
  type t

  (** [create parties] for a fixed number of participating domains. *)
  val create : int -> t

  (** [await t] blocks until all parties have arrived. *)
  val await : t -> unit

  (** [await_serial t serial] additionally has the last arriver run
      [serial] (under the barrier lock, before any party is released),
      so [serial] reads every shard's phase output exclusively.  All
      parties of one phase must pass the same [serial].  [serial] is a
      plain argument — an optional one would box in [Some] on every
      round of every shard. *)
  val await_serial : t -> (unit -> unit) -> unit
end
