(** Flat int32 storage for the scale runtime's hot state.

    {!Csr.t}, the wheel engine's exchange blocks, and the sharded
    mailboxes all store node ids, latencies, and row offsets in int32
    {!Bigarray.Array1} cells: 4 bytes per element instead of a full
    machine word, off the OCaml heap so the GC never scans it.  The
    price is a range contract — every value must fit an int32 — and
    the contract is enforced at the edges: constructors raise the
    typed {!Overflow} instead of silently wrapping a too-large value
    through [Int32.of_int].

    Accessors convert at the boundary.  [Int32.to_int] composed
    directly over the Bigarray read compiles without materializing a
    boxed [int32] in native code, so a round loop indexing through
    {!get}/{!unsafe_get} allocates nothing (the
    [wheel.minor_words_per_round] budget asserted by the tests and
    bench e18 is the watchdog). *)

type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Raised by every constructor that packs caller ints into int32
    cells when a value falls outside [\[0, Int32.max_int\]].  [what]
    names the offending quantity (["node count"], ["latency"],
    ["row_ptr entry"], ...). *)
exception Overflow of { what : string; value : int }

(** [Int32.max_int] as an [int]: the largest value a cell holds. *)
val max_value : int

(** [check what v] raises {!Overflow} unless [0 <= v <= max_value]. *)
val check : string -> int -> unit

(** [make len v] is a fresh array of [len] cells, all [v] (unchecked —
    pass a small sentinel like [0] or [-1]... which must itself fit;
    negative sentinels are the caller's own convention and wrap to the
    same negative value on read). *)
val make : int -> int -> t

val length : t -> int

(** Bounds-checked read, as an [int]. *)
val get : t -> int -> int

(** Bounds-checked write; {b wraps} silently — callers validate with
    {!check} (or a constructor already did). *)
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
val unsafe_set : t -> int -> int -> unit
val fill : t -> int -> unit

(** [blit ~src ~dst len] copies the first [len] cells. *)
val blit : src:t -> dst:t -> int -> unit

(** [of_int_array ~what a] packs, {!check}ing every element.
    @raise Overflow naming [what] on the first out-of-range value. *)
val of_int_array : what:string -> int array -> t

val to_int_array : t -> int array

(** Structural equality (Bigarray custom compare). *)
val equal : t -> t -> bool

(** Payload bytes ([4 * length]); headers excluded. *)
val memory_bytes : t -> int
