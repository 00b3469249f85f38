(** Kernel-owned per-node completion state for the wheel engine.

    A store is one byte per node ("has this node completed the run's
    dissemination goal?") plus a count of set bytes, owned by the
    {!Kernel.t} that built it.  The engine never interprets rumors: it
    seeds the store ([?informed] bytes and the broadcast source), asks
    {!count} for termination, marks nodes when a kernel hook says so,
    and forgets nodes on churn rejoin.  What completion {e means} is
    the kernel's business, wired in through two hooks:

    - [on_seed v] — the engine wants [v] seeded as an initial rumor
      holder.  Returns whether [v] is thereby {e completed}.  The
      default ([fun _ -> true]) is the classic single-rumor semantics:
      seeding is informing.  Multi-rumor kernels seed their own rumor
      state at construction and return [count v = k]-style predicates
      here instead.
    - [on_forget v] — [v] rejoined after churn with amnesia; the
      kernel must reset [v]'s private rumor state (a returning node
      keeps at most its own rumor).  Called before the completed byte
      is cleared.

    Both hooks touch only node [v]'s state, so every store operation
    is safe under the engine's owner-only sharding discipline. *)

type t

(** [create ?on_seed ?on_forget n] is an empty store over [n] nodes.
    @raise Invalid_argument when [n < 1]. *)
val create : ?on_seed:(int -> bool) -> ?on_forget:(int -> unit) -> int -> t

val capacity : t -> int

(** The completed byte array itself (one byte per node, nonzero =
    completed) — shared, not copied: the engine's result exposes it and
    the sharded runtime writes its own nodes' bytes directly. *)
val bytes : t -> Bytes.t

val completed : t -> int -> bool

(** [count t] is the number of completed nodes — maintained
    incrementally by {!mark}/{!seed} while the store is built and
    seeded.  During a run each shard counts its own nodes, and the
    engine installs the merged total via {!set_count} at every round
    boundary. *)
val count : t -> int

val set_count : t -> int -> unit

(** [mark t v] marks [v] completed; idempotent. *)
val mark : t -> int -> unit

(** [seed t v] offers [v] its initial rumor: runs [on_seed] and marks
    [v] iff the hook reports completion. *)
val seed : t -> int -> unit

(** [forget t v] is churn amnesia of [v]'s rumor state: runs
    [on_forget].  The engine clears [v]'s completed byte and its
    shard's count itself, since only the owning shard may touch them
    mid-round. *)
val forget : t -> int -> unit
