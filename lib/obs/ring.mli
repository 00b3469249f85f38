(** Fixed-capacity structured event buffer for round tracing.

    A ring holds [(round, kind, node, value)] integer records in four
    parallel arrays: recording is a handful of array stores — no
    allocation — so engines can trace every round of a 10^6-node run.
    Two knobs keep the volume bounded: a {e sampling} stride (keep
    every [sample]-th offered event) and the fixed capacity (once
    full, the oldest record is overwritten).  [seen]/[kept] counters
    make any loss visible downstream, so a telemetry file can never
    silently pass truncated data off as complete. *)

type t

(** Canonical event kinds shared by the instrumented layers (see the
    JSONL schema in DESIGN.md).  Instrumentation may use further kind
    ids; [kind_name] falls back to ["k<i>"] for them. *)

val kind_informed : int
(** informed-set size at the end of a round ([node = -1]) *)

val kind_deliveries : int
(** messages delivered during a round *)

val kind_initiations : int
(** exchanges initiated during a round *)

val kind_drops : int
(** messages lost to faults during a round *)

val kind_queue : int
(** in-flight exchanges at the end of a round *)

val kind_name : int -> string

(** [create ?sample ~capacity ()] builds an empty ring.  [sample]
    (default 1) keeps every [sample]-th offered record, counting from
    the first.
    @raise Invalid_argument when [capacity < 1] or [sample < 1]. *)
val create : ?sample:int -> capacity:int -> unit -> t

val capacity : t -> int

val sample : t -> int

(** [record t ~round ~kind ~node ~value] offers one event.  Events
    skipped by sampling still advance the [seen] counter. *)
val record : t -> round:int -> kind:int -> node:int -> value:int -> unit

(** Records currently held (at most [capacity]). *)
val length : t -> int

(** Total events offered, including sampled-out and overwritten ones. *)
val seen : t -> int

(** Total events stored (length plus overwritten). *)
val kept : t -> int

(** [iter t f] visits held records oldest-first. *)
val iter : t -> (round:int -> kind:int -> node:int -> value:int -> unit) -> unit

(** Held records oldest-first, as [(round, kind, node, value)]. *)
val to_list : t -> (int * int * int * int) list
