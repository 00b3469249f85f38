(** Who is present when: the presence half of a {!Wheel_engine.env}.

    A run reads presence as data.  At the start of each round every
    shard brings its own nodes' cells of one int32 column, [away], up
    to date ({!advance}); the round's checks are then one compare each:

    - node [v] is alive at [round] iff [away.(v) <= round];
    - [v] has been present since round [s] iff [away.(v) <= s].

    The column costs 4 bytes per node and exists only when there is
    presence to track ({!column}).  {!alive} and {!present_since} are
    the reference semantics the column must agree with. *)

(** A churn plan: absence intervals [(leave, node, back)] — [node] is
    away during rounds [leave] through [back - 1] and rejoins with
    amnesia at the start of [back] ([back = never]: it never comes
    back) — sorted by [leave], with the amnesia points derived from
    them: one [(back, node)] per finite [back], sorted, duplicates
    merged.  Intervals may overlap, on one node too.  Private, so the
    two arrays always come from {!absences} (or {!rebase}) and cannot
    disagree. *)
type schedule = private { absences : (int * int * int) array; rejoins : (int * int) array }

type t =
  | Always  (** every node, every round *)
  | Absences of schedule  (** churn; build with {!absences} *)
  | Alive_at of (node:int -> round:int -> bool)
      (** a static fault plan's liveness: asked once per node per
          round, and an exchange reaches a node that is alive at the
          delivery round.  Must be pure. *)

(** [absences intervals] is the churn plan of [intervals], in any
    order.  It sorts and derives once, so a run only reads.
    @raise Invalid_argument on an interval that ends at or before its
    leave. *)
val absences : (int * int * int) array -> t

(** The [back] of a leave for good: [max_int]. *)
val never : int

(** [alive p ~node ~round]: may [node] act at [round]? *)
val alive : t -> node:int -> round:int -> bool

(** [present_since p ~node ~since ~round]: has [node] been present
    over every round of [since .. round]?  An exchange initiated at
    [since] reaches [node] at [round] only then: a node that left and
    came back in between has lost the exchange's incarnation. *)
val present_since : t -> node:int -> since:int -> round:int -> bool

(** [check ~n p] refuses an absence whose node lies outside [0, n).
    @raise Invalid_argument *)
val check : n:int -> t -> unit

(** The amnesia points of an [Absences] plan; empty for the others. *)
val rejoins : t -> (int * int) array

(** [rebase ~clock p] is [p] seen from a phase whose round 0 is round
    [clock]: absences and rejoins shift by [clock] (an absence that
    ended before [clock] is dropped; one ending at [clock] keeps its
    rejoin at round 0), and an [Alive_at] plan reads [round + clock]. *)
val rebase : clock:int -> t -> t

(** [column p ~n] is a fresh column (every cell 0), or [None] when [p]
    has no presence to track. *)
val column : t -> n:int -> I32.t option

(** [advance p away ~cursor ~lo ~hi ~round] brings cells [lo, hi) of
    [away] to round [round] and returns the next cursor.  A shard
    calls it once per round, rounds ascending from 0, starting from
    cursor 0: [Absences] folds every interval whose leave has come
    into its node's cell (the cursor walks the schedule); [Alive_at]
    asks the plan for each node. *)
val advance : t -> I32.t -> cursor:int -> lo:int -> hi:int -> round:int -> int

(** [present away v ~since]: the column's check, [away.(v) <= since]
    (with [since = round] it is liveness). *)
val present : I32.t -> int -> since:int -> bool
