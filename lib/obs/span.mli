(** Nestable wall-clock timing spans with GC-pressure deltas.

    A span brackets a region of work: [enter] snapshots
    [Unix.gettimeofday] and [Gc.quick_stat], [exit] returns the
    elapsed time plus the allocation and collection activity in
    between.  Spans nest — each report carries the depth at which it
    was opened, so a bench harness can indent a timing tree.

    Depth tracking uses a single global counter: spans are meant for
    the orchestrating domain (bench sections, sweep phases), not for
    concurrent use inside worker domains. *)

type t

(** What one span measured.  Word counts are in words, as reported by
    [Gc.quick_stat]. *)
type report = {
  label : string;
  depth : int;  (** nesting depth at [enter] (0 = outermost) *)
  elapsed_s : float;
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;
  major_collections : int;
}

val enter : string -> t

(** [exit t] closes the span.
    @raise Invalid_argument if [t] was already exited. *)
val exit : t -> report

(** [timed label f] runs [f] inside a span. If [f] raises, the span is
    unwound and the exception re-raised. *)
val timed : string -> (unit -> 'a) -> 'a * report

(** [report_json r] is the JSONL-schema rendering used by {!Sink}
    (["ev" = "span"]). *)
val report_json : report -> (string * Gossip_util.Json.t) list
