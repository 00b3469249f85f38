(** Termination Check (Algorithm 1; Section 5.3; Lemma 18).

    After one execution of all-to-all dissemination with diameter
    estimate [k], every node [v] checks whether the estimate sufficed:

    + [v]'s {e flag} is set when some neighbor is missing from its
      rumor set;
    + [v] broadcasts its (frozen) rumor set and flag through its
      [k]-distance neighborhood and fails when it sees a different
      rumor set or a set flag;
    + a second broadcast floods the "failed" verdict so that everyone
      reaches the same decision (Lemma 18: either all nodes terminate,
      or none do, in the same round).

    The broadcasts run as round-robin exchanges over a supplied edge
    orientation (the spanner inside EID, the full adjacency inside Path
    Discovery) — any Lemma 15-style [k]-distance broadcast works here,
    as the paper notes.

    Rumor sets are compared {e frozen} (as of check start): exchanges
    during the check compare fingerprints rather than merging, so a
    genuine disagreement cannot be masked by the check itself. *)

type result = {
  failed : bool array;  (** per-node verdict after both passes *)
  rounds : int;  (** engine rounds consumed by the check *)
  unanimous : bool;  (** Lemma 18: all verdicts equal *)
}

(** [run ~base ~out_edges ~k ~sets] performs the check.  [sets] is read
    (frozen copies are taken), never modified. *)
val run :
  base:Gossip_graph.Graph.t ->
  out_edges:(Gossip_graph.Graph.node * int) array array ->
  k:int ->
  sets:Rumor.t array ->
  result

(** [rr_rounds_of ~delta_out ~k] is Lemma 15's round-robin window
    [k·Δ_out + k] — the iteration count both check passes flood for. *)
val rr_rounds_of : delta_out:int -> k:int -> int

(** [run_single ~base ~out_edges ~k ~informed] is the single-rumor
    form of the check: the frozen per-node state is one bit ([u] heard
    the rumor), and a node starts flagged iff it is uninformed, so a
    unanimously clean verdict means "everyone heard it".  Semantically
    the boxed twin of {!run_scale} (same flag/mismatch algebra),
    kept for cross-runtime parity tests. *)
val run_single :
  base:Gossip_graph.Graph.t ->
  out_edges:(Gossip_graph.Graph.node * int) array array ->
  k:int ->
  informed:bool array ->
  result

(** {1 The check on the flat scale engine} *)

type scale_result = {
  sc_failed : Bytes.t;  (** per-node verdict after the flood pass *)
  sc_rounds : int;  (** wheel rounds executed, both passes *)
  sc_unanimous : bool;  (** Lemma 18: all verdicts equal *)
  sc_any_failed : bool;  (** some node failed (retry needed) *)
  sc_metrics : Gossip_sim.Engine.metrics;  (** summed over both passes *)
}

(** [run_scale rng csr ~oriented ~k ~informed] runs the single-rumor
    check through the {!Gossip_scale.Kernel.termination_check} /
    [verdict_flood] kernels: gather over [oriented]'s latency-[<= k]
    out-edges for the Lemma 15 window, then flood the verdict for the
    same window.  [informed] is frozen at kernel construction (copied,
    never written).  Optional arguments pass through to both passes'
    {!Gossip_scale.Wheel_engine.broadcast_kernel}; [on_round] so sees
    each pass's rounds from 1. *)
val run_scale :
  ?faults:Gossip_scale.Wheel_engine.faults ->
  ?env:Gossip_scale.Wheel_engine.env ->
  ?wheel_latency:int ->
  ?max_jitter:int ->
  ?deadline:float ->
  ?on_round:(round:int -> informed:int -> unit) ->
  ?telemetry:Gossip_obs.Registry.t ->
  ?domains:int ->
  Gossip_util.Rng.t ->
  Gossip_scale.Csr.t ->
  oriented:Gossip_scale.Csr.oriented ->
  k:int ->
  informed:Bytes.t ->
  scale_result
