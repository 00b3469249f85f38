module Json = Gossip_util.Json

type report = {
  label : string;
  depth : int;
  elapsed_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

type t = {
  span_label : string;
  span_depth : int;
  t0 : float;
  (* [Gc.quick_stat] only folds the running domain's minor allocations
     in at a minor collection, so a short span would read a zero delta;
     [Gc.minor_words] reads the live allocation pointer instead. *)
  m0 : float;
  gc0 : Gc.stat;
  mutable closed : bool;
}

let current_depth = ref 0

let enter label =
  let depth = !current_depth in
  incr current_depth;
  {
    span_label = label;
    span_depth = depth;
    t0 = Unix.gettimeofday ();
    m0 = Gc.minor_words ();
    gc0 = Gc.quick_stat ();
    closed = false;
  }

let exit t =
  if t.closed then invalid_arg "Span.exit: span already exited";
  t.closed <- true;
  decr current_depth;
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  {
    label = t.span_label;
    depth = t.span_depth;
    elapsed_s = t1 -. t.t0;
    minor_words = Gc.minor_words () -. t.m0;
    promoted_words = gc1.Gc.promoted_words -. t.gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - t.gc0.Gc.major_collections;
  }

let timed label f =
  let span = enter label in
  match f () with
  | y -> (y, exit span)
  | exception e ->
      ignore (exit span);
      raise e

let report_json r =
  [
    ("ev", Json.String "span");
    ("label", Json.String r.label);
    ("depth", Json.Int r.depth);
    ("elapsed_s", Json.Float r.elapsed_s);
    ("minor_words", Json.Float r.minor_words);
    ("promoted_words", Json.Float r.promoted_words);
    ("major_collections", Json.Int r.major_collections);
  ]
