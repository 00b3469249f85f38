module Json = Gossip_util.Json
module Rng = Gossip_util.Rng
module Graph = Gossip_graph.Graph

exception Invalid_scenario of string

let () =
  Printexc.register_printer (function
    | Invalid_scenario msg -> Some (Printf.sprintf "Invalid_scenario: %s" msg)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_scenario s)) fmt

type filter =
  | All
  | Lat_ge of int
  | Lat_le of int
  | Endpoint_mod of { modulus : int; residue : int }

type schedule =
  | Linear of { rate : float; cap : float }
  | Diurnal of { amplitude : float; period : int; phase : int }
  | Step of { at : int; factor : float }
  | Trace of { multipliers : float array; dilate : int }

type rule = { schedule : schedule; filter : filter }

type churn =
  | Leave of { node : int; leave : int; rejoin : int option }
  | Random_churn of { fraction : float; leave : int; down : int; period : int }

type adversary = { budget : int }

type t = {
  name : string;
  seed : int;
  rules : rule list;
  churn : churn list;
  adversary : adversary option;
  epoch : int;
  track_phi : bool;
}

let default_epoch = 32

let static =
  {
    name = "static";
    seed = 1;
    rules = [];
    churn = [];
    adversary = None;
    epoch = default_epoch;
    track_phi = false;
  }

let is_static s = s.rules = [] && s.churn = [] && s.adversary = None

(* ------------------------------------------------------------------ *)
(* JSON decoding.  Strict: unknown fields and unknown kinds are errors
   with the offending path in the message, so a typo'd scenario file
   fails loudly instead of silently running the static plan. *)

let obj ~ctx ~keys = function
  | Json.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k keys) then fail "%s: unknown field %S" ctx k)
        fields;
      fields
  | _ -> fail "%s: expected an object" ctx

let dec_int ~ctx = function
  | Json.Int i -> i
  | _ -> fail "%s: expected an integer" ctx

let dec_float ~ctx = function
  | Json.Int i -> float_of_int i
  | Json.Float f when Float.is_finite f -> f
  | _ -> fail "%s: expected a (finite) number" ctx

let dec_string ~ctx = function
  | Json.String s -> s
  | _ -> fail "%s: expected a string" ctx

let dec_bool ~ctx = function
  | Json.Bool b -> b
  | _ -> fail "%s: expected a boolean" ctx

let dec_list ~ctx = function
  | Json.List l -> l
  | _ -> fail "%s: expected a list" ctx

let req ~ctx fields k dec =
  match List.assoc_opt k fields with
  | Some j -> dec ~ctx:(ctx ^ "." ^ k) j
  | None -> fail "%s: missing field %S" ctx k

let opt ~ctx fields k dec ~default =
  match List.assoc_opt k fields with
  | Some j -> dec ~ctx:(ctx ^ "." ^ k) j
  | None -> default

(* The engine's round range.  Every round a plan names lies in it, and
   so must every sum of them the engine forms: a sum past it wraps
   negative, and a churn interval with a wrapped end never happens.
   (The seed sums [seed + idx] and [seed + 7919·(i+1)] only seed hashes
   and streams, where wrapping is harmless; a jitter draw's
   [budget + 1] is bounded by {!compile}'s latency-range check.) *)
let max_round = Gossip_scale.I32.max_value

(* A round count or round number in [lo, max_round]. *)
let dec_round ~lo ~ctx j =
  let v = dec_int ~ctx j in
  if v < lo then fail "%s: must be >= %d (got %d)" ctx lo v;
  if v > max_round then fail "%s: %d exceeds the round range (%d)" ctx v max_round;
  v

let filter_of_json ~ctx j =
  let fields = obj ~ctx ~keys:[ "kind"; "latency"; "modulus"; "residue" ] j in
  match req ~ctx fields "kind" dec_string with
  | "all" -> All
  | "lat-ge" ->
      let l = req ~ctx fields "latency" dec_int in
      if l < 1 then fail "%s.latency: must be >= 1 (got %d)" ctx l;
      Lat_ge l
  | "lat-le" ->
      let l = req ~ctx fields "latency" dec_int in
      if l < 1 then fail "%s.latency: must be >= 1 (got %d)" ctx l;
      Lat_le l
  | "endpoint-mod" ->
      let modulus = req ~ctx fields "modulus" dec_int in
      let residue = req ~ctx fields "residue" dec_int in
      if modulus < 1 then fail "%s.modulus: must be >= 1 (got %d)" ctx modulus;
      if residue < 0 || residue >= modulus then
        fail "%s.residue: must be in [0, %d) (got %d)" ctx modulus residue;
      Endpoint_mod { modulus; residue }
  | k ->
      fail "%s.kind: unknown filter kind %S (want all, lat-ge, lat-le, endpoint-mod)"
        ctx k

let rule_of_json ~ctx j =
  let keys =
    [
      "kind"; "rate"; "cap"; "amplitude"; "period"; "phase"; "at"; "factor";
      "multipliers"; "dilate"; "filter";
    ]
  in
  let fields = obj ~ctx ~keys j in
  let filter =
    match List.assoc_opt "filter" fields with
    | None -> All
    | Some j -> filter_of_json ~ctx:(ctx ^ ".filter") j
  in
  let schedule =
    match req ~ctx fields "kind" dec_string with
    | "linear" ->
        let rate = req ~ctx fields "rate" dec_float in
        let cap = req ~ctx fields "cap" dec_float in
        if rate < 0.0 then fail "%s.rate: must be >= 0 (got %g)" ctx rate;
        if cap < 1.0 then fail "%s.cap: must be >= 1 (got %g)" ctx cap;
        Linear { rate; cap }
    | "diurnal" ->
        let amplitude = req ~ctx fields "amplitude" dec_float in
        let period = req ~ctx fields "period" (dec_round ~lo:1) in
        (* the closure reads round + phase *)
        let phase = opt ~ctx fields "phase" (dec_round ~lo:0) ~default:0 in
        if amplitude < 0.0 then
          fail "%s.amplitude: must be >= 0 (got %g)" ctx amplitude;
        Diurnal { amplitude; period; phase }
    | "step" ->
        let at = req ~ctx fields "at" (dec_round ~lo:0) in
        let factor = req ~ctx fields "factor" dec_float in
        if factor <= 0.0 then fail "%s.factor: must be > 0 (got %g)" ctx factor;
        Step { at; factor }
    | "trace" ->
        let ms =
          req ~ctx fields "multipliers" dec_list
          |> List.map (dec_float ~ctx:(ctx ^ ".multipliers"))
          |> Array.of_list
        in
        if Array.length ms = 0 then fail "%s.multipliers: must be non-empty" ctx;
        Array.iter
          (fun m ->
            if m <= 0.0 then fail "%s.multipliers: must be > 0 (got %g)" ctx m)
          ms;
        let dilate = opt ~ctx fields "dilate" (dec_round ~lo:1) ~default:1 in
        Trace { multipliers = ms; dilate }
    | k ->
        fail "%s.kind: unknown schedule kind %S (want linear, diurnal, step, trace)"
          ctx k
  in
  { schedule; filter }

let churn_of_json ~ctx j =
  match j with
  | Json.Obj fields when List.mem_assoc "node" fields ->
      let fields = obj ~ctx ~keys:[ "node"; "leave"; "rejoin" ] j in
      let node = req ~ctx fields "node" dec_int in
      let leave = req ~ctx fields "leave" (dec_round ~lo:0) in
      if node < 0 then fail "%s.node: must be >= 0 (got %d)" ctx node;
      let rejoin =
        match List.assoc_opt "rejoin" fields with
        | None | Some Json.Null -> None
        | Some j ->
            let r = dec_round ~lo:0 ~ctx:(ctx ^ ".rejoin") j in
            if r <= leave then
              fail "%s.rejoin: must be > leave round %d (got %d)" ctx leave r;
            Some r
      in
      Leave { node; leave; rejoin }
  | Json.Obj _ ->
      let fields =
        obj ~ctx ~keys:[ "kind"; "fraction"; "leave"; "down"; "period" ] j
      in
      (match req ~ctx fields "kind" dec_string with
      | "random" -> ()
      | k -> fail "%s.kind: unknown churn kind %S (want random)" ctx k);
      let fraction = req ~ctx fields "fraction" dec_float in
      let leave = req ~ctx fields "leave" (dec_round ~lo:0) in
      let down = req ~ctx fields "down" (dec_round ~lo:1) in
      let period = opt ~ctx fields "period" (dec_round ~lo:1) ~default:1 in
      if fraction < 0.0 || fraction > 1.0 then
        fail "%s.fraction: must be in [0, 1] (got %g)" ctx fraction;
      (* The last leaver rejoins at leave + period - 1 + down; each term
         is in range, so the sum cannot wrap here. *)
      let last = leave + (period - 1) + down in
      if last > max_round then
        fail
          "%s.down: the last rejoin (leave %d + period %d - 1 + down %d = %d) exceeds \
           the round range (%d)"
          ctx leave period down last max_round;
      Random_churn { fraction; leave; down; period }
  | _ -> fail "%s: expected an object" ctx

let adversary_of_json ~ctx j =
  let fields = obj ~ctx ~keys:[ "budget"; "from" ] j in
  let budget = req ~ctx fields "budget" dec_int in
  if budget < 0 then fail "%s.budget: must be >= 0 (got %d)" ctx budget;
  (match opt ~ctx fields "from" dec_string ~default:"spanner" with
  | "spanner" -> ()
  | f -> fail "%s.from: unknown jitter target %S (want spanner)" ctx f);
  { budget }

let of_json j =
  let ctx = "scenario" in
  let keys =
    [ "name"; "seed"; "schedules"; "churn"; "adversary"; "epoch"; "track-phi" ]
  in
  let fields = obj ~ctx ~keys j in
  let name = opt ~ctx fields "name" dec_string ~default:"scenario" in
  let seed = opt ~ctx fields "seed" dec_int ~default:1 in
  let rules =
    opt ~ctx fields "schedules" dec_list ~default:[]
    |> List.mapi (fun i -> rule_of_json ~ctx:(Printf.sprintf "schedules[%d]" i))
  in
  let churn =
    opt ~ctx fields "churn" dec_list ~default:[]
    |> List.mapi (fun i -> churn_of_json ~ctx:(Printf.sprintf "churn[%d]" i))
  in
  let adversary =
    match List.assoc_opt "adversary" fields with
    | None | Some Json.Null -> None
    | Some j -> Some (adversary_of_json ~ctx:"adversary" j)
  in
  (* the observer steps its next probe round by epoch *)
  let epoch = opt ~ctx fields "epoch" (dec_round ~lo:1) ~default:default_epoch in
  let track_phi = opt ~ctx fields "track-phi" dec_bool ~default:false in
  { name; seed; rules; churn; adversary; epoch; track_phi }

let filter_to_json = function
  | All -> Json.Obj [ ("kind", Json.String "all") ]
  | Lat_ge l -> Json.Obj [ ("kind", Json.String "lat-ge"); ("latency", Json.Int l) ]
  | Lat_le l -> Json.Obj [ ("kind", Json.String "lat-le"); ("latency", Json.Int l) ]
  | Endpoint_mod { modulus; residue } ->
      Json.Obj
        [
          ("kind", Json.String "endpoint-mod");
          ("modulus", Json.Int modulus);
          ("residue", Json.Int residue);
        ]

let rule_to_json { schedule; filter } =
  let base =
    match schedule with
    | Linear { rate; cap } ->
        [
          ("kind", Json.String "linear");
          ("rate", Json.Float rate);
          ("cap", Json.Float cap);
        ]
    | Diurnal { amplitude; period; phase } ->
        [
          ("kind", Json.String "diurnal");
          ("amplitude", Json.Float amplitude);
          ("period", Json.Int period);
          ("phase", Json.Int phase);
        ]
    | Step { at; factor } ->
        [
          ("kind", Json.String "step");
          ("at", Json.Int at);
          ("factor", Json.Float factor);
        ]
    | Trace { multipliers; dilate } ->
        [
          ("kind", Json.String "trace");
          ( "multipliers",
            Json.List
              (Array.to_list multipliers |> List.map (fun m -> Json.Float m)) );
          ("dilate", Json.Int dilate);
        ]
  in
  Json.Obj (base @ [ ("filter", filter_to_json filter) ])

let churn_to_json = function
  | Leave { node; leave; rejoin } ->
      Json.Obj
        ([ ("node", Json.Int node); ("leave", Json.Int leave) ]
        @ match rejoin with None -> [] | Some r -> [ ("rejoin", Json.Int r) ])
  | Random_churn { fraction; leave; down; period } ->
      Json.Obj
        [
          ("kind", Json.String "random");
          ("fraction", Json.Float fraction);
          ("leave", Json.Int leave);
          ("down", Json.Int down);
          ("period", Json.Int period);
        ]

let to_json s =
  Json.Obj
    ([
       ("name", Json.String s.name);
       ("seed", Json.Int s.seed);
       ("schedules", Json.List (List.map rule_to_json s.rules));
       ("churn", Json.List (List.map churn_to_json s.churn));
     ]
    @ (match s.adversary with
      | None -> []
      | Some { budget } ->
          [
            ( "adversary",
              Json.Obj
                [ ("budget", Json.Int budget); ("from", Json.String "spanner") ]
            );
          ])
    @ [ ("epoch", Json.Int s.epoch); ("track-phi", Json.Bool s.track_phi) ])

let of_string s =
  match Json.of_string s with
  | Ok j -> of_json j
  | Error e -> fail "scenario: bad JSON: %s" e

let load path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error e -> fail "scenario: cannot read %s: %s" path e
  in
  of_string contents

(* ------------------------------------------------------------------ *)
(* Compilation: resolve the declarative plan against a concrete graph
   into an environment — churn as absence intervals, drift and
   adversary as a pure latency map.  Everything the map captures is
   immutable after this point (float arrays, a frozen hash table),
   which is what makes it safe to evaluate from any domain under
   [?domains]. *)

(* splitmix64 finalizer — the deterministic hash behind per-edge trace
   offsets and per-(edge, round) adversary jitter. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let[@inline] hash3 seed a b =
  let open Int64 in
  let z = mix64 (add (of_int seed) (mul (of_int (a + 1)) 0x9e3779b97f4a7c15L)) in
  let z = mix64 (add z (mul (of_int (b + 1)) 0xc2b2ae3d27d4eb4fL)) in
  to_int (logand z 0x3fffffffffffffffL)

let[@inline] hash4 seed a b c =
  let open Int64 in
  let z = mix64 (add (of_int (hash3 seed a b)) (mul (of_int (c + 1)) 0x9e3779b97f4a7c15L)) in
  to_int (logand z 0x3fffffffffffffffL)

let two_pi = 2.0 *. Float.pi

let matches filter ~u ~v ~latency =
  match filter with
  | All -> true
  | Lat_ge l -> latency >= l
  | Lat_le l -> latency <= l
  | Endpoint_mod { modulus; residue } -> min u v mod modulus = residue

let[@inline] rule_factor ~seed idx { schedule; filter } ~u ~v ~latency ~round =
  if not (matches filter ~u ~v ~latency) then 1.0
  else
    match schedule with
    | Linear { rate; cap } ->
        Float.min cap (1.0 +. (rate *. float_of_int round))
    | Diurnal { amplitude; period; phase } ->
        1.0
        +. amplitude
           *. (1.0
              +. sin (two_pi *. float_of_int (round + phase) /. float_of_int period))
           /. 2.0
    | Step { at; factor } -> if round >= at then factor else 1.0
    | Trace { multipliers; dilate } ->
        let len = Array.length multipliers in
        let off = hash3 (seed + idx) (min u v) (max u v) mod len in
        multipliers.(((round / dilate) + off) mod len)

let rule_max_factor { schedule; filter = _ } =
  match schedule with
  | Linear { cap; _ } -> cap
  | Diurnal { amplitude; _ } -> 1.0 +. amplitude
  | Step { factor; _ } -> Float.max 1.0 factor
  | Trace { multipliers; _ } ->
      Array.fold_left Float.max 1.0 multipliers

type compiled = {
  scenario : t;
  env : Gossip_scale.Wheel_engine.env;
  wheel_latency : int;
}

(* The churn plan as absence intervals [(leave, node, back)]: the node
   is away during rounds [leave .. back - 1] and rejoins with amnesia at
   [back] ([Presence.never]: it stays away). *)
let churn_intervals s ~n ~source =
  let intervals = ref [] in
  let add ~ctx node leave back =
    if node < 0 || node >= n then
      fail "%s: node %d out of range for an n=%d graph" ctx node n;
    if node = source then
      fail
        "%s: plan churns the broadcast source (node %d); a run whose source \
         leaves is undefined"
        ctx node;
    intervals := (leave, node, back) :: !intervals
  in
  List.iteri
    (fun i entry ->
      let ctx = Printf.sprintf "scenario.churn[%d]" i in
      match entry with
      | Leave { node; leave; rejoin } ->
          add ~ctx node leave (Option.value rejoin ~default:Gossip_scale.Presence.never)
      | Random_churn { fraction; leave; down; period } ->
          (* Round to nearest: truncation compiles small fractions on
             small graphs to zero churn, silently disabling the entry. *)
          let count = min n (int_of_float (Float.round (fraction *. float_of_int n))) in
          if fraction > 0.0 && count = 0 then
            fail
              "%s: fraction %g of an n=%d graph rounds to zero churned nodes — raise \
               the fraction or drop the entry"
              ctx fraction n;
          if count > 0 then begin
            let rng = Rng.of_int (s.seed + (7919 * (i + 1))) in
            Rng.sample_without_replacement rng count n
            |> Array.iteri (fun j node ->
                   if node <> source then
                     let l = leave + (j mod period) in
                     intervals := (l, node, l + down) :: !intervals)
          end)
    s.churn;
  Array.of_list !intervals

let compile ?oriented s ~csr ~source =
  let n = Gossip_scale.Csr.n csr in
  let absences = churn_intervals s ~n ~source in
  let rules = Array.of_list s.rules in
  let seed = s.seed in
  let adv =
    match s.adversary with
    | None -> None
    | Some { budget } -> (
        match oriented with
        | None ->
            fail
              "scenario.adversary: targets spanner edges but no spanner \
               orientation was provided (adversarial scenarios need a spanner \
               protocol)"
        | Some o ->
            let edges = Hashtbl.create 1024 in
            for u = 0 to Gossip_scale.Csr.oriented_n o - 1 do
              Gossip_scale.Csr.oriented_iter_out o u (fun v _ ->
                  Hashtbl.replace edges ((min u v * n) + max u v) ())
            done;
            Some (edges, budget))
  in
  let budget = match s.adversary with None -> 0 | Some { budget } -> budget in
  let stretch ~u ~v ~latency ~round =
    let f = ref 1.0 in
    for i = 0 to Array.length rules - 1 do
      f := !f *. rule_factor ~seed i rules.(i) ~u ~v ~latency ~round
    done;
    if !f = 1.0 then latency
    else
      let l = int_of_float (Float.round (float_of_int latency *. !f)) in
      if l < 1 then 1 else l
  in
  (* Only the hooks the plan uses: scenarios never drop, and without
     rules or a jittering adversary every latency is the static one.
     A map reads the endpoints only through an [Endpoint_mod] filter, a
     [Trace] schedule's per-edge offset, or the adversary's jitter;
     without them it is one factor per (base latency, round), which
     the engine asks once per class instead of once per exchange. *)
  let by_edge =
    budget > 0
    || Array.exists
         (fun { schedule; filter } ->
           (match filter with Endpoint_mod _ -> true | All | Lat_ge _ | Lat_le _ -> false)
           || match schedule with Trace _ -> true | Linear _ | Diurnal _ | Step _ -> false)
         rules
  in
  let latency : Gossip_scale.Wheel_engine.latency option =
    if rules = [||] && budget = 0 then None
    else if not by_edge then
      (* no rule reads [u] or [v] here *)
      Some (By_class (fun ~latency ~round -> stretch ~u:0 ~v:0 ~latency ~round))
    else
      Some
        (By_edge
           (fun ~u ~v ~latency ~round ->
             let stretched = stretch ~u ~v ~latency ~round in
             match adv with
             | Some (edges, budget)
               when budget > 0 && Hashtbl.mem edges ((min u v * n) + max u v) ->
                 stretched + (hash4 seed (min u v) (max u v) round mod (budget + 1))
             | _ -> stretched))
  in
  let env : Gossip_scale.Wheel_engine.env =
    {
      presence =
        (if absences = [||] then Gossip_scale.Presence.Always
         else Gossip_scale.Presence.absences absences);
      drop = None;
      latency;
    }
  in
  let lmax = Gossip_scale.Csr.max_latency csr in
  let max_factor =
    List.fold_left (fun acc r -> acc *. rule_max_factor r) 1.0 s.rules
  in
  (* Sized in floating point first: an int_of_float past the int range
     is undefined, and an overflowed bound would shrink the wheel. *)
  let bound = (float_of_int lmax *. max_factor) +. float_of_int budget in
  if not (bound <= float_of_int Gossip_scale.I32.max_value) then
    fail
      "scenario: latency bound %g (l_max %d x max factor %g + adversary budget %d) \
       exceeds the int32 latency range (%d)"
      bound lmax max_factor budget Gossip_scale.I32.max_value;
  let wheel_latency =
    max lmax (int_of_float (Float.ceil (float_of_int lmax *. max_factor))) + budget
  in
  { scenario = s; env; wheel_latency }

(* ------------------------------------------------------------------ *)
(* Live φ_ℓ / ℓ* tracking. *)

let max_epochs = 64
let max_probe_lats = 8

let subsample lats k =
  let n = List.length lats in
  if n <= k then lats
  else
    let a = Array.of_list lats in
    List.init k (fun i -> a.(i * (n - 1) / (k - 1))) |> List.sort_uniq compare

let probe c ~csr ~round =
  let g =
    Graph.map_latencies
      (fun u v l -> Gossip_scale.Wheel_engine.latency c.env ~u ~v ~latency:l ~round)
      (Gossip_scale.Csr.to_graph csr)
  in
  let lats = subsample (Graph.distinct_latencies g) max_probe_lats in
  List.fold_left
    (fun acc l ->
      (* 60 sweep iterations: probes ride on the round loop, so they
         trade accuracy for latency. *)
      let phi = Gossip_conductance.Spectral.phi_ell ~iterations:60 ~seed:c.scenario.seed g l in
      if phi > 0.0 then
        let bound = float_of_int l /. phi in
        match acc with
        | Some (_, _, best) when best <= bound -> acc
        | _ -> Some (l, phi, bound)
      else acc)
    None lats

let observer c ~csr ~telemetry =
  if not c.scenario.track_phi then fun ~round:_ ~informed:_ -> ()
  else begin
    let next = ref 0 in
    let k = ref 0 in
    fun ~round ~informed:_ ->
      if !k < max_epochs && round >= !next then begin
        (match probe c ~csr ~round with
        | Some (ell_star, phi, bound) ->
            let open Gossip_obs.Registry in
            set (gauge telemetry (Printf.sprintf "dyn.epoch.%d.ell_star" !k)) ell_star;
            set
              (gauge telemetry (Printf.sprintf "dyn.epoch.%d.phi_ell_ppm" !k))
              (int_of_float (phi *. 1e6));
            set
              (gauge telemetry (Printf.sprintf "dyn.epoch.%d.bound" !k))
              (int_of_float (Float.ceil bound))
        | None -> ());
        incr k;
        next := !next + c.scenario.epoch
      end
  end
