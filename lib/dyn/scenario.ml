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

let non_negative_int ~ctx fields k ~default =
  let v = opt ~ctx fields k dec_int ~default in
  if v < 0 then fail "%s.%s: must be >= 0 (got %d)" ctx k v;
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
        let period = req ~ctx fields "period" dec_int in
        let phase = non_negative_int ~ctx fields "phase" ~default:0 in
        if amplitude < 0.0 then
          fail "%s.amplitude: must be >= 0 (got %g)" ctx amplitude;
        if period < 1 then fail "%s.period: must be >= 1 (got %d)" ctx period;
        Diurnal { amplitude; period; phase }
    | "step" ->
        let at = req ~ctx fields "at" dec_int in
        let factor = req ~ctx fields "factor" dec_float in
        if at < 0 then fail "%s.at: must be >= 0 (got %d)" ctx at;
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
        let dilate = opt ~ctx fields "dilate" dec_int ~default:1 in
        if dilate < 1 then fail "%s.dilate: must be >= 1 (got %d)" ctx dilate;
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
      let leave = req ~ctx fields "leave" dec_int in
      if node < 0 then fail "%s.node: must be >= 0 (got %d)" ctx node;
      if leave < 0 then fail "%s.leave: must be >= 0 (got %d)" ctx leave;
      let rejoin =
        match List.assoc_opt "rejoin" fields with
        | None | Some Json.Null -> None
        | Some j ->
            let r = dec_int ~ctx:(ctx ^ ".rejoin") j in
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
      let leave = req ~ctx fields "leave" dec_int in
      let down = req ~ctx fields "down" dec_int in
      let period = opt ~ctx fields "period" dec_int ~default:1 in
      if fraction < 0.0 || fraction > 1.0 then
        fail "%s.fraction: must be in [0, 1] (got %g)" ctx fraction;
      if leave < 0 then fail "%s.leave: must be >= 0 (got %d)" ctx leave;
      if down < 1 then fail "%s.down: must be >= 1 (got %d)" ctx down;
      if period < 1 then fail "%s.period: must be >= 1 (got %d)" ctx period;
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
  let epoch = opt ~ctx fields "epoch" dec_int ~default:default_epoch in
  if epoch < 1 then fail "%s.epoch: must be >= 1 (got %d)" ctx epoch;
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
   into pure closures.  Everything the closures capture is immutable
   after this point (int arrays, a frozen hash table), which is what
   makes them safe to evaluate from any domain under [?domains]. *)

(* splitmix64 finalizer — the deterministic hash behind per-edge trace
   offsets and per-(edge, round) adversary jitter. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash3 seed a b =
  let open Int64 in
  let z = mix64 (add (of_int seed) (mul (of_int (a + 1)) 0x9e3779b97f4a7c15L)) in
  let z = mix64 (add z (mul (of_int (b + 1)) 0xc2b2ae3d27d4eb4fL)) in
  to_int (logand z 0x3fffffffffffffffL)

let hash4 seed a b c =
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

let rule_factor ~seed idx { schedule; filter } ~u ~v ~latency ~round =
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
  epoch : int;
}

(* Absence intervals per node: [(leave, stop)] means the node is away
   during rounds [leave .. stop - 1]; [stop = max_int] means forever.
   A node that was away at any point of [since .. round] missed every
   exchange initiated toward its previous incarnation. *)
let churn_intervals s ~n ~source =
  let intervals = Array.make n [] in
  let add ~ctx node leave stop =
    if node < 0 || node >= n then
      fail "%s: node %d out of range for an n=%d graph" ctx node n;
    if node = source then
      fail
        "%s: plan churns the broadcast source (node %d); a run whose source \
         leaves is undefined"
        ctx node;
    intervals.(node) <- (leave, stop) :: intervals.(node)
  in
  List.iteri
    (fun i entry ->
      let ctx = Printf.sprintf "scenario.churn[%d]" i in
      match entry with
      | Leave { node; leave; rejoin } ->
          add ~ctx node leave (Option.value rejoin ~default:max_int)
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
                     intervals.(node) <- (l, l + down) :: intervals.(node))
          end)
    s.churn;
  Array.iteri (fun v l -> intervals.(v) <- List.rev l) intervals;
  intervals

let compile ?oriented s ~csr ~source =
  let n = Gossip_scale.Csr.n csr in
  let intervals = churn_intervals s ~n ~source in
  (* The amnesia points as a schedule: one (round, node) entry per
     finite rejoin, sorted, duplicates merged, so a round costs the
     engine only the rejoins it holds. *)
  let rejoins =
    Array.to_list intervals
    |> List.mapi (fun v l ->
           List.filter_map (fun (_, r) -> if r = max_int then None else Some (r, v)) l)
    |> List.concat |> List.sort_uniq compare |> Array.of_list
  in
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
  let env_alive ~node ~round =
    List.for_all (fun (l, r) -> round < l || round >= r) intervals.(node)
  in
  let env_present_since ~node ~since ~round =
    List.for_all (fun (l, r) -> l > round || r <= since) intervals.(node)
  in
  let env_latency ~u ~v ~latency ~round =
    let f = ref 1.0 in
    for i = 0 to Array.length rules - 1 do
      f := !f *. rule_factor ~seed i rules.(i) ~u ~v ~latency ~round
    done;
    let stretched =
      if !f = 1.0 then latency
      else max 1 (int_of_float (Float.round (float_of_int latency *. !f)))
    in
    match adv with
    | Some (edges, budget)
      when budget > 0 && Hashtbl.mem edges ((min u v * n) + max u v) ->
        stretched + (hash4 seed (min u v) (max u v) round mod (budget + 1))
    | _ -> stretched
  in
  let env : Gossip_scale.Wheel_engine.env =
    {
      env_alive;
      env_present_since;
      env_drop = (fun ~initiator:_ ~responder:_ ~round:_ -> false);
      env_latency;
      env_rejoins = rejoins;
    }
  in
  let lmax = Gossip_scale.Csr.max_latency csr in
  let max_factor =
    List.fold_left (fun acc r -> acc *. rule_max_factor r) 1.0 s.rules
  in
  let budget = match s.adversary with None -> 0 | Some { budget } -> budget in
  let wheel_latency =
    max lmax (int_of_float (Float.ceil (float_of_int lmax *. max_factor))) + budget
  in
  { scenario = s; env; wheel_latency; epoch = s.epoch }

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

let probe ?(iterations = 60) c ~csr ~round =
  let g =
    Graph.map_latencies
      (fun u v l -> c.env.Gossip_scale.Wheel_engine.env_latency ~u ~v ~latency:l ~round)
      (Gossip_scale.Csr.to_graph csr)
  in
  let lats = subsample (Graph.distinct_latencies g) max_probe_lats in
  List.fold_left
    (fun acc l ->
      let phi =
        Gossip_conductance.Spectral.phi_ell ~iterations ~seed:c.scenario.seed g l
      in
      if phi > 0.0 then
        let bound = float_of_int l /. phi in
        match acc with
        | Some (_, _, best) when best <= bound -> acc
        | _ -> Some (l, phi, bound)
      else acc)
    None lats

let observer ?iterations c ~csr ~telemetry =
  if not c.scenario.track_phi then fun ~round:_ ~informed:_ -> ()
  else begin
    let next = ref 0 in
    let k = ref 0 in
    fun ~round ~informed:_ ->
      if !k < max_epochs && round >= !next then begin
        (match probe ?iterations c ~csr ~round with
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
        next := !next + c.epoch
      end
  end
