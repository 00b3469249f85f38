module Csr = Gossip_scale.Csr
module Kernel = Gossip_scale.Kernel
module Wheel_engine = Gossip_scale.Wheel_engine
module Scenario = Gossip_dyn.Scenario
module Spanner = Gossip_core.Spanner
module Eid = Gossip_core.Eid
module Dissemination = Gossip_core.Dissemination
module Rng = Gossip_util.Rng
module Json = Gossip_util.Json
module Engine = Gossip_sim.Engine

exception Invalid_protocol of string

let () =
  Printexc.register_printer (function
    | Invalid_protocol msg -> Some ("Runner.Invalid_protocol: " ^ msg)
    | _ -> None)

type protocol =
  | Push_pull
  | Flood
  | Random_contact
  | Rr_spanner of { stretch_k : int }
  | Dtg_local of { ell : int }
  | Unknown_eid
  | Unified
  | K_rumor of { k : int; budget : int }
  | Rumor_rotation of { k : int; budget : int }
  | Algebraic of { k : int; budget : int }

(* Minimal printing keeps names injective on descriptors: a trailing
   auto parameter (0) is omitted, but an explicit budget forces the k
   field out too ("k-rumor:0:2" = auto k, budget 2). *)
let rumor_name base k budget =
  if budget = 0 then
    if k = 0 then base else Printf.sprintf "%s:%d" base k
  else Printf.sprintf "%s:%d:%d" base k budget

let protocol_name = function
  | Push_pull -> "push-pull"
  | Flood -> "flood"
  | Random_contact -> "random-contact"
  | Rr_spanner { stretch_k } ->
      if stretch_k = 0 then "rr-spanner" else Printf.sprintf "rr-spanner:%d" stretch_k
  | Dtg_local { ell } -> if ell = 0 then "dtg" else Printf.sprintf "dtg:%d" ell
  | Unknown_eid -> "unknown-eid"
  | Unified -> "unified"
  | K_rumor { k; budget } -> rumor_name "k-rumor" k budget
  | Rumor_rotation { k; budget } -> rumor_name "rotation" k budget
  | Algebraic { k; budget } -> rumor_name "algebraic" k budget

(* "name" or "name:K" with K >= 1; K absent encodes the auto value 0. *)
let parse_param s prefix make =
  let pl = String.length prefix and sl = String.length s in
  if sl >= pl && String.sub s 0 pl = prefix then
    if sl = pl then Some (make 0)
    else if s.[pl] = ':' then
      match int_of_string_opt (String.sub s (pl + 1) (sl - pl - 1)) with
      | Some v when v >= 1 -> Some (make v)
      | _ -> None
    else None
  else None

(* "name", "name:K", or "name:K:B" with K, B >= 0 (0 = auto). *)
let parse_param2 s prefix make =
  let pl = String.length prefix and sl = String.length s in
  if sl >= pl && String.sub s 0 pl = prefix then
    if sl = pl then Some (make 0 0)
    else if s.[pl] = ':' then
      match String.split_on_char ':' (String.sub s (pl + 1) (sl - pl - 1)) with
      | [ ks ] -> (
          match int_of_string_opt ks with
          | Some k when k >= 0 -> Some (make k 0)
          | _ -> None)
      | [ ks; bs ] -> (
          match (int_of_string_opt ks, int_of_string_opt bs) with
          | Some k, Some b when k >= 0 && b >= 0 -> Some (make k b)
          | _ -> None)
      | _ -> None
    else None
  else None

let protocol_of_string s =
  match s with
  | "push-pull" -> Some Push_pull
  | "flood" -> Some Flood
  | "random-contact" -> Some Random_contact
  | "unknown-eid" -> Some Unknown_eid
  | "unified" -> Some Unified
  | _ -> (
      let ( <|> ) a b = match a with Some _ -> a | None -> b () in
      parse_param s "rr-spanner" (fun k -> Rr_spanner { stretch_k = k })
      <|> fun () ->
      parse_param s "dtg" (fun l -> Dtg_local { ell = l })
      <|> fun () ->
      parse_param2 s "k-rumor" (fun k budget -> K_rumor { k; budget })
      <|> fun () ->
      parse_param2 s "rotation" (fun k budget -> Rumor_rotation { k; budget })
      <|> fun () -> parse_param2 s "algebraic" (fun k budget -> Algebraic { k; budget }))

let known_protocols =
  [
    "push-pull";
    "flood";
    "random-contact";
    "rr-spanner[:K]";
    "dtg[:L]";
    "unknown-eid";
    "unified";
    "k-rumor[:K[:B]]";
    "rotation[:K[:B]]";
    "algebraic[:K[:B]]";
  ]

type spanner = {
  k : int;
  edges : int;
  max_out_degree : int;
  out_degree_bound : int;
  build_s : float;
}

type chain = {
  k_final : int;
  unanimous : bool;
  attempts : Eid.unknown_attempt list;
}

type race = {
  winner : Dissemination.scale_winner;
  pushpull_rounds : int option;
  spanner_rounds : int;
  eid : chain;
}

type route =
  | Kernel_run
  | Spanner_run of spanner
  | Eid_chain of chain
  | Unified_race of race

type record = { rounds : int option; metrics : Wheel_engine.metrics; route : route }

type outcome = {
  name : string;
  record : record;
  history : (int * int) list;
  informed : Bytes.t;
}

(* Baswana–Sen on its own stream, so the build never perturbs the
   engine's draws. *)
let build_spanner csr ~stretch_k ~seed =
  let t0 = Unix.gettimeofday () in
  let n = Csr.n csr in
  let k = if stretch_k > 0 then stretch_k else Spanner.ceil_log2 n in
  let sp = Spanner.build (Rng.of_int (seed + 29)) (Csr.to_graph csr) ~k ~n_hat:n () in
  let out_degree_bound = Spanner.out_degree_bound ~n ~k in
  let oriented = Csr.of_oriented_spanner ~out_degree_bound sp.Spanner.out_edges in
  ( oriented,
    {
      k;
      edges = Csr.oriented_edge_count oriented;
      max_out_degree = Csr.oriented_max_out_degree oriented;
      out_degree_bound;
      build_s = Unix.gettimeofday () -. t0;
    } )

let invalid protocol fmt =
  Printf.ksprintf
    (fun msg -> raise (Invalid_protocol (protocol_name protocol ^ ": " ^ msg)))
    fmt

(* The auto parameters of the rumor-state descriptors (see the
   interface): a modest rumor count that still exercises multi-word
   budgets, and a 4-word message budget; algebraic's auto budget is the
   minimum that fits [k] coefficient bits.  An explicit count above n
   is refused here, before the kernel constructor sees it. *)
let rumor_k csr protocol k =
  let n = Csr.n csr in
  if k > n then invalid protocol "%d rumors on an n = %d graph (need k <= n)" k n;
  if k = 0 then min n 16 else k

let rumor_budget b = if b = 0 then 4 else b

let run ?scenario ?domains ?telemetry ?deadline ?on_round csr protocol ~seed ~source
    ~max_rounds =
  let rng = Rng.of_int (seed + 17) in
  let compile ?oriented () =
    Option.map (fun s -> Scenario.compile ?oriented s ~csr ~source) scenario
  in
  let env c = Option.map (fun c -> c.Scenario.env) c in
  let wheel c = Option.map (fun c -> c.Scenario.wheel_latency) c in
  (* A chain's rounds count only when every node ended informed. *)
  let chain name ~success ~rounds ~metrics ~informed route =
    let rounds = if success then Some rounds else None in
    { name; record = { rounds; metrics; route }; history = []; informed }
  in
  (* One engine run of a kernel already built — on [csr]'s rows, or on
     the spanner's [oriented] rows, which the scenario may then aim
     at. *)
  let kernel_run ?oriented route kernel =
    let c = compile ?oriented () in
    let on_round =
      match (telemetry, c) with
      | Some reg, Some c -> (
          let observe = Scenario.observer c ~csr ~telemetry:reg in
          match on_round with
          | None -> Some observe
          | Some f ->
              Some
                (fun ~round ~informed ->
                  observe ~round ~informed;
                  f ~round ~informed))
      | _ -> on_round
    in
    let r =
      Wheel_engine.broadcast_kernel ?env:(env c) ?wheel_latency:(wheel c) ?deadline ?on_round
        ?telemetry ?domains rng csr ~kernel ~source ~max_rounds
    in
    {
      name = Kernel.name kernel;
      record = { rounds = r.Wheel_engine.rounds; metrics = r.Wheel_engine.metrics; route };
      history = r.Wheel_engine.history;
      informed = r.Wheel_engine.informed;
    }
  in
  match protocol with
  | Push_pull -> kernel_run Kernel_run (Kernel.push_pull csr)
  | Flood -> kernel_run Kernel_run (Kernel.flood csr)
  | Random_contact -> kernel_run Kernel_run (Kernel.random_contact csr)
  | Dtg_local { ell } ->
      let ell = if ell = 0 then Csr.max_latency csr else ell in
      kernel_run Kernel_run (Kernel.dtg_local ~ell csr)
  | K_rumor { k; budget } ->
      let k = rumor_k csr protocol k in
      let r = Kernel.k_rumor_push_pull ~k ~budget:(rumor_budget budget) csr in
      kernel_run Kernel_run r.Kernel.rum_kernel
  | Rumor_rotation { k; budget } ->
      let k = rumor_k csr protocol k in
      let r = Kernel.rumor_rotation ~k ~budget:(rumor_budget budget) csr in
      kernel_run Kernel_run r.Kernel.rum_kernel
  | Algebraic { k; budget } ->
      let k = rumor_k csr protocol k in
      let words = (k + Kernel.coeff_bits - 1) / Kernel.coeff_bits in
      if budget <> 0 && budget < words then
        invalid protocol "budget %d cannot carry k = %d coefficients (need >= %d words)"
          budget k words;
      let a = Kernel.algebraic ~k ~budget:(if budget = 0 then words else budget) csr in
      kernel_run Kernel_run a.Kernel.alg_kernel
  | Rr_spanner { stretch_k } ->
      let oriented, sp = build_spanner csr ~stretch_k ~seed in
      kernel_run ~oriented (Spanner_run sp)
        (Kernel.rr_broadcast ~k:(Csr.oriented_max_latency oriented) oriented)
  | Unknown_eid ->
      let c = compile () in
      let r =
        Eid.run_unknown_scale ?env:(env c) ?wheel_latency:(wheel c) ?deadline ?on_round
          ?telemetry ?domains rng csr ~source ()
      in
      chain "unknown-eid" ~success:r.Eid.u_success ~rounds:r.Eid.u_rounds
        ~metrics:r.Eid.u_metrics ~informed:r.Eid.u_informed
        (Eid_chain
           {
             k_final = r.Eid.u_k_final;
             unanimous = r.Eid.u_unanimous;
             attempts = r.Eid.u_attempts;
           })
  | Unified ->
      let c = compile () in
      let r =
        Dissemination.broadcast_scale ?env:(env c) ?wheel_latency:(wheel c) ?deadline
          ?on_round ?telemetry ?domains rng csr ~source ~max_rounds ()
      in
      let module D = Dissemination in
      chain "unified" ~success:r.D.b_success ~rounds:r.D.b_rounds ~metrics:r.D.b_metrics
        ~informed:r.D.b_informed
        (Unified_race
           {
             winner = r.D.b_winner;
             pushpull_rounds = r.D.b_pushpull_rounds;
             spanner_rounds = r.D.b_spanner_rounds;
             eid =
               { k_final = r.D.b_k_final; unanimous = r.D.b_unanimous; attempts = r.D.b_attempts };
           })

(* ------------------------------------------------------------------ *)
(* The record's JSON codec *)

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let attempt_json (a : Eid.unknown_attempt) =
  let i k v = (k, Json.Int v) in
  Json.Obj
    [
      i "k" a.ua_k; i "discovery_rounds" a.ua_discovery_rounds;
      i "schedule_rounds" a.ua_schedule_rounds; i "rr_rounds" a.ua_rr_rounds;
      i "check_rounds" a.ua_check_rounds; i "edges_known" a.ua_edges_known;
      i "spanner_out_degree" a.ua_spanner_out_degree; i "spanner_edges" a.ua_spanner_edges;
      ("failed", Json.Bool a.ua_failed); ("unanimous", Json.Bool a.ua_unanimous);
    ]

let chain_fields c =
  [
    ("k_final", Json.Int c.k_final);
    ("unanimous", Json.Bool c.unanimous);
    ("attempts", Json.List (List.map attempt_json c.attempts));
  ]

let winners =
  [ ("push-pull", Dissemination.Scale_push_pull_won);
    ("spanner-route", Dissemination.Scale_spanner_route_won) ]

let route_fields = function
  | Kernel_run -> []
  | Spanner_run sp ->
      [
        ("kind", Json.String "spanner"); ("k", Json.Int sp.k); ("edges", Json.Int sp.edges);
        ("max_out_degree", Json.Int sp.max_out_degree);
        ("out_degree_bound", Json.Int sp.out_degree_bound); ("build_s", Json.Float sp.build_s);
      ]
  | Eid_chain c -> ("kind", Json.String "eid") :: chain_fields c
  | Unified_race r ->
      let winner = fst (List.find (fun (_, w) -> w = r.winner) winners) in
      [
        ("kind", Json.String "race"); ("winner", Json.String winner);
        ("pushpull_rounds", opt_int r.pushpull_rounds);
        ("spanner_rounds", Json.Int r.spanner_rounds);
      ]
      @ chain_fields r.eid

let record_fields ?(wall = []) r =
  let m = r.metrics in
  [
    ("rounds", opt_int r.rounds);
    ("initiations", Json.Int m.Engine.initiations);
    ("deliveries", Json.Int m.Engine.deliveries);
    ("payload_words", Json.Int m.Engine.payload_words);
    ("dropped", Json.Int m.Engine.dropped);
  ]
  @ wall
  @ [ ("rounds_executed", Json.Int m.Engine.rounds); ("rejected", Json.Int m.Engine.rejected) ]
  @ match route_fields r.route with [] -> [] | fs -> [ ("route", Json.Obj fs) ]

(* Typed field readers for [Json.decode]: each raises [Json.Missing]
   naming the field. *)
let int j k = Json.need k (Json.int_field j k)
let bool j k = Json.need k (Json.bool_field j k)

(* An int field that may be null (a capped round count). *)
let int_or_null j k = match Json.field j k with Some Json.Null -> None | _ -> Some (int j k)

let attempt_of_json j =
  let int = int j and bool = bool j in
  {
    Eid.ua_k = int "k"; ua_discovery_rounds = int "discovery_rounds";
    ua_schedule_rounds = int "schedule_rounds"; ua_rr_rounds = int "rr_rounds";
    ua_check_rounds = int "check_rounds"; ua_edges_known = int "edges_known";
    ua_spanner_out_degree = int "spanner_out_degree"; ua_spanner_edges = int "spanner_edges";
    ua_failed = bool "failed"; ua_unanimous = bool "unanimous";
  }

let chain_of_json j =
  {
    k_final = int j "k_final";
    unanimous = bool j "unanimous";
    attempts =
      (match Json.field j "attempts" with
      | Some (Json.List l) -> List.map attempt_of_json l
      | _ -> raise (Json.Missing "attempts"));
  }

(* The route [protocol] runs, read from a row's [route] object; a
   route that does not match the descriptor's route kind (kernel
   descriptors carry none) is malformed. *)
let route_of_json protocol route =
  let kind = Option.bind route (fun j -> Json.string_field j "kind") in
  match (protocol, route, kind) with
  | Rr_spanner _, Some j, Some "spanner" ->
      let int = int j in
      Spanner_run
        {
          k = int "k"; edges = int "edges"; max_out_degree = int "max_out_degree";
          out_degree_bound = int "out_degree_bound";
          build_s = Json.need "build_s" (Json.float_field j "build_s");
        }
  | Unknown_eid, Some j, Some "eid" -> Eid_chain (chain_of_json j)
  | Unified, Some j, Some "race" ->
      Unified_race
        {
          winner =
            Json.need "winner"
              (Option.bind (Json.string_field j "winner") (fun w -> List.assoc_opt w winners));
          pushpull_rounds = int_or_null j "pushpull_rounds";
          spanner_rounds = int j "spanner_rounds";
          eid = chain_of_json j;
        }
  | (Rr_spanner _ | Unknown_eid | Unified), _, _ | _, Some _, _ -> raise (Json.Missing "route")
  | _, None, _ -> Kernel_run

let record_of_json protocol j =
  let int = int j in
  Json.decode (fun () ->
      {
        rounds = int_or_null j "rounds";
        metrics =
          {
            Engine.rounds = int "rounds_executed"; initiations = int "initiations";
            deliveries = int "deliveries"; payload_words = int "payload_words";
            rejected = int "rejected"; dropped = int "dropped";
          };
        route = route_of_json protocol (Json.field j "route");
      })
  |> Result.to_option
