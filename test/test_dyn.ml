(* Tests for lib/dyn: scenario validation and JSON round-trips, the
   compiled environment's schedule/churn semantics, static scenarios'
   bit-identity with the plain engine, churn edge cases on the timing
   wheel, adversarial spanner jitter, the phi/ell* observer, and the
   braided-ring generator the e16 experiment runs on. *)

module Rng = Gossip_util.Rng
module Json = Gossip_util.Json
module Gen = Gossip_graph.Gen
module Engine = Gossip_sim.Engine
module Csr = Gossip_scale.Csr
module Kernel = Gossip_scale.Kernel
module Wheel = Gossip_scale.Wheel_engine
module Presence = Gossip_scale.Presence
module Registry = Gossip_obs.Registry
module Scenario = Gossip_dyn.Scenario

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Validation *)

let expect_invalid name s =
  match Scenario.of_string s with
  | _ -> Alcotest.failf "%s: malformed scenario accepted" name
  | exception Scenario.Invalid_scenario _ -> ()

let test_validation_rejects () =
  expect_invalid "bad json" "{ bad";
  expect_invalid "not an object" "[1, 2]";
  expect_invalid "unknown top field" {|{"nmae": "typo"}|};
  expect_invalid "unknown schedule kind" {|{"schedules": [{"kind": "quadratic"}]}|};
  expect_invalid "unknown filter kind"
    {|{"schedules": [{"kind": "step", "at": 1, "factor": 2, "filter": {"kind": "odd"}}]}|};
  expect_invalid "negative rate" {|{"schedules": [{"kind": "linear", "rate": -0.1, "cap": 2}]}|};
  expect_invalid "cap below one" {|{"schedules": [{"kind": "linear", "rate": 0.1, "cap": 0.5}]}|};
  expect_invalid "negative step time" {|{"schedules": [{"kind": "step", "at": -3, "factor": 2}]}|};
  expect_invalid "zero step factor" {|{"schedules": [{"kind": "step", "at": 3, "factor": 0}]}|};
  expect_invalid "empty trace" {|{"schedules": [{"kind": "trace", "multipliers": []}]}|};
  expect_invalid "negative leave" {|{"churn": [{"node": 2, "leave": -1}]}|};
  expect_invalid "rejoin before leave" {|{"churn": [{"node": 2, "leave": 5, "rejoin": 5}]}|};
  expect_invalid "fraction above one"
    {|{"churn": [{"kind": "random", "fraction": 1.5, "leave": 1, "down": 2}]}|};
  expect_invalid "unknown churn kind" {|{"churn": [{"kind": "byzantine"}]}|};
  expect_invalid "adversary aims elsewhere" {|{"adversary": {"budget": 2, "from": "everywhere"}}|};
  expect_invalid "negative budget" {|{"adversary": {"budget": -1}}|};
  expect_invalid "zero epoch" {|{"epoch": 0}|}

(* A round past the engine's round range, or a churn sum past it, is
   refused with the field's path: the sum used to wrap, so a churn entry
   with a huge [down] silently never rejoined (or never left). *)
let test_validation_round_range () =
  let expect_path name path s =
    match Scenario.of_string s with
    | _ -> Alcotest.failf "%s: out-of-range scenario accepted" name
    | exception Scenario.Invalid_scenario msg ->
        if not (String.starts_with ~prefix:(path ^ ": ") msg) then
          Alcotest.failf "%s: message %S does not name %s" name msg path
  in
  let big = "4611686018427387903" (* max_int *) in
  let random ?(period = 1) ~leave down =
    Printf.sprintf
      {|{"churn": [{"kind": "random", "fraction": 0.5, "leave": %s, "down": %s, "period": %d}]}|}
      leave down period
  in
  expect_path "down = max_int" "churn[0].down" (random ~leave:"1" big);
  expect_path "down = max_int - 3" "churn[0].down" (random ~leave:"1" "4611686018427387900");
  expect_path "leave + period - 1 + down past the range" "churn[0].down"
    (random ~period:100 ~leave:"2147483000" "600");
  expect_path "random leave" "churn[0].leave" (random ~leave:big "2");
  expect_path "leave" "churn[0].leave"
    (Printf.sprintf {|{"churn": [{"node": 2, "leave": %s}]}|} big);
  expect_path "rejoin" "churn[0].rejoin"
    (Printf.sprintf {|{"churn": [{"node": 2, "leave": 1, "rejoin": %s}]}|} big);
  expect_path "diurnal phase" "schedules[0].phase"
    (Printf.sprintf
       {|{"schedules": [{"kind": "diurnal", "amplitude": 1, "period": 8, "phase": %s}]}|} big);
  expect_path "step time" "schedules[0].at"
    (Printf.sprintf {|{"schedules": [{"kind": "step", "at": %s, "factor": 2}]}|} big);
  expect_path "trace dilation" "schedules[0].dilate"
    (Printf.sprintf {|{"schedules": [{"kind": "trace", "multipliers": [1, 2], "dilate": %s}]}|}
       big);
  expect_path "epoch" "scenario.epoch" (Printf.sprintf {|{"epoch": %s}|} big);
  (* The range itself is usable: the last churned node may rejoin at
     exactly the largest round. *)
  ignore (Scenario.of_string (random ~period:4 ~leave:"2147483000" "644"));
  ignore (Scenario.of_string {|{"churn": [{"node": 2, "leave": 1, "rejoin": 2147483647}]}|})

let test_compile_rejects () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:3 in
  let expect name s ~source =
    match Scenario.compile (Scenario.of_string s) ~csr ~source with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Scenario.Invalid_scenario _ -> ()
  in
  (* Churning the source is a typed error, never a hung broadcast. *)
  expect "source churn" {|{"churn": [{"node": 3, "leave": 2}]}|} ~source:3;
  expect "churn node out of range" {|{"churn": [{"node": 99, "leave": 2}]}|} ~source:0;
  (* An adversary needs a spanner orientation to aim at. *)
  expect "adversary without orientation" {|{"adversary": {"budget": 2}}|} ~source:0

(* A latency bound past the int32 range is refused before any
   int_of_float: an overflowed bound used to shrink the wheel (x1e300
   sped the "slowed" edges up) or die mid-run (x1e18). *)
let test_compile_rejects_out_of_range_bound () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:8 in
  let oriented = Csr.oriented_of_csr csr in
  let compile s = Scenario.compile ~oriented (Scenario.of_string s) ~csr ~source:0 in
  let expect name s =
    match compile s with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Scenario.Invalid_scenario _ -> ()
  in
  let step f = Printf.sprintf {|{"kind": "step", "at": 0, "factor": %s}|} f in
  expect "x1e300" (Printf.sprintf {|{"schedules": [%s]}|} (step "1e300"));
  expect "x1e18" (Printf.sprintf {|{"schedules": [%s]}|} (step "1e18"));
  expect "two x1e5" (Printf.sprintf {|{"schedules": [%s, %s]}|} (step "1e5") (step "1e5"));
  expect "budget 2^31" {|{"adversary": {"budget": 2147483648}}|};
  checki "x2 still compiles" 16
    (compile (Printf.sprintf {|{"schedules": [%s]}|} (step "2"))).Scenario.wheel_latency

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let filter_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Scenario.All;
      QCheck.Gen.map (fun l -> Scenario.Lat_ge l) (QCheck.Gen.int_range 1 9);
      QCheck.Gen.map (fun l -> Scenario.Lat_le l) (QCheck.Gen.int_range 1 9);
      QCheck.Gen.map2
        (fun modulus residue -> Scenario.Endpoint_mod { modulus; residue = residue mod modulus })
        (QCheck.Gen.int_range 1 7) (QCheck.Gen.int_range 0 6);
    ]

let schedule_gen =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun rate cap -> Scenario.Linear { rate; cap })
        (oneofl [ 0.0; 0.125; 0.5 ])
        (oneofl [ 1.0; 2.0; 4.0 ]);
      map2
        (fun amplitude (period, phase) -> Scenario.Diurnal { amplitude; period; phase })
        (oneofl [ 0.0; 0.5; 1.5 ])
        (pair (int_range 1 64) (int_range 0 8));
      map2 (fun at factor -> Scenario.Step { at; factor }) (int_range 0 50)
        (oneofl [ 0.5; 2.0; 3.0 ]);
      map2
        (fun ms dilate -> Scenario.Trace { multipliers = Array.of_list ms; dilate })
        (list_size (int_range 1 5) (oneofl [ 1.0; 1.5; 2.0 ]))
        (int_range 1 10);
    ]

let churn_gen =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun node (leave, rejoin) ->
          Scenario.Leave
            { node; leave; rejoin = Option.map (fun d -> leave + 1 + d) rejoin })
        (int_range 0 50)
        (pair (int_range 0 30) (opt (int_range 0 20)));
      map2
        (fun fraction (leave, (down, period)) -> Scenario.Random_churn { fraction; leave; down; period })
        (oneofl [ 0.0; 0.125; 0.5 ])
        (pair (int_range 0 30) (pair (int_range 1 20) (int_range 1 8)));
    ]

let scenario_gen =
  let open QCheck.Gen in
  let* name = oneofl [ "a"; "drift"; "x y" ] in
  let* seed = int_range 0 10_000 in
  let* rules =
    list_size (int_range 0 3)
      (map2 (fun schedule filter -> { Scenario.schedule; filter }) schedule_gen filter_gen)
  in
  let* churn = list_size (int_range 0 3) churn_gen in
  let* adversary = opt (map (fun budget -> { Scenario.budget }) (int_range 0 5)) in
  let* epoch = int_range 1 64 in
  let* track_phi = bool in
  return { Scenario.name; seed; rules; churn; adversary; epoch; track_phi }

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json s) = s" ~count:200
    (QCheck.make ~print:(fun s -> Json.to_string (Scenario.to_json s)) scenario_gen)
    (fun s -> Scenario.of_json (Scenario.to_json s) = s)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string through the printer" ~count:100
    (QCheck.make scenario_gen)
    (fun s -> Scenario.of_string (Json.to_string (Scenario.to_json s)) = s)

(* ------------------------------------------------------------------ *)
(* Compiled environment semantics *)

let test_static_is_trivial () =
  checkb "static is static" true (Scenario.is_static Scenario.static);
  checkb "drift is not" false
    (Scenario.is_static
       (Scenario.of_string {|{"schedules": [{"kind": "step", "at": 1, "factor": 2}]}|}));
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:5 in
  let c = Scenario.compile Scenario.static ~csr ~source:0 in
  let e = c.Scenario.env in
  checkb "no presence" true (e.Wheel.presence = Presence.Always);
  checkb "no hooks" true (e.Wheel.drop = None && e.Wheel.latency = None);
  checki "identity latency" 5 (Wheel.latency e ~u:0 ~v:4 ~latency:5 ~round:9);
  checkb "everyone alive" true (Wheel.alive e ~node:7 ~round:50);
  checkb "everyone present" true (Wheel.present_since e ~node:7 ~since:0 ~round:50);
  checki "wheel latency is just lmax" (Csr.max_latency csr) c.Scenario.wheel_latency

(* [compile] hands the engine a per-exchange map only when some part of
   the plan reads the edge's endpoints: an [Endpoint_mod] filter, a
   [Trace] schedule's per-edge offset, or a jittering adversary. *)
let test_latency_class () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:5 in
  let o = Csr.oriented_of_csr csr in
  let kind s =
    match (Scenario.compile ~oriented:o (Scenario.of_string s) ~csr ~source:0).Scenario.env.Wheel.latency with
    | None -> "none"
    | Some (Wheel.By_class _) -> "class"
    | Some (Wheel.By_edge _) -> "edge"
  in
  let rule sched filter =
    Printf.sprintf {|{"schedules": [{%s, "filter": %s}]}|} sched filter
  in
  let linear = {|"kind": "linear", "rate": 0.5, "cap": 3|}
  and diurnal = {|"kind": "diurnal", "amplitude": 1, "period": 8|}
  and step = {|"kind": "step", "at": 3, "factor": 2|}
  and trace = {|"kind": "trace", "multipliers": [1, 2]|} in
  let all = {|{"kind": "all"}|}
  and ge = {|{"kind": "lat-ge", "latency": 3}|}
  and le = {|{"kind": "lat-le", "latency": 3}|}
  and endpoint = {|{"kind": "endpoint-mod", "modulus": 3, "residue": 1}|} in
  Alcotest.(check string) "no rule, no adversary" "none" (kind "{}");
  Alcotest.(check string) "budget-0 adversary" "none" (kind {|{"adversary": {"budget": 0}}|});
  Alcotest.(check string) "jittering adversary" "edge" (kind {|{"adversary": {"budget": 2}}|});
  List.iter
    (fun (sname, sched) ->
      List.iter
        (fun (fname, filter) ->
          let want = if sname = "trace" || fname = "endpoint-mod" then "edge" else "class" in
          Alcotest.(check string) (sname ^ " / " ^ fname) want (kind (rule sched filter)))
        [ ("all", all); ("lat-ge", ge); ("lat-le", le); ("endpoint-mod", endpoint) ])
    [ ("linear", linear); ("diurnal", diurnal); ("step", step); ("trace", trace) ];
  Alcotest.(check string)
    "class rule plus a jittering adversary" "edge"
    (kind
       (Printf.sprintf {|{"schedules": [{%s}], "adversary": {"budget": 1}}|} linear));
  Alcotest.(check string)
    "class rule plus an endpoint rule" "edge"
    (kind
       (Printf.sprintf {|{"schedules": [{%s}, {%s, "filter": %s}]}|} linear step endpoint));
  (* A static fault plan's jitter may draw per call: it stays per edge. *)
  checkb "env_of_faults is per edge" true
    (match (Wheel.env_of_faults Engine.no_faults).Wheel.latency with
    | Some (Wheel.By_edge _) -> true
    | _ -> false)

let test_linear_drift_semantics () =
  let s =
    Scenario.of_string
      {|{"schedules": [{"kind": "linear", "rate": 0.5, "cap": 3,
                        "filter": {"kind": "lat-ge", "latency": 4}}]}|}
  in
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:6 in
  let c = Scenario.compile s ~csr ~source:0 in
  let lat round = Wheel.latency c.Scenario.env ~u:0 ~v:4 ~latency:6 ~round in
  checki "round 0 untouched" 6 (lat 0);
  checki "round 2 doubled" 12 (lat 2);
  checki "round 100 capped at 3x" 18 (lat 100);
  (* The filter spares clique edges entirely. *)
  checki "fast edge untouched" 1 (Wheel.latency c.Scenario.env ~u:0 ~v:1 ~latency:1 ~round:100);
  (* The wheel bound covers the worst stretched latency. *)
  checkb "wheel bound covers cap" true (c.Scenario.wheel_latency >= 18)

let test_diurnal_bounds () =
  let s =
    Scenario.of_string {|{"schedules": [{"kind": "diurnal", "amplitude": 1.0, "period": 16}]}|}
  in
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:8 in
  let c = Scenario.compile s ~csr ~source:0 in
  for round = 0 to 48 do
    let l = Wheel.latency c.Scenario.env ~u:0 ~v:4 ~latency:8 ~round in
    if l < 8 || l > 16 then Alcotest.failf "diurnal out of [8,16] at round %d: %d" round l
  done

let test_churn_intervals () =
  let s = Scenario.of_string {|{"churn": [{"node": 2, "leave": 3, "rejoin": 7}]}|} in
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:3 in
  let c = Scenario.compile s ~csr ~source:0 in
  let e = c.Scenario.env in
  checkb "has churn" true (Array.length (Presence.rejoins e.Wheel.presence) > 0);
  checkb "alive before" true (Wheel.alive e ~node:2 ~round:2);
  checkb "absent at leave" false (Wheel.alive e ~node:2 ~round:3);
  checkb "absent just before rejoin" false (Wheel.alive e ~node:2 ~round:6);
  checkb "back at rejoin" true (Wheel.alive e ~node:2 ~round:7);
  checkb "rejoin flagged once" true (Presence.rejoins e.Wheel.presence = [| (7, 2) |]);
  checkb "not flagged before" false (Array.mem (6, 2) (Presence.rejoins e.Wheel.presence));
  checkb "not flagged after" false (Array.mem (8, 2) (Presence.rejoins e.Wheel.presence));
  (* Presence over an interval: an exchange initiated before the leave
     cannot deliver to the node after it returns. *)
  checkb "present over [0,2]" true (Wheel.present_since e ~node:2 ~since:0 ~round:2);
  checkb "absence intersects [2,8]" false (Wheel.present_since e ~node:2 ~since:2 ~round:8);
  checkb "present over [7,20]" true (Wheel.present_since e ~node:2 ~since:7 ~round:20);
  (* Other nodes are untouched. *)
  checkb "others alive" true (Wheel.alive e ~node:5 ~round:4)

(* The compiled rejoin schedule: one (round, node) entry per finite
   rejoin, ascending, duplicates merged, forever-leaves absent — and,
   for seeded random churn, exactly the rounds at which a node comes
   back (absent the round before, alive at the round). *)
let test_rejoin_schedule () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:3 in
  let s =
    Scenario.of_string
      {|{"churn": [{"node": 2, "leave": 3, "rejoin": 7}, {"node": 2, "leave": 5, "rejoin": 7},
                   {"node": 1, "leave": 8, "rejoin": 9}, {"node": 3, "leave": 4}]}|}
  in
  let e = (Scenario.compile s ~csr ~source:0).Scenario.env in
  checkb "sorted, merged, finite only" true
    (Presence.rejoins e.Wheel.presence = [| (7, 2); (9, 1) |]);
  let s =
    Scenario.of_string
      {|{"seed": 3, "churn": [{"kind": "random", "fraction": 0.5, "leave": 1, "down": 4, "period": 3}]}|}
  in
  let e = (Scenario.compile s ~csr ~source:0).Scenario.env in
  let comebacks = ref [] in
  for round = 40 downto 1 do
    for node = 15 downto 0 do
      if Wheel.alive e ~node ~round && not (Wheel.alive e ~node ~round:(round - 1))
      then comebacks := (round, node) :: !comebacks
    done
  done;
  checkb "random churn rejoins" true (!comebacks <> []);
  checkb "schedule = comebacks" true
    (Array.to_list (Presence.rejoins e.Wheel.presence) = !comebacks)

(* An interval that ends before it starts, or one naming a node
   outside the graph, is refused before the run starts rather than
   silently skipped.  Intervals come in any order and may overlap on
   one node, duplicates included; the schedule sorts them and merges
   their rejoins. *)
let test_rejoin_schedule_validated () =
  let csr = Csr.ring_of_cliques ~cliques:3 ~size:4 ~bridge_latency:3 in
  let run intervals =
    Wheel.broadcast_kernel
      ~env:{ Wheel.presence = Presence.absences intervals; drop = None; latency = None }
      (Rng.of_int 1) csr ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:100
  in
  List.iter
    (fun (label, intervals) ->
      match run intervals with
      | _ -> Alcotest.failf "%s schedule accepted" label
      | exception Invalid_argument _ -> ())
    [ ("empty interval", [| (3, 1, 3) |]); ("out-of-range node", [| (1, 12, 3) |]) ];
  let ok = [| (2, 1, 5); (1, 1, 3); (1, 1, 3); (1, 2, 3) |] in
  checkb "rejoins merged" true
    (Presence.rejoins (Presence.absences ok) = [| (3, 1); (3, 2); (5, 1) |]);
  checkb "any order runs" true ((run ok).Wheel.rounds <> None)

let test_random_churn_spares_source () =
  let s =
    Scenario.of_string
      {|{"seed": 9, "churn": [{"kind": "random", "fraction": 0.5, "leave": 1, "down": 4, "period": 3}]}|}
  in
  let csr = Csr.ring_of_cliques ~cliques:5 ~size:4 ~bridge_latency:3 in
  let source = 11 in
  let c = Scenario.compile s ~csr ~source in
  let e = c.Scenario.env in
  for round = 0 to 40 do
    checkb "source never leaves" true (Wheel.alive e ~node:source ~round)
  done;
  (* fraction 0.5 of 20 nodes: someone is actually absent at some point. *)
  let absences = ref 0 in
  for node = 0 to 19 do
    for round = 0 to 40 do
      if not (Wheel.alive e ~node ~round) then incr absences
    done
  done;
  checkb "churn actually happens" true (!absences > 0);
  (* Same scenario, same graph: the sample is deterministic. *)
  let c2 = Scenario.compile s ~csr ~source in
  for node = 0 to 19 do
    for round = 0 to 40 do
      checkb "deterministic sample" (Wheel.alive e ~node ~round)
        (Wheel.alive c2.Scenario.env ~node ~round)
    done
  done

let test_random_churn_rounds_to_nearest () =
  (* fraction 0.15 of 10 nodes is 1.5: truncation churned 1 node,
     rounding churns 2 — the regression test for the truncation bug. *)
  let s =
    Scenario.of_string
      {|{"seed": 4, "churn": [{"kind": "random", "fraction": 0.15, "leave": 0, "down": 100, "period": 1}]}|}
  in
  let csr = Csr.of_graph (Gen.cycle 10) in
  let c = Scenario.compile s ~csr ~source:0 in
  let absent = ref 0 in
  for node = 0 to 9 do
    if not (Wheel.alive c.Scenario.env ~node ~round:1) then incr absent
  done;
  checki "1.5 churned nodes round to 2" 2 !absent

let test_random_churn_zero_count_rejected () =
  (* A positive fraction that rounds to zero churned nodes would
     silently disable the entry; compile refuses instead. *)
  let s =
    Scenario.of_string
      {|{"churn": [{"kind": "random", "fraction": 0.04, "leave": 1, "down": 2}]}|}
  in
  let csr = Csr.of_graph (Gen.cycle 10) in
  (match Scenario.compile s ~csr ~source:0 with
  | _ -> Alcotest.fail "zero-count churn entry accepted"
  | exception Scenario.Invalid_scenario msg ->
      checkb "message names the entry" true
        (String.length msg > 0 && String.sub msg 0 17 = "scenario.churn[0]"));
  (* fraction exactly 0 stays a valid no-op. *)
  let s0 =
    Scenario.of_string
      {|{"churn": [{"kind": "random", "fraction": 0.0, "leave": 1, "down": 2}]}|}
  in
  ignore (Scenario.compile s0 ~csr ~source:0)

(* ------------------------------------------------------------------ *)
(* Static scenarios are bit-identical to the plain engine *)

let check_same label (a : Wheel.result) (b : Wheel.result) =
  Alcotest.check (Alcotest.option Alcotest.int) (label ^ " rounds") a.Wheel.rounds b.Wheel.rounds;
  checkb (label ^ " history") true (a.Wheel.history = b.Wheel.history);
  checkb (label ^ " metrics") true (a.Wheel.metrics = b.Wheel.metrics);
  checkb (label ^ " informed") true (Bytes.equal a.Wheel.informed b.Wheel.informed)

let test_static_bit_identity () =
  let csr = Csr.ring_of_cliques ~cliques:5 ~size:6 ~bridge_latency:5 in
  let c = Scenario.compile Scenario.static ~csr ~source:3 in
  List.iter
    (fun make ->
      let name = Kernel.name (make csr) in
      let run ?env ?wheel_latency d =
        Wheel.broadcast_kernel ?env ?wheel_latency ~domains:d (Rng.of_int 11) csr
          ~kernel:(make csr) ~source:3 ~max_rounds:100_000
      in
      (* Trivial env vs no env, sequential and sharded. *)
      check_same (name ^ " seq") (run 1)
        (run ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency 1);
      check_same (name ^ " sharded") (run 1)
        (run ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency 3))
    [ Kernel.push_pull; Kernel.flood; Kernel.random_contact ]

(* ------------------------------------------------------------------ *)
(* Churn on the wheel *)

(* A response can be in flight to a node that leaves and rejoins before
   it lands: the delivery must be suppressed (the initiation predates
   the rejoin), the run must still complete, and the rejoined node must
   be re-informed by a post-rejoin exchange. *)
let test_rejoin_while_response_on_wheel () =
  let g = Gen.with_latencies (Rng.of_int 1) (Gen.Fixed 5) (Gen.path 2) in
  let csr = Csr.of_graph g in
  let s = Scenario.of_string {|{"churn": [{"node": 1, "leave": 2, "rejoin": 3}]}|} in
  let c = Scenario.compile s ~csr ~source:0 in
  let run ?env ?wheel_latency () =
    Wheel.broadcast_kernel ?env ?wheel_latency (Rng.of_int 4) csr ~kernel:(Kernel.push_pull csr)
      ~source:0 ~max_rounds:1_000
  in
  let base = run () in
  let churned = run ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency () in
  (match (base.Wheel.rounds, churned.Wheel.rounds) with
  | Some b, Some ch ->
      checkb "blip slows the broadcast" true (ch > b);
      checkb "still informs everyone" true (Bytes.get churned.Wheel.informed 1 <> '\000')
  | _ -> Alcotest.fail "a two-node broadcast must complete");
  checkb "suppressed delivery counted" true (churned.Wheel.metrics.Engine.dropped > 0);
  (* Sequential and sharded agree on the churned trajectory too. *)
  let sharded =
    Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
      ~domains:2 (Rng.of_int 4) csr ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:1_000
  in
  check_same "churned parity" churned sharded

let test_permanent_leave_darkens_node () =
  let csr = Csr.ring_of_cliques ~cliques:4 ~size:4 ~bridge_latency:2 in
  let s = Scenario.of_string {|{"churn": [{"node": 9, "leave": 0}]}|} in
  let c = Scenario.compile s ~csr ~source:0 in
  let r =
    Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency
      (Rng.of_int 2) csr ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:500
  in
  checkb "capped, not hung" true (r.Wheel.rounds = None);
  checki "the leaver stays dark" 0 (Char.code (Bytes.get r.Wheel.informed 9))

(* ------------------------------------------------------------------ *)
(* Adversarial spanner jitter *)

let test_adversary_on_spanner () =
  let csr = Csr.ring_of_cliques ~cliques:5 ~size:5 ~bridge_latency:4 in
  let spanner =
    Gossip_core.Spanner.build (Rng.of_int 29) (Csr.to_graph csr) ~k:3 ~n_hat:(Csr.n csr) ()
  in
  let oriented = Csr.of_oriented_spanner spanner.Gossip_core.Spanner.out_edges in
  let s = Scenario.of_string {|{"seed": 5, "adversary": {"budget": 3}}|} in
  let c = Scenario.compile ~oriented s ~csr ~source:0 in
  checkb "budget widens the wheel" true (c.Scenario.wheel_latency >= Csr.max_latency csr + 3);
  (* Jitter is additive, bounded by the budget, and only on spanner edges. *)
  let e = c.Scenario.env in
  let saw_jitter = ref false in
  for u = 0 to Csr.n csr - 1 do
    Csr.oriented_iter_out oriented u (fun v latency ->
        for round = 0 to 20 do
          let l = Wheel.latency e ~u ~v ~latency ~round in
          if l < latency || l > latency + 3 then
            Alcotest.failf "jitter out of budget on (%d,%d) at %d: %d" u v round l;
          if l > latency then saw_jitter := true
        done)
  done;
  checkb "adversary actually jitters" true !saw_jitter;
  (* A non-spanner pair is untouched (clique edge absent from most rows). *)
  let untouched = ref 0 in
  for u = 0 to Csr.n csr - 1 do
    Csr.iter_neighbors csr u (fun v latency ->
        let on_spanner =
          let found = ref false in
          Csr.oriented_iter_out oriented u (fun w _ -> if w = v then found := true);
          Csr.oriented_iter_out oriented v (fun w _ -> if w = u then found := true);
          !found
        in
        if (not on_spanner) && Wheel.latency e ~u ~v ~latency ~round:7 = latency then
          incr untouched)
  done;
  checkb "off-spanner edges untouched" true (!untouched > 0)

(* ------------------------------------------------------------------ *)
(* Observer *)

let test_observer_gauges () =
  let csr = Csr.braided_ring ~cliques:6 ~size:6 ~bridges:2 ~bridge_latency:6 in
  let s =
    Scenario.of_string
      {|{"epoch": 4, "track-phi": true,
         "schedules": [{"kind": "linear", "rate": 0.25, "cap": 2,
                        "filter": {"kind": "lat-ge", "latency": 6}}]}|}
  in
  let c = Scenario.compile s ~csr ~source:0 in
  let reg = Registry.create () in
  let on_round = Scenario.observer c ~csr ~telemetry:reg in
  let r =
    Wheel.broadcast_kernel ~env:c.Scenario.env ~wheel_latency:c.Scenario.wheel_latency ~on_round
      (Rng.of_int 7) csr ~kernel:(Kernel.push_pull csr) ~source:0 ~max_rounds:10_000
  in
  checkb "completes" true (r.Wheel.rounds <> None);
  let value name = Registry.gauge_value (Registry.gauge reg name) in
  checkb "epoch 0 ell*" true (value "dyn.epoch.0.ell_star" >= 1);
  checkb "epoch 0 phi" true (value "dyn.epoch.0.phi_ell_ppm" > 0);
  checkb "epoch 0 bound" true (value "dyn.epoch.0.bound" >= 1);
  (* track_phi off: the observer is a no-op. *)
  let s_off = { s with Scenario.track_phi = false } in
  let c_off = Scenario.compile s_off ~csr ~source:0 in
  let reg_off = Registry.create () in
  let on_round = Scenario.observer c_off ~csr ~telemetry:reg_off in
  on_round ~round:0 ~informed:1;
  checki "no gauges without track-phi" 0 (List.length (Registry.gauges reg_off))

(* ------------------------------------------------------------------ *)
(* Braided ring *)

let test_braided_ring_structure () =
  let cliques = 5 and size = 6 and bridges = 3 and bridge_latency = 7 in
  let t = Csr.braided_ring ~cliques ~size ~bridges ~bridge_latency in
  checki "n" (cliques * size) (Csr.n t);
  checkb "connected" true (Csr.is_connected t);
  checki "max latency" bridge_latency (Csr.max_latency t);
  (* Bridge nodes carry two extra edges, the rest are clique-only. *)
  for c = 0 to cliques - 1 do
    for j = 0 to size - 1 do
      let expected = (size - 1) + if j < bridges then 2 else 0 in
      checki (Printf.sprintf "degree of node %d" ((c * size) + j)) expected
        (Csr.degree t ((c * size) + j))
    done
  done;
  (* The backbone (bridge 0) is strictly faster than the other bridges. *)
  let backbone = Csr.latency t 0 size and braid = Csr.latency t 1 (size + 1) in
  checkb "backbone faster" true (backbone = Some (bridge_latency - 1));
  checkb "braid at full latency" true (braid = Some bridge_latency);
  match Csr.braided_ring ~cliques:2 ~size:4 ~bridges:1 ~bridge_latency:3 with
  | _ -> Alcotest.fail "cliques = 2 accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "gossip_dyn"
    [
      ( "validate",
        [
          Alcotest.test_case "malformed scenarios rejected" `Quick test_validation_rejects;
          Alcotest.test_case "rounds within the engine's range" `Quick
            test_validation_round_range;
          Alcotest.test_case "compile-time rejections" `Quick test_compile_rejects;
          Alcotest.test_case "out-of-range latency bound" `Quick
            test_compile_rejects_out_of_range_bound;
        ] );
      ("json", [ qtest prop_json_roundtrip; qtest prop_string_roundtrip ]);
      ( "env",
        [
          Alcotest.test_case "static is trivial" `Quick test_static_is_trivial;
          Alcotest.test_case "linear drift" `Quick test_linear_drift_semantics;
          Alcotest.test_case "latency class" `Quick test_latency_class;
          Alcotest.test_case "diurnal bounds" `Quick test_diurnal_bounds;
          Alcotest.test_case "churn intervals" `Quick test_churn_intervals;
          Alcotest.test_case "rejoin schedule" `Quick test_rejoin_schedule;
          Alcotest.test_case "rejoin schedule validated" `Quick test_rejoin_schedule_validated;
          Alcotest.test_case "random churn spares source" `Quick test_random_churn_spares_source;
          Alcotest.test_case "random churn rounds" `Quick test_random_churn_rounds_to_nearest;
          Alcotest.test_case "zero-count churn rejected" `Quick
            test_random_churn_zero_count_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "static bit-identity" `Quick test_static_bit_identity;
          Alcotest.test_case "rejoin while response on wheel" `Quick
            test_rejoin_while_response_on_wheel;
          Alcotest.test_case "permanent leave" `Quick test_permanent_leave_darkens_node;
          Alcotest.test_case "adversary on spanner" `Quick test_adversary_on_spanner;
          Alcotest.test_case "observer gauges" `Quick test_observer_gauges;
        ] );
      ("braided-ring", [ Alcotest.test_case "structure" `Quick test_braided_ring_structure ]);
    ]
