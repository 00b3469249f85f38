(* Unit and property tests for gossip_util: Rng, Stats, Bitset, Heap,
   Table. *)

module Rng = Gossip_util.Rng
module Stats = Gossip_util.Stats
module Bitset = Gossip_util.Bitset
module Heap = Gossip_util.Heap
module Table = Gossip_util.Table
module Json = Gossip_util.Json

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.of_int 12345 and b = Rng.of_int 12345 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.of_int 1 and b = Rng.of_int 2 in
  checkb "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.of_int 99 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_diverges () =
  let a = Rng.of_int 7 in
  let b = Rng.split a in
  checkb "split stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    checkb "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.of_int 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.of_int 4 in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 5 in
    checkb "in [-3,5]" true (v >= -3 && v <= 5)
  done

let test_rng_int_covers_range () =
  let rng = Rng.of_int 5 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Rng.int rng 4) <- true
  done;
  checkb "all residues seen" true (Array.for_all (fun b -> b) seen)

let test_rng_float_bounds () =
  let rng = Rng.of_int 6 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_mean_uniform () =
  let rng = Rng.of_int 8 in
  let sum = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum + Rng.int rng 100
  done;
  let mean = float_of_int !sum /. float_of_int trials in
  checkb "mean near 49.5" true (Float.abs (mean -. 49.5) < 2.0)

let test_rng_bernoulli_extremes () =
  let rng = Rng.of_int 9 in
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0);
    checkb "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.of_int 10 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  checkb "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_geometric_one () =
  let rng = Rng.of_int 11 in
  for _ = 1 to 50 do
    checki "p=1 gives 1" 1 (Rng.geometric rng 1.0)
  done

let test_rng_geometric_mean () =
  let rng = Rng.of_int 12 in
  let sum = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !sum /. float_of_int trials in
  checkb "mean near 4" true (Float.abs (mean -. 4.0) < 0.25)

let test_rng_geometric_tiny_p () =
  (* log(1-p) underflows to 0 for denormal-small p, and the division
     overflows to infinity for merely tiny p: both used to reach
     int_of_float undefined-behavior territory.  Hardened: the result
     saturates at max_int instead. *)
  let rng = Rng.of_int 16 in
  List.iter
    (fun p ->
      let v = Rng.geometric rng p in
      checkb (Printf.sprintf "p=%g in [1, max_int]" p) true (v >= 1 && v <= max_int))
    [ 1e-18; 1e-300; Float.min_float; 4.9e-324 ]

let prop_rng_geometric_bounds =
  QCheck.Test.make ~name:"geometric is finite and >= 1 for all p in (0,1]" ~count:500
    QCheck.(pair (int_range 0 10_000) (float_range 1e-9 1.0))
    (fun (seed, p) ->
      let p = if p <= 0.0 then 1e-9 else p in
      let v = Rng.geometric (Rng.of_int seed) p in
      v >= 1 && v <= max_int)

let test_rng_shuffle_permutes () =
  let rng = Rng.of_int 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_member () =
  let rng = Rng.of_int 14 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    checkb "pick is member" true (Array.exists (( = ) (Rng.pick rng a)) a)
  done

let test_rng_pick_empty () =
  let rng = Rng.of_int 15 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_rng_sample_without_replacement () =
  let rng = Rng.of_int 16 in
  let s = Rng.sample_without_replacement rng 10 30 in
  checki "length" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 0 to 8 do
    checkb "distinct" true (sorted.(i) <> sorted.(i + 1))
  done;
  Array.iter (fun v -> checkb "range" true (v >= 0 && v < 30)) s

let test_rng_sample_full () =
  let rng = Rng.of_int 17 in
  let s = Rng.sample_without_replacement rng 5 5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" [| 0; 1; 2; 3; 4 |] sorted

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int in range" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () = checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  checkf "variance" (35.0 /. 12.0) (Stats.variance [| 1.0; 2.0; 3.0; 5.0 |])

let test_stats_variance_small () =
  checkf "n<2 variance" 0.0 (Stats.variance [| 42.0 |])

let test_stats_stddev () = checkf "stddev" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] *. sqrt (7.0 /. 8.0))

let test_stats_percentile_endpoints () =
  let a = [| 5.0; 1.0; 3.0 |] in
  checkf "p0 is min" 1.0 (Stats.percentile a 0.0);
  checkf "p100 is max" 5.0 (Stats.percentile a 100.0)

let test_stats_percentile_interpolation () =
  checkf "p25 of 1..5" 2.0 (Stats.percentile [| 1.0; 2.0; 3.0; 4.0; 5.0 |] 25.0);
  checkf "p50 even" 2.5 (Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 50.0)

let test_stats_median_odd () = checkf "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_summarize () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  checki "n" 4 s.Stats.n;
  checkf "mean" 2.5 s.Stats.mean;
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 4.0 s.Stats.max

let test_stats_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_linear_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let f = Stats.linear_fit xs ys in
  checkf "slope" 2.0 f.Stats.slope;
  checkf "intercept" 1.0 f.Stats.intercept;
  checkf "r2" 1.0 f.Stats.r2

let test_stats_loglog_fit () =
  let xs = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 3.0 *. (x ** 1.5)) xs in
  let f = Stats.loglog_fit xs ys in
  checkb "exponent ~1.5" true (Float.abs (f.Stats.slope -. 1.5) < 1e-9)

let test_stats_loglog_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.loglog_fit: non-positive value") (fun () ->
      ignore (Stats.loglog_fit [| 0.0; 1.0 |] [| 1.0; 2.0 |]))

let test_stats_geometric_mean () =
  checkf "geomean" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |])

let test_stats_confidence () =
  let m, hw = Stats.mean_confidence95 [| 1.0; 2.0; 3.0 |] in
  checkf "mean" 2.0 m;
  checkb "halfwidth positive" true (hw > 0.0)

let prop_stats_percentile_bounded =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (a, p) ->
      QCheck.assume (Array.length a > 0);
      let v = Stats.percentile a p in
      let mn = Array.fold_left min a.(0) a and mx = Array.fold_left max a.(0) a in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let test_stats_percentile_single () =
  List.iter
    (fun p -> checkf (Printf.sprintf "p%.0f of singleton" p) 7.5 (Stats.percentile [| 7.5 |] p))
    [ 0.0; 25.0; 50.0; 75.0; 100.0 ]

let test_stats_percentile_two () =
  let a = [| 10.0; 20.0 |] in
  checkf "p0" 10.0 (Stats.percentile a 0.0);
  checkf "p25" 12.5 (Stats.percentile a 25.0);
  checkf "median" 15.0 (Stats.percentile a 50.0);
  checkf "p75" 17.5 (Stats.percentile a 75.0);
  checkf "p100" 20.0 (Stats.percentile a 100.0)

let test_stats_all_equal () =
  let a = Array.make 9 3.25 in
  let s = Stats.summarize a in
  checkf "mean" 3.25 s.Stats.mean;
  checkf "stddev" 0.0 s.Stats.stddev;
  checkf "p25" 3.25 s.Stats.p25;
  checkf "median" 3.25 s.Stats.median;
  checkf "p95" 3.25 s.Stats.p95

let test_stats_nan_rejected () =
  (* Regression: the old polymorphic-compare sort silently produced an
     unspecified order (and so a garbage percentile) when a NaN slipped
     into the sample; both entry points must reject it loudly. *)
  Alcotest.check_raises "percentile NaN"
    (Invalid_argument "Stats.percentile: NaN in sample") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0));
  Alcotest.check_raises "summarize NaN"
    (Invalid_argument "Stats.summarize: NaN in sample") (fun () ->
      ignore (Stats.summarize [| 2.0; Float.nan |]));
  (* Infinities are ordered fine and stay legal. *)
  checkf "inf is max" Float.infinity (Stats.percentile [| 1.0; Float.infinity |] 100.0)

let test_stats_summarize_matches_percentile () =
  (* summarize now sorts once and reads every quantile off that one
     sorted copy — each field must still equal the percentile API. *)
  let a = [| 9.0; 2.0; 7.0; 4.0; 6.0; 1.0; 8.0 |] in
  let s = Stats.summarize a in
  checkf "min" 1.0 s.Stats.min;
  checkf "p25" (Stats.percentile a 25.0) s.Stats.p25;
  checkf "median" (Stats.percentile a 50.0) s.Stats.median;
  checkf "p75" (Stats.percentile a 75.0) s.Stats.p75;
  checkf "p95" (Stats.percentile a 95.0) s.Stats.p95;
  checkf "max" 9.0 s.Stats.max

(* Independent oracle: sort, rank = p/100 * (n-1), interpolate between
   the two bracketing order statistics. *)
let naive_percentile a p =
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  b.(lo) +. (frac *. (b.(hi) -. b.(lo)))

let prop_stats_percentile_oracle =
  QCheck.Test.make ~name:"p25/median/p75 match sort-and-index oracle" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 60) (float_bound_exclusive 1000.0))
    (fun a ->
      QCheck.assume (Array.length a > 0);
      List.for_all
        (fun p -> Float.abs (Stats.percentile a p -. naive_percentile a p) < 1e-6)
        [ 25.0; 50.0; 75.0 ])

(* ------------------------------------------------------------------ *)
(* Json parser / round-trips (the emitter itself is covered in
   test_sweep) *)

let parse_ok s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse of %S failed: %s" s e

let check_roundtrip msg j = checkb msg true (parse_ok (Json.to_string j) = j)

let test_json_parse_scalars () =
  checkb "null" true (parse_ok "null" = Json.Null);
  checkb "true" true (parse_ok "true" = Json.Bool true);
  checkb "int" true (parse_ok "-42" = Json.Int (-42));
  checkb "float" true (parse_ok "0.5" = Json.Float 0.5);
  checkb "exponent is float" true (parse_ok "1e2" = Json.Float 100.0);
  checkb "string" true (parse_ok {|"ab"|} = Json.String "ab")

let test_json_parse_errors () =
  let bad s = checkb (Printf.sprintf "%S rejected" s) true (Result.is_error (Json.of_string s)) in
  List.iter bad
    [ ""; "nul"; "[1,"; "{\"a\":}"; "\"unterminated"; "1 2"; "[1] garbage"; "{\"a\" 1}"; "+5" ]

let test_json_number_grammar () =
  (* Regression: the old lexer accepted any [0-9.eE+-]* soup and let
     float_of_string sort it out, so non-RFC-8259 numbers like "0123"
     or "1." parsed.  The grammar is now strict. *)
  let bad s =
    checkb (Printf.sprintf "%S rejected" s) true (Result.is_error (Json.of_string s))
  in
  List.iter bad
    [ "0123"; "-01"; "00"; "1."; "3.e2"; ".5"; "1e"; "1e+"; "1E-"; "-"; "--1"; "1.2.3"; "1e2.5" ];
  checkb "zero" true (parse_ok "0" = Json.Int 0);
  checkb "negative zero" true (parse_ok "-0" = Json.Int 0);
  checkb "zero with fraction" true (parse_ok "0.25" = Json.Float 0.25);
  checkb "fraction" true (parse_ok "6.25e2" = Json.Float 625.0);
  checkb "capital exponent" true (parse_ok "1E-3" = Json.Float 0.001);
  checkb "signed exponent" true (parse_ok "2e+2" = Json.Float 200.0);
  checkb "exponent on integer part" true (parse_ok "5e1" = Json.Float 50.0)

let test_json_control_chars () =
  (* the emitter must escape every control character below 0x20 and the
     parser must decode them back *)
  let s = String.init 32 Char.chr in
  let rendered = Json.to_string (Json.String s) in
  String.iter
    (fun c -> checkb "no raw control char" true (Char.code c >= 0x20))
    rendered;
  check_roundtrip "all control chars round-trip" (Json.String s);
  check Alcotest.string "tab newline escapes" {|"\t\n"|} (Json.to_string (Json.String "\t\n"))

let test_json_unicode_escapes () =
  checkb "bmp escape" true (parse_ok {|"é"|} = Json.String "\xc3\xa9");
  checkb "surrogate pair" true (parse_ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  checkb "lone high surrogate rejected" true (Result.is_error (Json.of_string {|"\ud83d"|}))

let test_json_nonfinite_to_null () =
  checkb "nan" true (parse_ok (Json.to_string (Json.Float Float.nan)) = Json.Null);
  checkb "inf" true (parse_ok (Json.to_string (Json.Float Float.infinity)) = Json.Null);
  checkb "neg inf" true
    (parse_ok (Json.to_string (Json.Float Float.neg_infinity)) = Json.Null)

let test_json_deep_nesting () =
  let deep = ref (Json.Int 1) in
  for _ = 1 to 300 do
    deep := Json.List [ !deep ]
  done;
  check_roundtrip "300-deep list" !deep;
  let deep_obj = ref (Json.String "x") in
  for _ = 1 to 300 do
    deep_obj := Json.Obj [ ("k", !deep_obj) ]
  done;
  check_roundtrip "300-deep object" !deep_obj

(* The field accessors are total: a missing field, a field of another
   type, or a non-object is [None], never an exception; a float field
   also reads the [Int] the emitter writes for a whole float. *)
let test_json_field_accessors () =
  let j =
    parse_ok {|{"i":3,"f":0.5,"w":2.0,"s":"x","b":true,"n":null,"o":{"k":1}}|}
  in
  check (Alcotest.option Alcotest.int) "int" (Some 3) (Json.int_field j "i");
  check (Alcotest.option Alcotest.int) "int of a float" None (Json.int_field j "f");
  check (Alcotest.option (Alcotest.float 0.0)) "float" (Some 0.5) (Json.float_field j "f");
  check (Alcotest.option (Alcotest.float 0.0)) "whole float written as 2" (Some 2.0)
    (Json.float_field j "w");
  check (Alcotest.option (Alcotest.float 0.0)) "int read as float" (Some 3.0)
    (Json.float_field j "i");
  check (Alcotest.option Alcotest.string) "string" (Some "x") (Json.string_field j "s");
  check (Alcotest.option Alcotest.bool) "bool" (Some true) (Json.bool_field j "b");
  checkb "null is not a string" true (Json.string_field j "n" = None);
  checkb "missing" true (Json.field j "absent" = None);
  checkb "non-object" true (Json.int_field (Json.List [ Json.Int 1 ]) "i" = None);
  checkb "nested" true (Option.bind (Json.field j "o") (fun o -> Json.int_field o "k") = Some 1)

(* A decoder built from [need] names the first field it cannot read. *)
let test_json_decode () =
  let j = parse_ok {|{"a":1,"b":"two"}|} in
  let int k = Json.need k (Json.int_field j k) in
  checkb "ok" true (Json.decode (fun () -> int "a") = Ok 1);
  checkb "malformed field named" true (Json.decode (fun () -> int "a" + int "b") = Error "b");
  checkb "missing field named" true (Json.decode (fun () -> int "c") = Error "c")

(* JSONL reading: blank lines are skipped, a torn line is an [Error] in
   its place, and the file order is kept. *)
let test_json_read_lines () =
  let path = Filename.temp_file "json" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"a\":1}\n\n  \n[2]\n{\"torn\":";
      close_out oc;
      match Json.read_lines path with
      | [ Ok (Json.Obj [ ("a", Json.Int 1) ]); Ok (Json.List [ Json.Int 2 ]); Error _ ] -> ()
      | l -> Alcotest.failf "read %d lines, not the expected three" (List.length l))

let json_gen =
  (* integral floats render as "3" and parse back as Int, so draw
     fractional floats only; non-finite floats are covered separately *)
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map (fun i -> Json.Float (float_of_int i +. 0.5)) (int_range (-1000) 1000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 6)) (tree (depth - 1)))) );
        ]
  in
  tree 4

let prop_json_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trip" ~count:500
    (QCheck.make json_gen) (fun j -> parse_ok (Json.to_string j) = j)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_empty () =
  let b = Bitset.create 10 in
  checki "cardinal 0" 0 (Bitset.cardinal b);
  checkb "is_empty" true (Bitset.is_empty b);
  checkb "not full" false (Bitset.is_full b)

let test_bitset_add_mem () =
  let b = Bitset.create 20 in
  Bitset.add b 7;
  Bitset.add b 19;
  checkb "mem 7" true (Bitset.mem b 7);
  checkb "mem 19" true (Bitset.mem b 19);
  checkb "not mem 8" false (Bitset.mem b 8);
  checki "cardinal" 2 (Bitset.cardinal b)

let test_bitset_remove () =
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  Bitset.remove b 2;
  checkb "removed" false (Bitset.mem b 2);
  checki "cardinal" 2 (Bitset.cardinal b)

let test_bitset_singleton_full () =
  let s = Bitset.singleton 9 4 in
  checki "singleton cardinal" 1 (Bitset.cardinal s);
  let f = Bitset.full 9 in
  checkb "full is_full" true (Bitset.is_full f);
  checki "full cardinal" 9 (Bitset.cardinal f)

let test_bitset_union_into () =
  let a = Bitset.of_list 8 [ 1; 2 ] and b = Bitset.of_list 8 [ 2; 5 ] in
  checkb "changed" true (Bitset.union_into ~into:a b);
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 5 ] (Bitset.to_list a);
  checkb "idempotent" false (Bitset.union_into ~into:a b)

let test_bitset_subset_equal () =
  let a = Bitset.of_list 8 [ 1; 2 ] and b = Bitset.of_list 8 [ 1; 2; 3 ] in
  checkb "a<=b" true (Bitset.subset a b);
  checkb "b<=a false" false (Bitset.subset b a);
  checkb "equal self" true (Bitset.equal a (Bitset.copy a));
  checkb "not equal" false (Bitset.equal a b)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 8 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  checkb "original unchanged" false (Bitset.mem a 2)

let test_bitset_bounds () =
  let b = Bitset.create 5 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add b 5)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 5 and b = Bitset.create 6 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.union_into ~into:a b))

let test_bitset_choose_missing () =
  let b = Bitset.of_list 4 [ 0; 1; 3 ] in
  check (Alcotest.option Alcotest.int) "missing 2" (Some 2) (Bitset.choose_missing b);
  check (Alcotest.option Alcotest.int) "full none" None (Bitset.choose_missing (Bitset.full 3))

let test_bitset_fold_iter () =
  let b = Bitset.of_list 10 [ 2; 4; 6 ] in
  checki "fold sum" 12 (Bitset.fold (fun i acc -> i + acc) b 0);
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  check (Alcotest.list Alcotest.int) "iter ascending" [ 2; 4; 6 ] (List.rev !acc)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list roundtrip" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 63))
    (fun l ->
      let uniq = List.sort_uniq compare l in
      let b = Bitset.of_list 64 l in
      Bitset.to_list b = uniq && Bitset.cardinal b = List.length uniq)

(* The incrementally-tracked cardinal must agree with a naive popcount
   after any interleaving of add / remove (including redundant ones) /
   union_into / copy — the invariant that makes is_full O(1). *)
let prop_bitset_cardinal_incremental =
  QCheck.Test.make ~name:"bitset cardinal = naive count under mutation" ~count:300
    QCheck.(
      pair (int_range 1 70)
        (list_of_size Gen.(int_range 0 60) (pair (int_range 0 3) (int_range 0 1000))))
    (fun (n, ops) ->
      let b = Bitset.create n in
      let other = Bitset.of_list n (List.filteri (fun i _ -> i mod 3 = 0) (List.init n Fun.id)) in
      let naive s = Bitset.fold (fun _ acc -> acc + 1) s 0 in
      List.for_all
        (fun (op, x) ->
          let b' =
            match op with
            | 0 ->
                Bitset.add b (x mod n);
                b
            | 1 ->
                Bitset.remove b (x mod n);
                b
            | 2 ->
                ignore (Bitset.union_into ~into:b other);
                b
            | _ -> Bitset.copy b
          in
          Bitset.cardinal b' = naive b'
          && Bitset.is_full b' = (naive b' = n)
          && Bitset.is_empty b' = (naive b' = 0))
        ops)

(* ------------------------------------------------------------------ *)
(* Allocation discipline: the Bytes-backed RNG must draw without
   allocating (the scale engine's round loop budget depends on it).
   Measured over enough draws that the two boxed floats Gc.minor_words
   itself returns disappear into the average. *)

let test_rng_draws_allocation_free () =
  let t = Rng.of_int 42 in
  (* warm up: promote the stream state, trigger any lazy init *)
  for _ = 1 to 100 do
    ignore (Rng.int t 97)
  done;
  let draws = 50_000 in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to draws do
    acc := !acc + Rng.int t 97
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  checkb "sum sane" true (!acc > 0);
  if per_draw > 0.1 then
    Alcotest.failf "Rng.int allocates %.3f words/draw (expected ~0)" per_draw

(* The representation change (int64 record -> 8 bytes) must not change
   a single draw: pin a few values of the splitmix64 sequence. *)
let test_rng_sequence_pinned () =
  let t = Rng.of_int 1 in
  let a = Rng.int t 1_000_000 in
  let b = Rng.int t 1_000_000 in
  let s = Rng.split t in
  let c = Rng.int s 1_000_000 in
  checki "draw 1" 46657 a;
  checki "draw 2" 652711 b;
  checki "split draw" 467813 c

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  Heap.push h 5 "five";
  Heap.push h 1 "one";
  Heap.push h 3 "three";
  checki "length" 3 (Heap.length h);
  check (Alcotest.pair Alcotest.int Alcotest.string) "peek" (1, "one") (Heap.peek_min h);
  check (Alcotest.pair Alcotest.int Alcotest.string) "pop1" (1, "one") (Heap.pop_min h);
  check (Alcotest.pair Alcotest.int Alcotest.string) "pop2" (3, "three") (Heap.pop_min h);
  check (Alcotest.pair Alcotest.int Alcotest.string) "pop3" (5, "five") (Heap.pop_min h);
  checkb "empty again" true (Heap.is_empty h)

let test_heap_empty_raises () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop_min h))

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1 ();
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 2; 2; 1; 1; 3 ];
  let popped = List.init 5 (fun _ -> fst (Heap.pop_min h)) in
  check (Alcotest.list Alcotest.int) "sorted with dups" [ 1; 1; 2; 2; 3 ] popped

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 100) small_int)
    (fun l ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) l;
      let out = List.init (List.length l) (fun _ -> fst (Heap.pop_min h)) in
      out = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  checkb "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "b" ^ String.make 9 ' ' ^ "22") lines)

let test_table_row_mismatch () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  check Alcotest.string "int" "42" (Table.cell_int 42);
  check Alcotest.string "float" "3.14" (Table.cell_float ~decimals:2 3.14159)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gossip_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean_uniform;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_one;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "geometric tiny p" `Quick test_rng_geometric_tiny_p;
          qtest prop_rng_geometric_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "sample full permutation" `Quick test_rng_sample_full;
          Alcotest.test_case "draws are allocation-free" `Quick
            test_rng_draws_allocation_free;
          Alcotest.test_case "sequence pinned across representation" `Quick
            test_rng_sequence_pinned;
          qtest prop_rng_int_in_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "variance n<2" `Quick test_stats_variance_small;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile endpoints" `Quick test_stats_percentile_endpoints;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolation;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "summarize empty" `Quick test_stats_summarize_empty;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "loglog fit" `Quick test_stats_loglog_fit;
          Alcotest.test_case "loglog rejects nonpositive" `Quick
            test_stats_loglog_rejects_nonpositive;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "confidence interval" `Quick test_stats_confidence;
          Alcotest.test_case "percentile single sample" `Quick test_stats_percentile_single;
          Alcotest.test_case "percentile two samples" `Quick test_stats_percentile_two;
          Alcotest.test_case "all-equal sample" `Quick test_stats_all_equal;
          Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
          Alcotest.test_case "summarize matches percentile" `Quick
            test_stats_summarize_matches_percentile;
          qtest prop_stats_percentile_bounded;
          qtest prop_stats_percentile_oracle;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "number grammar" `Quick test_json_number_grammar;
          Alcotest.test_case "control chars" `Quick test_json_control_chars;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "non-finite to null" `Quick test_json_nonfinite_to_null;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          qtest prop_json_roundtrip;
        ] );
      ( "json-field",
        [
          Alcotest.test_case "accessors" `Quick test_json_field_accessors;
          Alcotest.test_case "decode" `Quick test_json_decode;
          Alcotest.test_case "read_lines" `Quick test_json_read_lines;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "singleton/full" `Quick test_bitset_singleton_full;
          Alcotest.test_case "union_into" `Quick test_bitset_union_into;
          Alcotest.test_case "subset/equal" `Quick test_bitset_subset_equal;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "choose_missing" `Quick test_bitset_choose_missing;
          Alcotest.test_case "fold/iter" `Quick test_bitset_fold_iter;
          qtest prop_bitset_roundtrip;
          qtest prop_bitset_cardinal_incremental;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          qtest prop_heap_sorted;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
