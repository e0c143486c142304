(** Tests for the util library: PRNG determinism and distribution
    sanity, statistics helpers, table rendering, the JSON reader. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.bits a) (Util.Rng.bits b)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 16 (fun _ -> Util.Rng.bits a) in
  let ys = List.init 16 (fun _ -> Util.Rng.bits b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_int_range () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Util.Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (w >= -5 && w <= 5)
  done

let test_rng_copy_split () =
  let a = Util.Rng.create 9 in
  ignore (Util.Rng.bits a);
  let c = Util.Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Util.Rng.bits a)
    (Util.Rng.bits c);
  let s1 = Util.Rng.split a in
  let s2 = Util.Rng.split a in
  Alcotest.(check bool) "splits independent" true
    (Util.Rng.bits s1 <> Util.Rng.bits s2)

let test_rng_shuffle_permutes () =
  let rng = Util.Rng.create 3 in
  let arr = Array.init 20 (fun i -> i) in
  Util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_mean_median () =
  check_float "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 2.0 (Util.Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_geomean () =
  check_float "geomean" 2.0 (Util.Stats.geomean [ 1.0; 4.0 ]);
  check_float "geomean of equal" 3.0 (Util.Stats.geomean [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check bool) "zero clamped, not zeroing" true
    (Util.Stats.geomean [ 0.0; 1.0 ] > 0.0 || Util.Stats.geomean [ 0.0; 1.0 ] = 0.0)

let test_geo_stddev () =
  let v = Util.Stats.geo_stddev [ 2.0; 2.0; 2.0 ] in
  check_float "no variation -> 1" 1.0 v;
  Alcotest.(check bool) "variation > 1" true
    (Util.Stats.geo_stddev [ 1.0; 4.0 ] > 1.0)

let test_pct_delta () =
  check_float "8%" 8.0 (Util.Stats.pct_delta 0.25 0.27);
  check_float "negative" (-10.0) (Util.Stats.pct_delta 1.0 0.9)

let test_tablefmt_render () =
  let t =
    Util.Tablefmt.make ~title:"t" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Util.Tablefmt.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 4 = "== t");
  (* Columns padded: header line contains "a    bb" with 'a' padded to
     width 3. *)
  Alcotest.(check bool) "contains padded rows" true
    (String.length s > 20)

let test_tablefmt_formats () =
  Alcotest.(check string) "f2" "3.14" (Util.Tablefmt.f2 3.14159);
  Alcotest.(check string) "f4" "0.5000" (Util.Tablefmt.f4 0.5);
  Alcotest.(check string) "pct sign" "+8.00" (Util.Tablefmt.pct 8.0);
  Alcotest.(check string) "pct neg" "-4.62" (Util.Tablefmt.pct (-4.62))

let qcheck_rng_bounds =
  QCheck.Test.make ~name:"rng int always in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int rng n in
      v >= 0 && v < n)

let qcheck_geomean_bounds =
  QCheck.Test.make ~name:"geomean between min and max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.01 100.0))
    (fun xs ->
      let g = Util.Stats.geomean xs in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let test_scatter () =
  Alcotest.(check string) "no points"
    "== empty == (no points)\n"
    (Util.Tablefmt.scatter ~title:"empty" ~width:10 ~height:4 ~xlabel:"x"
       ~ylabel:"y" []);
  let out =
    Util.Tablefmt.scatter ~title:"t" ~width:20 ~height:5 ~xlabel:"speed"
      ~ylabel:"debug"
      [ (0.0, 0.0, 'a'); (1.0, 1.0, 'b'); (0.5, 0.5, 'c') ]
  in
  List.iter
    (fun affix ->
      let n = String.length affix and m = String.length out in
      let rec go i = i + n <= m && (String.sub out i n = affix || go (i + 1)) in
      Alcotest.(check bool) ("scatter has " ^ affix) true (go 0))
    [ "== t =="; "speed"; "debug"; "a"; "b"; "c"; "0.000 .. 1.000" ];
  (* later points overwrite earlier on collision *)
  let out2 =
    Util.Tablefmt.scatter ~title:"t" ~width:8 ~height:3 ~xlabel:"x"
      ~ylabel:"y"
      [ (0.0, 0.0, 'p'); (0.0, 0.0, 'q') ]
  in
  Alcotest.(check bool) "collision keeps the later marker" true
    (not (String.contains out2 'p') && String.contains out2 'q')

let test_json_depth_bounded () =
  let nested d = String.make d '[' ^ String.make d ']' in
  let limit = Util.Json.max_depth in
  (match Util.Json.parse (nested limit) with
  | _ -> ()
  | exception Util.Json.Parse_error msg ->
      Alcotest.fail ("depth = limit rejected: " ^ msg));
  (match Util.Json.parse (nested (limit + 1)) with
  | _ -> Alcotest.fail "depth = limit + 1 accepted"
  | exception Util.Json.Parse_error msg ->
      Alcotest.(check string) "names the limit"
        (Printf.sprintf "nesting deeper than %d at offset %d" limit limit) msg);
  (* a 16 MiB frame of '[' fails at the limit, without reading on *)
  let t0 = Unix.gettimeofday () in
  (match Util.Json.parse (String.make (16 * 1024 * 1024) '[') with
  | _ -> Alcotest.fail "16 MiB of '[' accepted"
  | exception Util.Json.Parse_error _ -> ());
  Alcotest.(check bool) "rejected in well under a second" true
    (Unix.gettimeofday () -. t0 < 0.5)

let test_json_exact_ints () =
  let int_of text = Util.Json.int (Util.Json.parse text) in
  Alcotest.(check (option int)) "integral" (Some (-42)) (int_of "-42");
  Alcotest.(check (option int)) "integral exponent" (Some 3000) (int_of "3e3");
  Alcotest.(check (option int)) "fraction" None (int_of "2.7");
  Alcotest.(check (option int)) "out of range" None (int_of "1e300");
  Alcotest.(check (option int)) "not a number" None (int_of "\"2\"")

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng copy and split" `Quick test_rng_copy_split;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "mean and median" `Quick test_mean_median;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "geo stddev" `Quick test_geo_stddev;
    Alcotest.test_case "pct delta" `Quick test_pct_delta;
    Alcotest.test_case "tablefmt render" `Quick test_tablefmt_render;
    Alcotest.test_case "tablefmt formats" `Quick test_tablefmt_formats;
    Alcotest.test_case "tablefmt scatter" `Quick test_scatter;
    Alcotest.test_case "json nesting depth bounded" `Quick test_json_depth_bounded;
    Alcotest.test_case "json ints are exact" `Quick test_json_exact_ints;
    QCheck_alcotest.to_alcotest qcheck_rng_bounds;
    QCheck_alcotest.to_alcotest qcheck_geomean_bounds;
  ]
