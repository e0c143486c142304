(** The measurement engine (lib/engine + Measure_engine): caching must
    never change a result, canonical fingerprints must collapse
    equivalent configurations, content dedup must share the baseline
    metrics object, and the worker pool must be output-invariant. *)

module C = Debugtuner.Config
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module R = Debugtuner.Ranking

let libpng = lazy (Ev.prepare (Programs.find "libpng"))
let bzip2 = lazy (Ev.prepare (Programs.find "bzip2"))
let all_levels = [ C.O0; C.Og; C.O1; C.O2; C.O3 ]

(* Cached and uncached measurement agree at every standard level, and a
   repeated engine lookup serves the physically-same record. *)
let test_cached_matches_uncached () =
  let p = Lazy.force libpng in
  let eng = ME.create () in
  List.iter
    (fun level ->
      let cfg = C.make C.Gcc level in
      let bin_raw = Ev.compile p cfg in
      let m_raw =
        Ev.metrics_of_trace p bin_raw (Ev.trace_config_bin p bin_raw)
      in
      let m_eng, bin_eng = ME.measure eng p cfg in
      Alcotest.(check string)
        (C.name cfg ^ ": same binary")
        bin_raw.Emit.full_digest bin_eng.Emit.full_digest;
      Alcotest.(check bool)
        (C.name cfg ^ ": identical metrics")
        true (m_raw = m_eng);
      let m_again, _ = ME.measure eng p cfg in
      Alcotest.(check bool)
        (C.name cfg ^ ": cache hit is physically shared")
        true (m_eng == m_again))
    all_levels

(* Canonical fingerprints: the disabled-pass list is a set, so neither
   order nor duplicates may yield a distinct cache key or name. *)
let test_fingerprint_canonical () =
  let a = C.make ~disabled:[ "inline"; "dce" ] C.Gcc C.O2 in
  let b = C.make ~disabled:[ "dce"; "inline"; "dce" ] C.Gcc C.O2 in
  Alcotest.(check string) "same fingerprint" (C.fingerprint a) (C.fingerprint b);
  Alcotest.(check string) "same name" (C.name a) (C.name b);
  Alcotest.(check bool) "equal" true (C.equal a b);
  Alcotest.(check int) "compare = 0" 0 (C.compare a b);
  Alcotest.(check int) "same hash" (C.hash a) (C.hash b);
  let c = C.make ~disabled:[ "inline" ] C.Gcc C.O2 in
  Alcotest.(check bool) "distinct sets stay distinct" false (C.equal a c);
  Alcotest.(check bool) "distinct fingerprints" true
    (C.fingerprint a <> C.fingerprint c)

(* Content dedup: a distinct fingerprint whose compile produces an
   identical binary must be served the baseline's metrics object
   without re-measuring. *)
let test_dedup_returns_baseline_object () =
  let p = Lazy.force libpng in
  let eng = ME.create () in
  let base = C.make C.Gcc C.O1 in
  let m_base, _ = ME.measure eng p base in
  (* Disabling a pass that is not in the O1 pipeline changes nothing
     about the compile, but is a different tier-1 key. *)
  let alias = C.make ~disabled:[ "not-a-real-pass" ] C.Gcc C.O1 in
  Alcotest.(check bool) "distinct fingerprint" true
    (C.fingerprint base <> C.fingerprint alias);
  let m_alias, _ = ME.measure eng p alias in
  Alcotest.(check bool) "dedup shares the baseline object" true
    (m_base == m_alias);
  let dedups =
    List.assoc_opt "engine/measure/dedups" (Util.Counters.rows (ME.stats eng))
  in
  Alcotest.(check bool) "stats record the dedup" true
    (Option.value ~default:0 dedups >= 1)

(* The pool's ordered reduction: a parallel map returns results in
   input order for any worker count. *)
let test_pool_ordered () =
  let pool = Engine.Pool.create ~workers:4 () in
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "ordered parallel map" (List.map (fun i -> i * i) xs)
    (Engine.Pool.map pool (fun i -> i * i) xs)

(* A multi-worker engine must rank exactly like a sequential one (the
   tables built from rankings are byte-identical). *)
let test_workers_rank_identical () =
  let programs = [ Lazy.force libpng; Lazy.force bzip2 ] in
  let cfg = C.make C.Gcc C.O1 in
  let seq = R.rank ~engine:(ME.create ()) programs cfg in
  let par_eng = ME.create ~workers:4 () in
  Alcotest.(check int) "pool sized" 4 (ME.workers par_eng);
  let par = R.rank ~engine:par_eng programs cfg in
  Alcotest.(check bool) "identical ranking" true
    (seq.R.lr_effects = par.R.lr_effects
    && seq.R.lr_baseline_avg = par.R.lr_baseline_avg)

let tests =
  [
    Alcotest.test_case "cached = uncached, all levels" `Slow
      test_cached_matches_uncached;
    Alcotest.test_case "canonical fingerprints" `Quick
      test_fingerprint_canonical;
    Alcotest.test_case "dedup shares baseline metrics" `Quick
      test_dedup_returns_baseline_object;
    Alcotest.test_case "pool ordered reduction" `Quick test_pool_ordered;
    Alcotest.test_case "parallel rank = sequential rank" `Slow
      test_workers_rank_identical;
  ]
