(** The measurement engine (lib/engine + Measure_engine): caching must
    never change a result, canonical fingerprints must collapse
    equivalent configurations, content dedup must share the baseline
    metrics object, and the worker pool must be output-invariant. *)

module C = Debugtuner.Config
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module R = Debugtuner.Ranking
module T = Debugtuner.Toolchain
module Ex = Debugtuner.Experiments

let libpng = lazy (Ev.prepare (Programs.find "libpng"))
let bzip2 = lazy (Ev.prepare (Programs.find "bzip2"))
let zlib = lazy (Ev.prepare (Programs.find "zlib"))
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
      let m_eng, entry = ME.measure eng p cfg in
      Alcotest.(check string)
        (C.name cfg ^ ": same binary")
        bin_raw.Emit.full_digest entry.ME.pk_full_digest;
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

(* ------------------------------------------------------------------ *)
(* Packed tier 1                                                       *)

let straight (p : Suite_types.sprogram) config =
  T.compile (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)

(* Tier 1 keeps each binary packed: after zlib's gcc-O2 ranking sweep
   the whole engine stays far below the decoded binaries it would
   otherwise hold (about 55,000 words with decoded entries). *)
let test_packed_resident_size () =
  let eng = ME.create () and base = C.make C.Gcc C.O2 in
  let configs =
    base
    :: List.map (fun pass -> { base with C.disabled = [ pass ] })
         (T.pass_names base)
  in
  Alcotest.(check int) "ranking configurations" 29 (List.length configs);
  ME.compile_sweep eng (Programs.find "zlib") configs;
  let words = Obj.reachable_words (Obj.repr eng) in
  if words > 15_000 then
    Alcotest.failf "the engine holds %d words after the sweep (bound 15000)"
      words

(* A tier-1 hit decodes to the very binary a straight compile produces,
   for every suite and SPEC program at the standard configurations. *)
let test_hit_decodes_straight_binary () =
  let eng = ME.create () in
  List.iter
    (fun (p : Suite_types.sprogram) ->
      ME.compile_sweep eng p Ex.all_standard_configs;
      let hits, rows =
        Util.Counters.scoped (fun () ->
            List.map (ME.compile eng p) Ex.all_standard_configs)
      in
      Alcotest.(check (option int))
        (p.Suite_types.p_name ^ ": every lookup hits") None
        (List.assoc_opt "engine/compile/misses" rows);
      List.iter2
        (fun config (hit : Emit.binary) ->
          Alcotest.(check bool)
            (p.Suite_types.p_name ^ " at " ^ C.name config ^ ": = straight")
            true
            (hit = straight p config))
        Ex.all_standard_configs hits)
    (Programs.all @ Spec.all)

(* [f ()] under an [Obs] session; with how many tier-1 entries it
   decoded ([engine:unpack] spans). *)
let counting_unpacks f =
  ignore (Obs.stop ());
  Obs.start ();
  let r =
    match f () with
    | r -> r
    | exception e ->
        ignore (Obs.stop ());
        raise e
  in
  let s = Option.get (Obs.stop ()) in
  let spans =
    List.length
      (List.filter (fun e -> e.Obs.ev_name = "engine:unpack") (Obs.events s))
  in
  Alcotest.(check int) "one engine/unpack count per span" spans
    (Option.value ~default:0 (List.assoc_opt "engine/unpack" (Obs.counters s)));
  (r, spans)

(* Lookups that read only a digest decode nothing: Ranking's [.text]
   discard and every tier-2 hit. A cold ranking decodes exactly once
   per metrics record it computes; a warm one, and tier-2 hits of
   [measure] and [bench_cost], never. *)
let test_digest_reads_decode_nothing () =
  let p = Lazy.force zlib and cfg = C.make C.Gcc C.O2 in
  let eng = ME.create () in
  let (_, rows), unpacked =
    counting_unpacks (fun () ->
        Util.Counters.scoped (fun () -> R.rank ~engine:eng [ p ] cfg))
  in
  Alcotest.(check int) "cold rank: one unpack per measure miss"
    (Option.value ~default:0 (List.assoc_opt "engine/measure/misses" rows))
    unpacked;
  Alcotest.(check bool) "the discard fired" true
    (List.mem_assoc "engine/rank-discard/dedups" rows);
  let _, unpacked = counting_unpacks (fun () -> R.rank ~engine:eng [ p ] cfg) in
  Alcotest.(check int) "warm rank" 0 unpacked;
  (* A fresh compile hands its live binary on: nothing to decode. *)
  let eng = ME.create () and o1 = C.make C.Gcc C.O1 in
  let _, unpacked =
    counting_unpacks (fun () ->
        ignore (ME.measure eng p o1);
        ignore (ME.bench_cost eng p.Ev.program o1 : int))
  in
  Alcotest.(check int) "fresh compile, then a tier-1 hit costed" 1 unpacked;
  let _, unpacked =
    counting_unpacks (fun () ->
        ignore (ME.measure eng p o1);
        ignore (ME.bench_cost eng p.Ev.program o1 : int))
  in
  Alcotest.(check int) "tier-2 hits" 0 unpacked;
  (* A warm [Compile] [Summary] reads the counts its tier-1 entry
     carries: no decode, and the text the decoded binary renders. *)
  let ctx = Api.create_ctx () and o2 = C.make C.Gcc C.O2 in
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let name = p.Suite_types.p_name in
      let summary () =
        Api.execute ctx
          (Api.Request.Compile
             {
               c_subject = Api.Request.Named name;
               c_config = o2;
               c_profile = None;
               c_sanitize = false;
               c_view = Api.Request.Summary;
             })
      in
      ignore (summary ());
      let warm, unpacked = counting_unpacks summary in
      Alcotest.(check int) (name ^ ": warm summary") 0 unpacked;
      let bin = ME.compile ctx.Api.engine p o2 in
      let rendered =
        Printf.sprintf
          "%s at %s\n\
          \  code: %d instructions, %d functions\n\
          \  line table: %d entries, %d steppable lines\n\
          \  variables with location info: %d\n\
          \  .text digest: %s\n"
          name (C.name o2) (Array.length bin.Emit.code)
          (Array.length bin.Emit.funcs)
          (List.length bin.Emit.debug.Dwarfish.line_table)
          (List.length (Dwarfish.steppable_lines bin.Emit.debug))
          (List.length bin.Emit.debug.Dwarfish.vars)
          bin.Emit.text_digest
      in
      Alcotest.(check string) (name ^ ": summary text") rendered
        warm.Api.Response.text)
    Programs.all

(* Costs key on what the VM executes, not on [.text] alone: libpng at
   gcc-O1 with and without shrink-wrap shares one [.text] but not its
   frame layouts, and the two cost differently. On one engine, in
   either order, each cost equals a straight run of its own binary. *)
let straight_cost (p : Suite_types.sprogram) config =
  let bin = straight p config in
  List.fold_left
    (fun acc (h : Suite_types.harness) ->
      List.fold_left
        (fun acc input ->
          acc
          + (Vm.run bin ~entry:h.Suite_types.h_entry ~input Vm.default_opts)
              .Vm.cost)
        acc
        (if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds))
    0 p.Suite_types.p_harnesses

let test_bench_cost_exec_key () =
  let p = Programs.find "libpng" in
  let base = C.make C.Gcc C.O1 in
  let wrapless = C.make ~disabled:[ "shrink-wrap" ] C.Gcc C.O1 in
  Alcotest.(check string) "one .text"
    (straight p base).Emit.text_digest (straight p wrapless).Emit.text_digest;
  let expected =
    List.map (fun c -> (c, straight_cost p c)) [ base; wrapless ]
  in
  Alcotest.(check bool) "different costs" true
    (List.assoc base expected <> List.assoc wrapless expected);
  List.iter
    (fun order ->
      let eng = ME.create () in
      List.iter
        (fun config ->
          Alcotest.(check int) (C.name config) (List.assoc config expected)
            (ME.bench_cost eng p config))
        order)
    [ [ base; wrapless ]; [ wrapless; base ] ]

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
    Alcotest.test_case "packed tier 1 stays small" `Quick
      test_packed_resident_size;
    Alcotest.test_case "a hit decodes the straight binary" `Slow
      test_hit_decodes_straight_binary;
    Alcotest.test_case "digest reads decode nothing" `Quick
      test_digest_reads_decode_nothing;
    Alcotest.test_case "bench costs key on what the VM executes" `Quick
      test_bench_cost_exec_key;
  ]
