(** Tests for the extensions (clang-Og prototype, pairwise interactions,
    iterative AutoFDO) and the ablation hooks. *)

module C = Debugtuner.Config
module E = Debugtuner.Evaluation
module ME = Debugtuner.Measure_engine
module X = Debugtuner.Extensions

let prepared = lazy (List.map E.prepare [ Programs.find "zlib"; Programs.find "libexif" ])

(* One engine for the whole module: its tests share compiles and
   measurements. *)
let engine = ME.create ()

let test_clang_og_trade () =
  (* The prototype Og must be more debuggable than O1 and slower than
     it, but much faster than O0. *)
  let pts = Lazy.force prepared in
  let product cfg =
    Util.Stats.mean (List.map (fun p -> ME.product engine p cfg) pts)
  in
  let o1 = C.make C.Clang C.O1 in
  Alcotest.(check bool) "more debuggable than O1" true
    (product X.clang_og > product o1);
  let cost cfg =
    ME.bench_cost engine (Spec.find "505.mcf") cfg
  in
  Alcotest.(check bool) "faster than O0" true
    (cost X.clang_og < cost (C.make C.Clang C.O0))

let test_clang_og_disables_the_five () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " disabled") true
        (List.mem p X.clang_og.C.disabled))
    [ "SimplifyCFG"; "InstCombine"; "EarlyCSE" ];
  Alcotest.(check bool) "based on O1" true (X.clang_og.C.level = C.O1)

let test_pairwise_interactions () =
  let pts = Lazy.force prepared in
  let config = C.make C.Gcc C.O2 in
  let inter =
    X.pairwise ~engine pts config
      ~passes:[ "schedule-insns2"; "if-conversion"; "tree-ter" ]
  in
  Alcotest.(check int) "3 choose 2 pairs" 3 (List.length inter);
  List.iter
    (fun (i : X.interaction) ->
      (* The pair effect relates sensibly to the solo effects. *)
      Alcotest.(check bool) "pair >= min(solo)-slack" true
        (i.X.in_pair >= Float.min i.X.in_solo_a i.X.in_solo_b -. 0.2);
      Alcotest.(check bool) "distinct passes" true (i.X.in_pass_a <> i.X.in_pass_b))
    inter

let test_iterative_autofdo_rounds () =
  let bench = Spec.find "557.xz" in
  let ast = Suite_types.ast bench in
  let rounds =
    X.iterative_autofdo ast ~roots:(Suite_types.roots bench) ~entry:"main"
      ~workloads:[ [] ]
      ~config:(C.make C.Clang C.O2)
      ~rounds:2 ()
  in
  Alcotest.(check int) "two rounds" 2 (List.length rounds);
  List.iter
    (fun (r : X.round) ->
      Alcotest.(check bool) "cost positive" true (r.X.rd_cost > 0);
      Alcotest.(check bool) "lost fraction bounded" true
        (r.X.rd_lost_fraction >= 0.0 && r.X.rd_lost_fraction <= 1.0))
    rounds

let test_breakpoint_policy_ablation () =
  (* The all-locations policy can only step at least as many lines. *)
  let p = List.hd (Lazy.force prepared) in
  let bin = E.compile p (C.make C.Gcc C.O2) in
  let hc = List.hd p.E.corpora in
  let entry = hc.E.hc_harness.Suite_types.h_entry in
  let inputs = hc.E.hc_inputs in
  let all = Debugger.trace ~all_locations:true bin ~entry ~inputs in
  let lowest = Debugger.trace ~all_locations:false bin ~entry ~inputs in
  Alcotest.(check bool) "all >= lowest" true
    (List.length (Debugger.stepped_lines all)
    >= List.length (Debugger.stepped_lines lowest))

let test_entry_values_ablation () =
  (* Disabling entry-value emission can only reduce static coverage. *)
  let p = List.hd (Lazy.force prepared) in
  let cfg = C.make C.Gcc C.O2 in
  let avail entry_values =
    let bin =
      Debugtuner.Toolchain.compile
        ~options:(Debugtuner.Toolchain.Options.make ~entry_values ())
        p.E.ast ~config:cfg ~roots:p.E.roots
    in
    let opt_trace = E.trace_config_bin p bin in
    (Metrics.static_dbg
       {
         Metrics.defranges = p.E.defranges;
         unopt_trace = p.E.o0_trace;
         opt_trace;
         unopt_bin = p.E.o0_bin;
         opt_bin = bin;
       })
      .Metrics.availability
  in
  Alcotest.(check bool) "entry-values only add coverage" true
    (avail true >= avail false -. 1e-9)

let test_ranking_metric_choice () =
  let pts = Lazy.force prepared in
  let cfg = C.make C.Gcc C.O1 in
  let h = Debugtuner.Ranking.rank ~engine pts cfg in
  let d =
    Debugtuner.Ranking.rank ~engine ~metric:Debugtuner.Ranking.dynamic_product
      pts cfg
  in
  Alcotest.(check int) "same pass universe"
    (List.length h.Debugtuner.Ranking.lr_effects)
    (List.length d.Debugtuner.Ranking.lr_effects)

let test_scheduler_lines_ablation () =
  (* Forcing clang-style line retention on the gcc scheduler can only
     keep more lines than stripping them. *)
  let p = List.hd (Lazy.force prepared) in
  let cfg = C.make C.Gcc C.O2 in
  let coverage keep =
    let bin =
      Debugtuner.Toolchain.compile
        ~options:(Debugtuner.Toolchain.Options.make ~sched_keep_lines:keep ())
        p.E.ast ~config:cfg ~roots:p.E.roots
    in
    Metrics.line_coverage_of_traces p.E.o0_trace (E.trace_config_bin p bin)
  in
  let strip = coverage false and keep = coverage true in
  Alcotest.(check bool)
    (Printf.sprintf "keep (%.4f) >= strip (%.4f)" keep strip)
    true (keep >= strip);
  (* And the hook is a no-op for a family whose default already keeps. *)
  let clang = C.make C.Clang C.O2 in
  let bin_def =
    Debugtuner.Toolchain.compile p.E.ast ~config:clang ~roots:p.E.roots
  in
  let bin_keep =
    Debugtuner.Toolchain.compile
      ~options:(Debugtuner.Toolchain.Options.make ~sched_keep_lines:true ())
      p.E.ast ~config:clang ~roots:p.E.roots
  in
  Alcotest.(check string) "clang default already keeps lines"
    bin_def.Emit.text_digest bin_keep.Emit.text_digest

let test_per_program () =
  let pts = Lazy.force prepared in
  let cfg = C.make C.Gcc C.O1 in
  let rows = X.per_program ~engine pts cfg ~y:3 in
  Alcotest.(check int) "one row per program" (List.length pts)
    (List.length rows);
  List.iter
    (fun (r : X.per_program_row) ->
      Alcotest.(check bool) (r.X.pp_program ^ " products in range") true
        (r.X.pp_global >= 0.0 && r.X.pp_global <= 1.0 && r.X.pp_local >= 0.0
        && r.X.pp_local <= 1.0);
      Alcotest.(check bool) "at most y passes disabled" true
        (List.length r.X.pp_disabled <= 3);
      (* The paper never disables inlining in Ox-dy configurations. *)
      Alcotest.(check bool) "inliners never disabled" false
        (List.exists
           (fun p -> p = "inline" || p = "Inliner")
           r.X.pp_disabled);
      Alcotest.(check bool) "gain consistent with products" true
        (if r.X.pp_global > 0.0 then
           abs_float
             (r.X.pp_gain_pct
             -. (100.0 *. (r.X.pp_local -. r.X.pp_global) /. r.X.pp_global))
           < 1e-6
         else true))
    rows;
  (* Own-program tuning should not lose on average across the subset. *)
  Alcotest.(check bool) "mean gain not strongly negative" true
    (X.per_program_mean_gain rows > -5.0)

let tests =
  [
    Alcotest.test_case "per-program tuning" `Quick test_per_program;
    Alcotest.test_case "scheduler-lines ablation" `Quick
      test_scheduler_lines_ablation;
    Alcotest.test_case "clang-Og trade-off" `Quick test_clang_og_trade;
    Alcotest.test_case "clang-Og composition" `Quick test_clang_og_disables_the_five;
    Alcotest.test_case "pairwise interactions" `Quick test_pairwise_interactions;
    Alcotest.test_case "iterative autofdo" `Quick test_iterative_autofdo_rounds;
    Alcotest.test_case "breakpoint policy ablation" `Quick
      test_breakpoint_policy_ablation;
    Alcotest.test_case "entry-values ablation" `Quick test_entry_values_ablation;
    Alcotest.test_case "ranking metric choice" `Quick test_ranking_metric_choice;
  ]
