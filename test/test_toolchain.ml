(** Tests for the DebugTuner core: configurations, pipelines, per-pass
    disabling, evaluation, ranking, tuning and the Pareto front. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module E = Debugtuner.Evaluation
module ME = Debugtuner.Measure_engine

let test_config_names () =
  Alcotest.(check string) "standard" "gcc-O2" (C.name (C.make C.Gcc C.O2));
  Alcotest.(check string) "dy" "clang-O1-d3"
    (C.name (C.make ~disabled:[ "a"; "b"; "c" ] C.Clang C.O1));
  Alcotest.(check bool) "clang has no Og" false
    (List.mem C.Og (C.standard_levels C.Clang))

let test_pipelines_grow_with_level () =
  let n comp l = List.length (T.pass_names (C.make comp l)) in
  Alcotest.(check bool) "gcc Og < O1 < O2 <= O3" true
    (n C.Gcc C.Og < n C.Gcc C.O1
    && n C.Gcc C.O1 < n C.Gcc C.O2
    && n C.Gcc C.O2 <= n C.Gcc C.O3);
  Alcotest.(check bool) "clang O1 < O2 <= O3" true
    (n C.Clang C.O1 < n C.Clang C.O2 && n C.Clang C.O2 <= n C.Clang C.O3)

let test_paper_pass_names_present () =
  let gcc_o2 = T.pass_names (C.make C.Gcc C.O2) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " in gcc O2") true (List.mem p gcc_o2))
    [
      "inline"; "schedule-insns2"; "inline-small-functions"; "toplevel-reorder";
      "thread-jumps"; "crossjumping"; "inline-functions"; "tree-loop-optimize";
      "expensive-opts"; "if-conversion"; "tree-coalesce-vars"; "shrink-wrap";
      "ira-share-spill-slots"; "reorder-blocks"; "tree-ter"; "tree-sink";
      "tree-dominator-opts"; "tree-fre"; "tree-forwprop"; "dce";
      "guess-branch-probability"; "ipa-pure-const";
    ];
  let clang_o3 = T.pass_names (C.make C.Clang C.O3) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " in clang O3") true (List.mem p clang_o3))
    [
      "Inliner"; "SimplifyCFG"; "Machine code sinking"; "JumpThreading";
      "LoopStrengthReduce"; "Branch Prob BB Placement"; "DSE"; "LoopUnroll";
      "Control Flow Optimizer"; "SROA"; "InstCombine"; "EarlyCSE"; "GVN";
    ]

let libpng = lazy (E.prepare (Programs.find "libpng"))

(* One engine for the whole module: its tests share compiles and
   measurements. *)
let engine = ME.create ()

let test_disabling_pass_changes_or_keeps_binary () =
  let prepared = Lazy.force libpng in
  let base = E.compile prepared (C.make C.Gcc C.O2) in
  let some_changed = ref false in
  List.iter
    (fun pass ->
      let bin = E.compile prepared (C.make ~disabled:[ pass ] C.Gcc C.O2) in
      if bin.Emit.text_digest <> base.Emit.text_digest then some_changed := true)
    (T.pass_names (C.make C.Gcc C.O2));
  Alcotest.(check bool) "at least one pass affects .text" true !some_changed

let test_disable_all_is_weak () =
  (* Disabling every pass must still be correct and slower than the full
     level. *)
  let prepared = Lazy.force libpng in
  let full = C.make C.Gcc C.O2 in
  let none = C.make ~disabled:(T.pass_names full) C.Gcc C.O2 in
  let q_full = ME.product engine prepared full in
  let q_none = ME.product engine prepared none in
  Alcotest.(check bool) "no passes -> more debuggable" true (q_none >= q_full)

let test_measure_reuse_discard_optimization () =
  let prepared = Lazy.force libpng in
  let m, _ = ME.measure engine prepared (C.make C.Gcc C.O2) in
  (* Disabling a pass outside the pipeline leaves the binary unchanged,
     so the engine must reuse the cached metrics. *)
  let m2, _ =
    ME.measure engine prepared (C.make ~disabled:[ "not-a-pass" ] C.Gcc C.O2)
  in
  Alcotest.(check (float 1e-12)) "identical metrics via reuse"
    m.Metrics.m_hybrid.Metrics.product m2.Metrics.m_hybrid.Metrics.product;
  Alcotest.(check bool) "the cached record itself" true (m == m2)

let test_ranking_shape () =
  let prepared = [ Lazy.force libpng ] in
  let lr = Debugtuner.Ranking.rank ~engine prepared (C.make C.Gcc C.O1) in
  let effects = lr.Debugtuner.Ranking.lr_effects in
  Alcotest.(check bool) "covers all passes" true
    (List.length effects = List.length (T.pass_names (C.make C.Gcc C.O1)));
  (* Ranks ascend. *)
  let rec ascending = function
    | (a : Debugtuner.Ranking.pass_effect) :: (b :: _ as rest) ->
        a.Debugtuner.Ranking.pe_avg_rank <= b.Debugtuner.Ranking.pe_avg_rank
        && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by avg rank" true (ascending effects)

let test_dy_config_inliner_exception () =
  let prepared = [ Lazy.force libpng ] in
  let lr = Debugtuner.Ranking.rank ~engine prepared (C.make C.Gcc C.O2) in
  let cfg = Debugtuner.Tuning.dy_config lr ~y:5 in
  Alcotest.(check int) "5 disabled" 5 (List.length cfg.C.disabled);
  Alcotest.(check bool) "general inliner never disabled" false
    (List.mem "inline" cfg.C.disabled)

let test_dy_configs_nest () =
  let prepared = [ Lazy.force libpng ] in
  let lr = Debugtuner.Ranking.rank ~engine prepared (C.make C.Gcc C.O2) in
  let d3 = (Debugtuner.Tuning.dy_config lr ~y:3).C.disabled in
  let d5 = (Debugtuner.Tuning.dy_config lr ~y:5).C.disabled in
  List.iter
    (fun p -> Alcotest.(check bool) "d3 subset of d5" true (List.mem p d5))
    d3

let test_speedups_ordering () =
  let benches = [ Spec.find "505.mcf"; Spec.find "525.x264" ] in
  let o0_costs = Debugtuner.Tuning.o0_costs ~engine benches in
  let _, geo_o0 =
    Debugtuner.Tuning.speedups_cached ~engine ~o0_costs benches
      (C.make C.Gcc C.O0)
  in
  let _, geo_o2 =
    Debugtuner.Tuning.speedups_cached ~engine ~o0_costs benches
      (C.make C.Gcc C.O2)
  in
  Alcotest.(check (float 1e-9)) "O0 speedup is 1" 1.0 geo_o0;
  Alcotest.(check bool) "O2 faster than O0" true (geo_o2 > 1.2)

let test_pareto_front () =
  let open Debugtuner.Pareto in
  let pts =
    [
      { pt_name = "a"; pt_debug = 0.9; pt_speedup = 1.0 };
      { pt_name = "b"; pt_debug = 0.5; pt_speedup = 2.0 };
      { pt_name = "dominated"; pt_debug = 0.4; pt_speedup = 1.5 };
      { pt_name = "c"; pt_debug = 0.7; pt_speedup = 1.7 };
    ]
  in
  let opt = List.map (fun p -> p.pt_name) (optimal pts) in
  Alcotest.(check bool) "a optimal" true (List.mem "a" opt);
  Alcotest.(check bool) "b optimal" true (List.mem "b" opt);
  Alcotest.(check bool) "c optimal" true (List.mem "c" opt);
  Alcotest.(check bool) "dominated excluded" false (List.mem "dominated" opt)

let test_compile_deterministic () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let a = T.compile ast ~config:(C.make C.Clang C.O2) ~roots in
  let ast2 = Suite_types.ast p in
  let b = T.compile ast2 ~config:(C.make C.Clang C.O2) ~roots in
  Alcotest.(check string) "same digest" a.Emit.text_digest b.Emit.text_digest

let test_pipeline_trace () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let trace cfg = Debugtuner.Toolchain.pipeline_trace ast ~config:cfg ~roots in
  (* O0: lowering only. *)
  (match trace (Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O0) with
  | [ ("lower", st) ] ->
      Alcotest.(check bool) "O0 has instructions and lines" true
        (st.Debugtuner.Toolchain.st_instrs > 0
        && st.Debugtuner.Toolchain.st_lines > 0
        && st.Debugtuner.Toolchain.st_bindings = 0)
  | t ->
      Alcotest.fail
        (Printf.sprintf "O0 trace should be [lower], got %d steps"
           (List.length t)));
  (* O2: lower, mem2reg, then one row per executed pass. *)
  let cfg = Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2 in
  let t = trace cfg in
  (match t with
  | ("lower", l) :: ("mem2reg", m) :: rest ->
      Alcotest.(check bool) "mem2reg removes frame traffic" true
        (m.Debugtuner.Toolchain.st_instrs < l.Debugtuner.Toolchain.st_instrs);
      Alcotest.(check bool) "mem2reg introduces bindings" true
        (m.Debugtuner.Toolchain.st_bindings > 0);
      Alcotest.(check bool) "pipeline steps follow" true (rest <> []);
      let names = Debugtuner.Toolchain.pass_names cfg in
      List.iter
        (fun (name, (st : Debugtuner.Toolchain.ir_stats)) ->
          let base =
            match String.index_opt name ' ' with
            | Some i -> String.sub name 0 i
            | None -> name
          in
          Alcotest.(check bool) (base ^ " is a pipeline pass") true
            (List.mem base names);
          Alcotest.(check bool) (name ^ " stats sane") true
            (st.Debugtuner.Toolchain.st_instrs >= 0
            && st.Debugtuner.Toolchain.st_blocks > 0
            && st.Debugtuner.Toolchain.st_lines >= 0))
        rest
  | _ -> Alcotest.fail "O2 trace must start with lower; mem2reg");
  (* A disabled pass leaves no row. *)
  let disabled =
    trace { cfg with Debugtuner.Config.disabled = [ "tree-ter" ] }
  in
  Alcotest.(check bool) "disabled pass not traced" false
    (List.exists (fun (n, _) -> n = "tree-ter") disabled)

let test_pareto_unit () =
  let p name d sp = { Debugtuner.Pareto.pt_name = name; pt_debug = d; pt_speedup = sp } in
  let a = p "a" 0.5 2.0 and b = p "b" 0.4 1.9 and c = p "c" 0.6 1.5 in
  Alcotest.(check bool) "a dominates b" true (Debugtuner.Pareto.dominates a b);
  Alcotest.(check bool) "a does not dominate c" false
    (Debugtuner.Pareto.dominates a c);
  Alcotest.(check bool) "no self-domination" false
    (Debugtuner.Pareto.dominates a a);
  let opt = Debugtuner.Pareto.optimal [ a; b; c ] in
  Alcotest.(check (list string)) "front sorted by debuggability"
    [ "a"; "c" ]
    (List.map (fun q -> q.Debugtuner.Pareto.pt_name) opt)

let qcheck_pareto_front_sound =
  QCheck.Test.make ~name:"pareto front = undominated points" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (float_range 0.0 1.0) (float_range 1.0 3.0)))
    (fun raw ->
      let pts =
        List.mapi
          (fun i (d, s) ->
            { Debugtuner.Pareto.pt_name = string_of_int i; pt_debug = d; pt_speedup = s })
          raw
      in
      List.for_all
        (fun (q, flag) ->
          flag
          = not
              (List.exists
                 (fun other -> Debugtuner.Pareto.dominates other q)
                 pts))
        (Debugtuner.Pareto.front pts))

let tests =
  [
    Alcotest.test_case "pipeline trace" `Quick test_pipeline_trace;
    Alcotest.test_case "pareto basics" `Quick test_pareto_unit;
    QCheck_alcotest.to_alcotest qcheck_pareto_front_sound;
    Alcotest.test_case "config names" `Quick test_config_names;
    Alcotest.test_case "pipelines grow" `Quick test_pipelines_grow_with_level;
    Alcotest.test_case "paper pass names" `Quick test_paper_pass_names_present;
    Alcotest.test_case "disabling changes .text" `Quick
      test_disabling_pass_changes_or_keeps_binary;
    Alcotest.test_case "disable-all weak but debuggable" `Quick
      test_disable_all_is_weak;
    Alcotest.test_case "discard optimization" `Quick
      test_measure_reuse_discard_optimization;
    Alcotest.test_case "ranking shape" `Quick test_ranking_shape;
    Alcotest.test_case "dy inliner exception" `Quick test_dy_config_inliner_exception;
    Alcotest.test_case "dy configs nest" `Quick test_dy_configs_nest;
    Alcotest.test_case "speedups ordering" `Quick test_speedups_ordering;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    Alcotest.test_case "compile deterministic" `Quick test_compile_deterministic;
  ]
