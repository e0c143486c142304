(** Tests for the debugger (trace extraction) and the metrics. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let src =
  "int f(int a) {\n\
  \  int x = a + 1;\n\
  \  int y = 0;\n\
  \  if (x > 10) {\n\
  \    y = x * 2;\n\
  \  } else {\n\
  \    y = x - 2;\n\
  \  }\n\
  \  output(y);\n\
  \  return y;\n\
   }\n\
   int main() {\n\
  \  f(input());\n\
  \  return 0;\n\
   }"

let compile config = T.compile_source src ~config ~roots:[ "main" ]

let o0 = lazy (compile (C.make C.Gcc C.O0))

let test_trace_steps_executed_lines () =
  let bin = Lazy.force o0 in
  let t = Debugger.trace (Vm.load bin) ~entry:"main" ~inputs:[ [ 20 ] ] in
  let stepped = Debugger.stepped_lines t in
  (* The then-branch (line 5) runs; the else (line 7) does not. *)
  Alcotest.(check bool) "line 5 stepped" true (List.mem 5 stepped);
  Alcotest.(check bool) "line 7 not stepped" false (List.mem 7 stepped)

let test_trace_accumulates_inputs () =
  let bin = Lazy.force o0 in
  let t = Debugger.trace (Vm.load bin) ~entry:"main" ~inputs:[ [ 20 ]; [ 1 ] ] in
  let stepped = Debugger.stepped_lines t in
  Alcotest.(check bool) "both branches covered" true
    (List.mem 5 stepped && List.mem 7 stepped)

let test_trace_vars_at_o0 () =
  let bin = Lazy.force o0 in
  let t = Debugger.trace (Vm.load bin) ~entry:"main" ~inputs:[ [ 20 ] ] in
  let vars = Debugger.vars_at t 9 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " visible at line 9") true
        (Debugger.Var_set.exists
           (fun (v : Ir.var_id) -> v.Ir.name = name && v.Ir.origin = "f")
           vars))
    [ "a"; "x"; "y" ]

let test_trace_temporary_breakpoints () =
  let bin = Lazy.force o0 in
  let t = Debugger.trace (Vm.load bin) ~entry:"main" ~inputs:[ [ 20 ]; [ 21 ] ] in
  (* hit_order never repeats a line. *)
  let sorted = List.sort_uniq compare t.Debugger.hit_order in
  Alcotest.(check int) "lines recorded once"
    (List.length t.Debugger.hit_order)
    (List.length sorted)

(* Merging harness sessions keeps [trace]'s contract: lines in session
   order, each at its first hit, never repeated. *)
let test_merged_traces_keep_first_hit_order () =
  let session hit_order =
    let stepped = Hashtbl.create 8 in
    List.iter
      (fun l -> Hashtbl.replace stepped l Debugger.Var_set.empty)
      hit_order;
    {
      Debugger.stepped;
      steppable = hit_order;
      hit_order;
      per_input_lines = [||];
    }
  in
  let merged =
    Debugtuner.Evaluation.merge_traces [ session [ 5; 3; 9 ]; session [ 3; 7 ] ]
  in
  Alcotest.(check (list int))
    "hit order" [ 5; 3; 9; 7 ] merged.Debugger.hit_order;
  Alcotest.(check (list int))
    "stepped" [ 3; 5; 7; 9 ] (Debugger.stepped_lines merged)

let test_steppable_superset_of_stepped () =
  let bin = compile (C.make C.Gcc C.O2) in
  let t = Debugger.trace (Vm.load bin) ~entry:"main" ~inputs:[ [ 20 ]; [ 1 ] ] in
  List.iter
    (fun l ->
      Alcotest.(check bool) "stepped is steppable" true
        (List.mem l t.Debugger.steppable))
    (Debugger.stepped_lines t)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let measure config =
  let ast = Minic.Typecheck.parse_and_check src in
  let defranges = Minic.Defranges.analyze ast in
  let unopt = Lazy.force o0 in
  let opt = compile config in
  let inputs = [ [ 20 ]; [ 1 ] ] in
  let unopt_trace = Debugger.trace (Vm.load unopt) ~entry:"main" ~inputs in
  let opt_trace = Debugger.trace (Vm.load opt) ~entry:"main" ~inputs in
  Metrics.all
    { Metrics.defranges; unopt_trace; opt_trace; unopt_bin = unopt; opt_bin = opt }

let test_metrics_identity_at_o0 () =
  let m = measure (C.make C.Gcc C.O0) in
  Alcotest.(check (float 1e-9)) "dynamic availability 1 at O0" 1.0
    m.Metrics.m_dynamic.Metrics.availability;
  Alcotest.(check (float 1e-9)) "line coverage 1 at O0" 1.0
    m.Metrics.m_dynamic.Metrics.line_coverage

let test_metrics_bounded () =
  List.iter
    (fun config ->
      let m = measure config in
      List.iter
        (fun (s : Metrics.score) ->
          Alcotest.(check bool) "in [0,1]" true
            (s.Metrics.availability >= 0.0 && s.Metrics.availability <= 1.0
            && s.Metrics.line_coverage >= 0.0
            && s.Metrics.line_coverage <= 1.0);
          Alcotest.(check (float 1e-9)) "product = a * lc"
            (s.Metrics.availability *. s.Metrics.line_coverage)
            s.Metrics.product)
        [ m.Metrics.m_static; m.Metrics.m_static_dbg; m.Metrics.m_dynamic; m.Metrics.m_hybrid ])
    [ C.make C.Gcc C.O1; C.make C.Gcc C.O3; C.make C.Clang C.O2 ]

let test_hybrid_corrects_dynamic () =
  (* The hybrid method filters the inflated O0 baseline, so its
     availability is >= the dynamic one. *)
  List.iter
    (fun config ->
      let m = measure config in
      Alcotest.(check bool) "hybrid >= dynamic availability" true
        (m.Metrics.m_hybrid.Metrics.availability
         >= m.Metrics.m_dynamic.Metrics.availability -. 1e-9))
    [ C.make C.Gcc C.O1; C.make C.Gcc C.O2; C.make C.Clang C.O1 ]

let test_hybrid_line_coverage_equals_dynamic () =
  let m = measure (C.make C.Gcc C.O2) in
  Alcotest.(check (float 1e-9)) "identical line coverage"
    m.Metrics.m_dynamic.Metrics.line_coverage
    m.Metrics.m_hybrid.Metrics.line_coverage

let test_quality_declines_with_level () =
  let product config = (measure config).Metrics.m_hybrid.Metrics.product in
  let og = product (C.make C.Gcc C.Og) in
  let o3 = product (C.make C.Gcc C.O3) in
  Alcotest.(check bool) "Og more debuggable than O3" true (og >= o3)

let tests =
  [
    Alcotest.test_case "trace executed lines" `Quick test_trace_steps_executed_lines;
    Alcotest.test_case "trace accumulates inputs" `Quick test_trace_accumulates_inputs;
    Alcotest.test_case "trace vars at O0" `Quick test_trace_vars_at_o0;
    Alcotest.test_case "temporary breakpoints" `Quick test_trace_temporary_breakpoints;
    Alcotest.test_case "steppable superset" `Quick test_steppable_superset_of_stepped;
    Alcotest.test_case "merged traces keep first-hit order" `Quick
      test_merged_traces_keep_first_hit_order;
    Alcotest.test_case "metrics identity at O0" `Quick test_metrics_identity_at_o0;
    Alcotest.test_case "metrics bounded" `Quick test_metrics_bounded;
    Alcotest.test_case "hybrid corrects dynamic" `Quick test_hybrid_corrects_dynamic;
    Alcotest.test_case "hybrid lc = dynamic lc" `Quick
      test_hybrid_line_coverage_equals_dynamic;
    Alcotest.test_case "quality declines with level" `Quick
      test_quality_declines_with_level;
  ]
