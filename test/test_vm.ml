(** Tests for the VM: semantics, cost model monotonicity, I/O, budget,
    coverage and sampling instrumentation. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let compile ?(config = C.make C.Gcc C.O0) src roots =
  T.compile_source src ~config ~roots

let test_arith_program () =
  let bin =
    compile
      "int main() {\n\
       output(7 / 2);\n\
       output(-7 / 2);\n\
       output(7 % 3);\n\
       output(5 / 0);\n\
       output(5 % 0);\n\
       output(1 << 4);\n\
       output(-16 >> 2);\n\
       output(6 & 3);\n\
       output(6 | 3);\n\
       output(6 ^ 3);\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "arith"
    [ 3; -3; 1; 0; 0; 16; -4; 2; 7; 5 ]
    r.Vm.output

let test_short_circuit_effects () =
  (* && must not evaluate the rhs when lhs is false: rhs consumes
     input. *)
  let bin =
    compile
      "int take() { return input(); }\n\
       int main() {\n\
       int a = 0;\n\
       if (a && take()) {\n\
       output(-1);\n\
       }\n\
       output(input());\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[ 42; 43 ] Vm.default_opts in
  Alcotest.(check (list int)) "rhs skipped" [ 42 ] r.Vm.output

let test_input_eof () =
  let bin =
    compile
      "int main() {\n\
       while (!eof()) {\n\
       output(input() * 2);\n\
       }\n\
       output(input());\n\
       output(eof());\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[ 1; 2; 3 ] Vm.default_opts in
  Alcotest.(check (list int)) "doubles then zero-at-eof" [ 2; 4; 6; 0; 1 ]
    r.Vm.output

let test_array_wrapping () =
  (* Out-of-range indices wrap modulo the array size (total semantics,
     matching O0 and optimized builds alike). *)
  let bin =
    compile
      "int a[4];\n\
       int main() {\n\
       a[5] = 99;\n\
       output(a[1]);\n\
       a[-1] = 7;\n\
       output(a[3]);\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "wrapped" [ 99; 7 ] r.Vm.output

let test_recursion_and_frames () =
  let bin =
    compile
      "int fib(int n) {\n\
       if (n < 2) {\n\
       return n;\n\
       }\n\
       return fib(n - 1) + fib(n - 2);\n\
       }\n\
       int main() { output(fib(12)); return 0; }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "fib 12" [ 144 ] r.Vm.output

let test_globals_persist_across_calls () =
  let bin =
    compile
      "int counter;\n\
       int bump() { counter = counter + 1; return counter; }\n\
       int main() { bump(); bump(); output(bump()); return 0; }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "global state" [ 3 ] r.Vm.output

let test_frames_isolated () =
  (* Each call gets fresh zeroed locals. *)
  let bin =
    compile
      "int f() { int local[2]; local[0] = local[0] + 5; return local[0]; }\n\
       int main() { output(f()); output(f()); return 0; }"
      [ "main" ]
  in
  let r = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "fresh frames" [ 5; 5 ] r.Vm.output

let test_budget_exhaustion () =
  let bin =
    compile "int main() { while (1) { } return 0; }" [ "main" ]
  in
  let r =
    Vm.run bin ~entry:"main" ~input:[] { Vm.default_opts with max_instrs = 5000 }
  in
  Alcotest.(check bool) "timed out" true r.Vm.timed_out

let test_cost_scales_with_work () =
  let bin =
    compile
      "int main() {\n\
       int n = input();\n\
       int i = 0;\n\
       int s = 0;\n\
       while (i < n) {\n\
       s = s + i;\n\
       i = i + 1;\n\
       }\n\
       output(s);\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let cost n = (Vm.run bin ~entry:"main" ~input:[ n ] Vm.default_opts).Vm.cost in
  Alcotest.(check bool) "more iterations cost more" true (cost 100 > cost 10);
  Alcotest.(check bool) "roughly linear" true
    (cost 200 - cost 100 > (cost 100 - cost 10) / 2)

let test_optimized_is_cheaper () =
  let src = (Spec.find "505.mcf").Suite_types.p_source in
  let o0 = compile src [ "main" ] in
  let o2 = compile ~config:(C.make C.Gcc C.O2) src [ "main" ] in
  let c0 = (Vm.run o0 ~entry:"main" ~input:[] Vm.default_opts).Vm.cost in
  let c2 = (Vm.run o2 ~entry:"main" ~input:[] Vm.default_opts).Vm.cost in
  Alcotest.(check bool) "O2 at least 1.5x faster than O0" true
    (float_of_int c0 /. float_of_int c2 > 1.5)

let test_coverage_edges () =
  let bin =
    compile
      "int main() {\n\
       int i = 0;\n\
       while (i < 3) {\n\
       i = i + 1;\n\
       }\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let r =
    Vm.run bin ~entry:"main" ~input:[] { Vm.default_opts with coverage = true }
  in
  Alcotest.(check int) "one count per edge id"
    (Array.length (Vm.edge_table bin))
    (Array.length r.Vm.edges);
  (* Three trips round the loop: some edge is taken exactly three times,
     none more than four (the header's test runs once more). *)
  Alcotest.(check bool) "loop edge counted" true (Array.mem 3 r.Vm.edges);
  Alcotest.(check bool) "no edge over four" true
    (Array.for_all (fun n -> n <= 4) r.Vm.edges);
  let plain = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (array int)) "no counts without coverage" [||]
    plain.Vm.edges

let test_sampling_density () =
  let src = (Spec.find "541.leela").Suite_types.p_source in
  let bin = compile src [ "main" ] in
  let r =
    Vm.run bin ~entry:"main" ~input:[]
      { Vm.default_opts with sample_period = Some 997 }
  in
  let expected = r.Vm.cost / 997 in
  let got = List.length r.Vm.samples in
  Alcotest.(check bool)
    (Printf.sprintf "sample count ~ cost/period (%d vs %d)" got expected)
    true
    (got > expected / 2 && got < 2 * expected);
  (* All samples are valid addresses. *)
  List.iter
    (fun a ->
      Alcotest.(check bool) "addr valid" true
        (a >= 0 && a < Array.length bin.Emit.code))
    r.Vm.samples

let test_sampling_deterministic () =
  let src = (Spec.find "557.xz").Suite_types.p_source in
  let bin = compile src [ "main" ] in
  let go () =
    (Vm.run bin ~entry:"main" ~input:[]
       { Vm.default_opts with sample_period = Some 499; seed = 5 })
      .Vm.samples
  in
  Alcotest.(check (list int)) "same samples" (go ()) (go ())

let test_breakpoints_first_hit_only () =
  let bin =
    compile
      "int main() {\n\
       int i = 0;\n\
       while (i < 5) {\n\
       i = i + 1;\n\
       }\n\
       output(i);\n\
       return 0;\n\
       }"
      [ "main" ]
  in
  let bps = Array.make (Array.length bin.Emit.code) true in
  let r =
    Vm.run bin ~entry:"main" ~input:[]
      { Vm.default_opts with breakpoints = Some bps }
  in
  let sorted = List.sort_uniq compare r.Vm.bp_hits in
  Alcotest.(check int) "each address at most once" (List.length r.Vm.bp_hits)
    (List.length sorted)

let test_short_run_minor_heap () =
  (* A short run's whole state fits the minor heap: zlib's first
     harness on its first seed input, run 200 times with coverage (as
     the fuzzer runs it) and 200 times plain on the fast core, allocates
     no word directly in the major heap and a few hundred in the minor
     heap per run. Words promoted by a minor collection that happens to
     fall inside a run are not direct major allocations. Minor words
     come from [Gc.minor_words]: [Gc.counters]' minor field lags behind
     allocation under OCaml 5. *)
  let p = Programs.find "zlib" in
  let h = List.hd p.Suite_types.p_harnesses in
  let input = List.hd h.Suite_types.h_seeds in
  let bin =
    T.compile (Suite_types.ast p) ~config:(C.make C.Gcc C.O0)
      ~roots:(Suite_types.roots p)
  in
  let prog =
    try Vm.Decode.decode bin
    with Vm.Decode.Unsupported ->
      Alcotest.fail "zlib rejected by the fast-core decoder"
  in
  let per_run opts =
    let run () =
      ignore
        (Vm.Fast.run prog bin ~entry:h.Suite_types.h_entry ~args:[] ~input opts)
    in
    run ();
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    for _ = 1 to 200 do
      run ()
    done;
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    ( (minor1 -. minor0) /. 200.,
      (major1 -. major0 -. (promoted1 -. promoted0)) /. 200. )
  in
  List.iter
    (fun (what, opts) ->
      let minor, major = per_run opts in
      Alcotest.(check (float 0.)) (what ^ " major words per run") 0. major;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per run, at most 768" what minor)
        true (minor <= 768.))
    [
      ("coverage", { Vm.default_opts with coverage = true; max_instrs = 300_000 });
      ("plain", Vm.default_opts);
    ]

let qcheck_vm_determinism =
  QCheck.Test.make ~name:"vm runs are deterministic" ~count:20
    QCheck.(pair (int_range 1 30_000) (small_list small_int))
    (fun (seed, input) ->
      let src = Synth.generate ~seed in
      let bin = T.compile_source src ~config:(C.make C.Gcc C.O1) ~roots:[ "main" ] in
      let r1 = Vm.run bin ~entry:"main" ~input Vm.default_opts in
      let r2 = Vm.run bin ~entry:"main" ~input Vm.default_opts in
      r1.Vm.output = r2.Vm.output && r1.Vm.cost = r2.Vm.cost)

let tests =
  [
    Alcotest.test_case "arithmetic semantics" `Quick test_arith_program;
    Alcotest.test_case "short circuit effects" `Quick test_short_circuit_effects;
    Alcotest.test_case "input/eof" `Quick test_input_eof;
    Alcotest.test_case "array wrapping" `Quick test_array_wrapping;
    Alcotest.test_case "recursion and frames" `Quick test_recursion_and_frames;
    Alcotest.test_case "globals persist" `Quick test_globals_persist_across_calls;
    Alcotest.test_case "frames isolated" `Quick test_frames_isolated;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
    Alcotest.test_case "cost scales with work" `Quick test_cost_scales_with_work;
    Alcotest.test_case "optimized is cheaper" `Quick test_optimized_is_cheaper;
    Alcotest.test_case "coverage edges" `Quick test_coverage_edges;
    Alcotest.test_case "sampling density" `Quick test_sampling_density;
    Alcotest.test_case "sampling deterministic" `Quick test_sampling_deterministic;
    Alcotest.test_case "breakpoints first hit" `Quick test_breakpoints_first_hit_only;
    Alcotest.test_case "short run stays in the minor heap" `Quick
      test_short_run_minor_heap;
    QCheck_alcotest.to_alcotest qcheck_vm_determinism;
  ]
