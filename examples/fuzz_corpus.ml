(* Building a debug-information test corpus the paper's way (Section IV):

     dune exec examples/fuzz_corpus.exe

   coverage-guided fuzzing over the O0 binary, afl-cmin-style
   minimization, then debug-trace set-cover pruning — ending with the
   per-harness input sets a DebugTuner evaluation uses. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let () =
  print_endline "== Corpus construction for zydis ==\n";
  let program = Programs.find "zydis" in
  let ast = Suite_types.ast program in
  let roots = Suite_types.roots program in
  (* One load of the O0 binary serves every run below. *)
  let o0 = Vm.load (T.compile ast ~config:(C.make C.Gcc C.O0) ~roots) in
  List.iter
    (fun (h : Suite_types.harness) ->
      let entry = h.Suite_types.h_entry in
      Printf.printf "harness %s (entry %s), %d seed inputs\n"
        h.Suite_types.h_name entry
        (List.length h.Suite_types.h_seeds);
      (* 1. Fuzz: the corpus collects every input that found a new edge. *)
      let fz =
        Fuzzer.fuzz o0 ~entry ~seeds:h.Suite_types.h_seeds ~budget:600 ~seed:11
      in
      Printf.printf "  fuzzing: %d execs, %d edges, corpus of %d inputs\n"
        fz.Fuzzer.total_execs fz.Fuzzer.edges_found
        (List.length fz.Fuzzer.corpus);
      let raw =
        h.Suite_types.h_seeds
        @ List.map (fun (c : Fuzzer.corpus_entry) -> c.Fuzzer.data) fz.Fuzzer.corpus
      in
      (* 2. afl-cmin analog: smallest subset with the same edge set. *)
      let minimized = Cmin.minimize o0 ~entry raw in
      Printf.printf "  cmin: %d -> %d inputs (%.1f%% reduction)\n"
        minimized.Cmin.original
        (List.length minimized.Cmin.kept)
        minimized.Cmin.reduction_pct;
      (* 3. Debug-trace pruning: drop inputs stepping no new line. *)
      let pruned = Trace_prune.prune o0 ~entry minimized.Cmin.kept in
      Printf.printf "  trace pruning: %d -> %d inputs\n"
        (List.length minimized.Cmin.kept)
        (List.length pruned);
      (* The resulting trace is the evaluation baseline. *)
      let t = Debugger.trace o0 ~entry ~inputs:pruned in
      Printf.printf "  debug trace: %d/%d steppable lines stepped (%.1f%%)\n\n"
        (List.length (Debugger.stepped_lines t))
        (List.length t.Debugger.steppable)
        (100.0
        *. float_of_int (List.length (Debugger.stepped_lines t))
        /. float_of_int (max 1 (List.length t.Debugger.steppable))))
    program.Suite_types.p_harnesses
