(* AutoFDO end to end (the paper's Section V-C causal chain) on one SPEC
   analog:

     dune exec examples/autofdo_demo.exe

   1. compile a profiling binary at clang -O2;
   2. run it under cost-driven PC sampling;
   3. map samples to source lines through the binary's line table
      (samples on line-less addresses are lost);
   4. recompile at -O2 with the profile driving block frequencies and
      inliner hotness;
   5. repeat with a debug-friendlier O2-d3 profiling build and compare. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module A = Debugtuner.Autofdo

let () =
  print_endline "== AutoFDO demo: 505.mcf analog ==\n";
  let bench = Spec.find "505.mcf" in
  let ast = Suite_types.ast bench in
  let roots = Suite_types.roots bench in
  let o2 = C.make C.Clang C.O2 in

  let describe tag (profiling_config : C.t) =
    let profiling_bin = T.compile ast ~config:profiling_config ~roots in
    let coll =
      A.collect (Vm.load profiling_bin) ~entry:"main" ~workloads:[ [] ]
        ~period:211 ~seed:7
    in
    Printf.printf
      "%-8s profiling binary: %d steppable lines; %d samples, %d lost (%.1f%%)\n"
      tag
      (List.length (Dwarfish.steppable_lines profiling_bin.Emit.debug))
      coll.A.samples_taken coll.A.samples_lost
      (100.0
      *. float_of_int coll.A.samples_lost
      /. float_of_int (max 1 coll.A.samples_taken));
    let final =
      T.compile
        ~options:(T.Options.make ~profile:coll.A.profile ())
        ast ~config:o2 ~roots
    in
    let cost = (Vm.run final ~entry:"main" ~input:[] Vm.default_opts).Vm.cost in
    Printf.printf "%-8s AutoFDO-optimized binary cost: %d cycles\n\n" tag cost;
    cost
  in

  let plain = T.compile ast ~config:o2 ~roots in
  let plain_cost =
    (Vm.run plain ~entry:"main" ~input:[] Vm.default_opts).Vm.cost
  in
  Printf.printf "plain O2 (no AutoFDO): %d cycles\n\n" plain_cost;

  let base = describe "O2" o2 in
  let dy =
    describe "O2-d3"
      (C.make
         ~disabled:[ "SimplifyCFG"; "Machine Scheduler"; "JumpThreading" ]
         C.Clang C.O2)
  in
  Printf.printf
    "speedup of O2-d3-profile AutoFDO over O2-profile AutoFDO: %+.2f%%\n"
    ((float_of_int base /. float_of_int dy -. 1.0) *. 100.0);
  print_endline
    "(the debug-friendlier profiling build loses fewer samples, so the\n\
    \ profile is truer and the final binary usually faster — RQ3)"
