(* Pass ranking: the DebugTuner workflow of Figure 1 on a small slice of
   the test suite.

     dune exec examples/rank_passes.exe

   Prepares three suite programs (fuzzing-derived corpora), sweeps every
   pass of gcc -O2 with single-pass disabling, prints the cross-program
   ranking, and builds the O2-d3 configuration from its top entries. *)

module C = Debugtuner.Config
module E = Debugtuner.Evaluation
module ME = Debugtuner.Measure_engine
module R = Debugtuner.Ranking

let () =
  print_endline "== Ranking gcc -O2 passes on bzip2, libpng, zydis ==\n";
  let programs = [ "bzip2"; "libpng"; "zydis" ] in
  let prepared = List.map (fun n -> E.prepare (Programs.find n)) programs in
  let config = C.make C.Gcc C.O2 in
  (* One engine caches every compile and measurement below. *)
  let engine = ME.create () in

  (* Baseline debuggability of the standard level. *)
  List.iter2
    (fun name p ->
      Printf.printf "%-8s O2 hybrid product: %.4f\n" name
        (ME.product engine p config))
    programs prepared;

  (* The sweep: one configuration per pass, each with that pass's every
     instance disabled (the paper's OptPassGate analog). *)
  let lr = R.rank ~engine prepared config in
  Printf.printf "\n%-28s %10s %28s\n" "pass (by average rank)" "avg +%"
    "(improved/neutral/regressed)";
  List.iteri
    (fun i (e : R.pass_effect) ->
      if i < 10 then
        Printf.printf "%2d. %-24s %9.2f%% %20d/%d/%d\n" (i + 1) e.R.pe_pass
          e.R.pe_geo_increment_pct e.R.pe_programs_improved
          e.R.pe_programs_neutral e.R.pe_programs_regressed)
    lr.R.lr_effects;

  (* Build O2-d3 (top three, inliner excepted) and re-measure. *)
  let d3 = Debugtuner.Tuning.dy_config lr ~y:3 in
  Printf.printf "\nO2-d3 disables: %s\n" (String.concat ", " d3.C.disabled);
  List.iter2
    (fun name p ->
      let base = ME.product engine p config in
      let tuned = ME.product engine p d3 in
      Printf.printf "%-8s O2 %.4f -> O2-d3 %.4f  (%+.1f%%)\n" name base tuned
        (Util.Stats.pct_delta base tuned))
    programs prepared
